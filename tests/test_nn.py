import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convgen import nn
from convgen.nn import Conv1D, Dense, Network, NNError, dense_network

from conftest import grad_check


def single_dense(n_in, n_out, activation, weights=None, bias=None, seed=0):
    net = dense_network([n_in, n_out], [activation], seed=seed)
    if weights is not None:
        net.layers[0].w[...] = weights
    if bias is not None:
        net.layers[0].b[...] = bias
    return net


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = single_dense(3, 3, "identity", weights=np.eye(3), bias=np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(net.forward(x), x)

    def test_softsign_single_node(self):
        net = single_dense(1, 1, "softsign", weights=[[1.0]], bias=[0.0])
        assert net.forward(np.array([[1.0]]))[0, 0] == pytest.approx(0.5)

    def test_two_layer_relu_matches_hand_evaluation(self):
        # weights set by hand; expected value computed independently below
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0], [-1.0]])
        b2 = np.array([0.3])
        net = dense_network([2, 2, 1], ["relu", "identity"], seed=0)
        net.layers[0].w[...] = w1
        net.layers[0].b[...] = b1
        net.layers[1].w[...] = w2
        net.layers[1].b[...] = b2

        x = np.array([[1.5, -0.5]])
        h = np.maximum(x @ w1 + b1, 0.0)  # independent re-evaluation
        expected = h @ w2 + b2
        assert net.forward(x) == pytest.approx(expected)

    def test_shape_mismatch_names_layer(self):
        net = dense_network([3, 4, 2], ["relu", "identity"], seed=1)
        with pytest.raises(NNError, match="layer 0"):
            net.forward(np.ones((2, 5)))

    def test_forward_is_referentially_transparent(self):
        net = dense_network([4, 6, 3], ["sigmoid", "softmax"], seed=3)
        x = np.random.default_rng(0).normal(size=(5, 4))
        first = net.forward(x).copy()
        second = net.forward(x)
        assert np.array_equal(first, second)

    def test_forward_does_not_mutate_weights(self):
        net = dense_network([3, 3], ["relu"], seed=2)
        before = net.layers[0].w.copy()
        net.forward(np.ones((2, 3)))
        assert np.array_equal(before, net.layers[0].w)


class TestActivationRanges:
    @pytest.mark.parametrize("name,check", [
        ("relu", lambda a: np.all(a >= 0.0)),
        ("softsign", lambda a: np.all((a > -1.0) & (a < 1.0))),
        ("sigmoid", lambda a: np.all((a > 0.0) & (a < 1.0))),
    ])
    def test_ranges(self, name, check):
        z = np.random.default_rng(5).normal(scale=10.0, size=(100, 7))
        assert check(nn.activate(name, z))

    @pytest.mark.parametrize("dtype,z", [(np.float32, -200.0), (np.float64, -1000.0)])
    def test_sigmoid_saturates_without_overflow_warning(self, dtype, z):
        x = np.array([z, 0.0, -z], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = nn.activate("sigmoid", x)
        assert a.dtype == dtype
        assert a.tolist() == [0.0, 0.5, 1.0]

    def test_softmax_rows_are_distributions(self):
        z = np.random.default_rng(6).normal(scale=10.0, size=(50, 4))
        a = nn.activate("softmax", z)
        assert np.all(a >= 0.0)
        assert a.sum(axis=1) == pytest.approx(np.ones(50))


class TestLosses:
    def test_mse_zero_at_target(self):
        y = np.random.default_rng(1).normal(size=(4, 3))
        assert nn.loss("mse", y, y)[0] == 0.0

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_bce_minimized_at_target(self, target):
        t = np.full((5, 2), target)
        at_target = nn.loss("bce", t, t)[0]
        for other in (0.01, 0.3, 0.6, 0.99):
            assert nn.loss("bce", np.full((5, 2), other), t)[0] >= at_target


class TestBackward:
    def test_zero_mse_loss_gives_zero_gradients(self):
        net = dense_network([2, 2], ["identity"], seed=4)
        x = np.array([[1.0, 2.0]])
        pred = net.forward(x)
        loss = net.backward("mse", pred, pred.copy())
        assert loss == 0.0
        assert np.all(net.layers[0].gw == 0.0)
        assert np.all(net.layers[0].gb == 0.0)

    def test_one_parameter_linear_model_closed_form(self):
        # model y = w*x, mse on one sample: dL/dw = 2*(w*x - y)*x
        w, x, y = 1.7, 3.0, 2.0
        net = single_dense(1, 1, "identity", weights=[[w]], bias=[0.0])
        pred = net.forward(np.array([[x]]))
        net.backward("mse", pred, np.array([[y]]))
        assert net.layers[0].gw[0, 0] == pytest.approx(2.0 * (w * x - y) * x)

    def test_three_layer_bce_matches_finite_differences(self):
        net = dense_network([3, 5, 4, 2], ["sigmoid", "relu", "softmax"], seed=9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 3))
        t = np.zeros((6, 2))
        t[np.arange(6), rng.integers(2, size=6)] = 1.0
        assert grad_check(net, "bce", x, t, epsilon=1e-5) < 1e-4

    def test_loss_shape_mismatch(self):
        with pytest.raises(NNError, match="shape"):
            nn.loss("mse", np.ones((2, 2)), np.ones((3, 2)))


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = dense_network([2, 2], ["identity"], seed=5)
        before = net.layers[0].w.copy()
        pred = net.forward(np.ones((1, 2)))
        net.backward("mse", pred, pred.copy())
        net.step()
        assert np.allclose(net.layers[0].w, before)

    def test_step_before_backward_is_an_error(self):
        net = dense_network([2, 2], ["identity"], seed=5)
        with pytest.raises(NNError, match="before backward"):
            net.step()

    def test_constant_gradient_moves_against_its_sign(self):
        net = single_dense(1, 1, "identity", weights=[[0.0]], bias=[0.0])
        start = net.layers[0].w[0, 0]
        for _ in range(50):
            net.layers[0].gw[...] = 2.5  # constant positive gradient
            net._has_grads = True
            net.step()
        assert net.layers[0].w[0, 0] < start

    def test_subnormal_first_moments_are_flushed(self):
        net = single_dense(2, 2, "identity")
        tiny = np.finfo(np.float32).tiny
        net._adam_m[:2] = [tiny / 8, 1e-30]  # a subnormal and a small normal moment
        for t in range(1, nn.ADAM_FLUSH_EVERY + 1):
            if t == nn.ADAM_FLUSH_EVERY:
                assert 0.0 < net._adam_m[0] < tiny
            net._has_grads = True  # zero gradient, as a dead ReLU unit gets
            net.step()
        assert net._adam_m[0] == 0.0
        assert net._adam_m[1] == pytest.approx(1e-30 * 0.9 ** nn.ADAM_FLUSH_EVERY, rel=1e-5)

    def test_quadratic_bowl_converges_to_minimum(self):
        # loss (w - 3)^2 realized as mse of a bias-only model against y = 3
        net = single_dense(1, 1, "identity", weights=[[0.0]], bias=[0.0])
        target = np.array([[3.0]])
        x = np.array([[0.0]])
        # Adam moves b by at most about ADAM_LR per step; it is within 1e-2 of 3
        # after ~5800 steps
        for _ in range(8000):
            pred = net.forward(x)
            net.backward("mse", pred, target)
            net.step()
        assert abs(net.layers[0].b[0] - 3.0) < 1e-2


class TestGradCheck:
    def test_linear_mse_is_nearly_exact(self):
        net = dense_network([2, 1], ["identity"], seed=11)
        x = np.array([[0.5, -1.5], [2.0, 0.25]])
        t = np.array([[1.0], [0.0]])
        assert grad_check(net, "mse", x, t) < 1e-8

    def test_relu_net_away_from_kinks(self):
        net = dense_network([3, 6, 2], ["relu", "identity"], seed=12)
        x = np.random.default_rng(12).normal(size=(4, 3)) + 0.5
        t = np.random.default_rng(13).normal(size=(4, 2))
        assert grad_check(net, "mse", x, t) < 1e-4

    def test_softmax_bce_net(self):
        net = dense_network([4, 5, 3], ["sigmoid", "softmax"], seed=14)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 4))
        t = np.zeros((5, 3))
        t[np.arange(5), rng.integers(3, size=5)] = 1.0
        assert grad_check(net, "bce", x, t) < 1e-4

    def test_conv_dense_stack(self):
        rng = np.random.default_rng(15)
        net = Network([
            Conv1D(6, 3, 4, rng),
            Dense(12, 5, "relu", rng),
            Dense(5, 2, "softmax", rng),
        ])
        x = rng.normal(size=(6, 4))
        t = np.array([[0.0, 1.0]])
        assert grad_check(net, "bce", x, t) < 1e-4

    def test_rejects_nonpositive_epsilon(self):
        net = dense_network([1, 1], ["identity"], seed=0)
        with pytest.raises(NNError):
            grad_check(net, "mse", np.ones((1, 1)), np.ones((1, 1)), epsilon=0.0)


def textbook_adam_step(params, grads, m, v, t, lr):
    """Textbook Adam (Kingma & Ba, Alg. 1), one parameter array at a time."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        m_hat = mi / (1.0 - beta1 ** t)
        v_hat = vi / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def folded_adam_step(params, grads, m, v, t, lr):
    """Adam with the bias correction folded into the step size and epsilon
    (Kingma & Ba, section 2), one parameter array at a time: the reference the
    whole-vector update must match bit for bit."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    root = math.sqrt(1.0 - beta2 ** t)
    lr_t = lr * root / (1.0 - beta1 ** t)
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        p -= lr_t * mi / (np.sqrt(vi) + eps * root)


def conv_dense_case(seed=21):
    """A generator-shaped stack, input rows and an MSE target."""
    rng = np.random.default_rng(seed)
    net = Network([Conv1D(6, 3, 4, rng), Dense(12, 36, "identity", rng)])
    return net, lambda r: (r.normal(size=(6, 4)), r.normal(size=(1, 36))), "mse"


def dense_case(seed=22):
    """A discriminator-shaped MLP, a batch and one-hot BCE targets."""
    net = dense_network([4, 8, 6, 2], ["relu", "relu", "softmax"], seed=seed)

    def batch(r):
        t = np.zeros((5, 2))
        t[np.arange(5), r.integers(2, size=5)] = 1.0
        return r.normal(size=(5, 4)), t

    return net, batch, "bce"


def adam_pairs(net, batch, loss, reference, steps=25, backward=None):
    """After each of `steps` Adam steps: the network's params and those of the
    per-array `reference` fed the same gradients. `backward(kind, predicted,
    target)` fills the gradients; net.backward unless given."""
    backward = backward or net.backward
    slots = [(p, g) for layer in net.layers for _, p, g in layer.params()]
    ref = [p.copy() for p, _ in slots]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    r = np.random.default_rng(0)
    for t in range(1, steps + 1):
        x, target = batch(r)
        backward(loss, net.forward(x), target)
        reference(ref, [g.copy() for _, g in slots], m, v, t, lr=nn.ADAM_LR)
        net.step()
        assert not net.grads.any()
        yield net.params, np.concatenate([p.ravel() for p in ref])


def train_step(net, batch, loss, r):
    x, t = batch(r)
    net.backward(loss, net.forward(x), t)
    net.step()


class TestFlatEngine:
    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_adam_matches_per_array_reference_bitwise(self, case):
        net, batch, loss = case()
        for params, ref in adam_pairs(net, batch, loss, folded_adam_step):
            assert params.dtype == ref.dtype == np.float32
            assert params.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_float64_adam_matches_the_textbook_algorithm(self, case):
        net, batch, loss = case()
        net = Network(copy.deepcopy(net.layers), np.float64)
        for params, ref in adam_pairs(net, batch, loss, textbook_adam_step):
            assert params.dtype == np.float64
            np.testing.assert_allclose(params, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_training_runs_in_float32(self, case):
        net, batch, loss = case()
        x, target = batch(np.random.default_rng(2))
        assert x.dtype == target.dtype == np.float64
        pred = net.forward(x)
        net.backward(loss, pred, target)
        # a network that starts with a convolution has no input gradient
        d_input = None if isinstance(net.layers[0], Conv1D) else net.backward_from(
            nn.loss(loss, pred, target)[1], input_only=True)
        net.step()
        for owner in (net, net.clone()):
            layers = [layer for layer in owner.layers if layer.params()]
            arrays = [owner.params, owner.grads, owner._adam_m, owner._adam_v]
            arrays += [getattr(layer, name) for layer in layers for name in ("w", "b", "gw", "gb")]
            assert all(a.dtype == np.float32 for a in arrays)
        # each layer's input is the one before's output; a convolution keeps no other
        outputs = [pred] + [layer._x for layer in net.layers]
        outputs += [layer._a for layer in net.layers if isinstance(layer, Dense)]
        outputs += [] if d_input is None else [d_input]
        assert all(a.dtype == np.float32 for a in outputs)

    def test_input_only_backward_matches_central_differences(self):
        net, batch, loss = dense_case()
        net = Network(copy.deepcopy(net.layers), np.float64)
        x, target = batch(np.random.default_rng(3))
        upstream = nn.loss(loss, net.forward(x), target)[1]
        d_input = net.backward_from(upstream, input_only=True)
        numeric = np.empty_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric[idx] = (nn.loss(loss, net.forward(up), target)[0]
                            - nn.loss(loss, net.forward(down), target)[0]) / (2 * eps)
        assert d_input.dtype == np.float64
        np.testing.assert_allclose(d_input, numeric, rtol=1e-5, atol=1e-9)
        assert not net.grads.any()
        with pytest.raises(NNError, match="before backward"):
            net.step()  # an input-only pass leaves nothing to step on

    def test_grad_check_leaves_the_network_untouched(self):
        net, batch, loss = dense_case()
        x, target = batch(np.random.default_rng(4))
        before = net.params.copy()
        assert grad_check(net, loss, x, target) < 1e-4
        assert net.params.dtype == np.float32
        assert net.params.tobytes() == before.tobytes()
        assert not net.grads.any()

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_layer_arrays_are_views_of_the_flat_vectors(self, case):
        net = case()[0]
        twin = net.clone()
        assert np.array_equal(twin.params, net.params)
        assert not np.shares_memory(twin.params, net.params)
        assert not np.shares_memory(twin.grads, net.grads)
        for owner in (net, twin):
            # distinct values show that each array has its own slot, in layer order
            owner.params[:] = np.arange(owner.params.size)
            owner.grads[:] = -np.arange(owner.grads.size)
            layers = [layer for layer in owner.layers if layer.params()]
            assert layers
            for vector, names in ((owner.params, ("w", "b")), (owner.grads, ("gw", "gb"))):
                arrays = [getattr(layer, name) for layer in layers for name in names]
                assert all(np.shares_memory(a, vector) for a in arrays)
                assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), vector)

    def test_clone_starts_a_fresh_optimizer_and_leaves_the_original(self):
        net, batch, loss = dense_case()
        r = np.random.default_rng(1)
        for _ in range(3):
            train_step(net, batch, loss, r)
        before = (net.params.copy(), net._adam_m.copy(), net._adam_v.copy(), net._adam_t)
        twin = net.clone()
        assert twin._adam_t == 0
        assert not twin._adam_m.any() and not twin._adam_v.any()
        assert np.array_equal(twin.params, net.params)
        for _ in range(3):
            train_step(twin, batch, loss, r)
        assert not np.array_equal(twin.params, net.params)
        assert np.array_equal(net.params, before[0])
        assert np.array_equal(net._adam_m, before[1])
        assert np.array_equal(net._adam_v, before[2])
        assert net._adam_t == before[3]


def mean_loss(kind, predicted, target):
    """nn.loss as it was written with np.mean."""
    if kind == "mse":
        diff = predicted - target
        return float(np.mean(diff ** 2)), 2.0 * diff / predicted.size
    p = np.clip(predicted, nn.BCE_EPS, 1.0 - nn.BCE_EPS)
    value = float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))
    return value, (p - target) / (p * (1.0 - p)) / predicted.size


def accumulating_backward(net, kind, predicted, target):
    """The engine's full backward before the lean pass: every layer adds a
    freshly built weight gradient into its gradient views and returns its
    input gradient, down to a first convolution, which takes its upstream
    gradient flattened and returns none. Returns (loss, d(input) or None)."""
    value, grad = mean_loss(kind, predicted, np.asarray(target, net.params.dtype))
    for layer in reversed(net.layers):
        if isinstance(layer, Dense):
            gz = nn.activation_backward(layer.activation, layer._a, grad)
            layer.gw += layer._x.T @ gz
            grad = gz @ layer.w.T
        else:
            gz = grad.reshape(layer.rows_out, layer.features)
            for j in range(layer.rows_out):
                layer.gw += gz[j] * layer._x[j:j + layer.kernel_rows]
            grad = None
        layer.gb += gz.sum(axis=0)
    net._has_grads = True
    return value, grad


def per_row_conv(x, w, b):
    """Conv1D.forward's convolution as a loop over output rows."""
    kernel_rows = len(w)
    z = np.empty((len(x) - kernel_rows + 1, x.shape[1]), dtype=x.dtype)
    for j in range(len(z)):
        z[j] = (x[j:j + kernel_rows] * w).sum(axis=0) + b
    return z


class TestLeanEngine:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "softsign", "softmax", "identity"])
    def test_dense_forward_matches_the_out_of_place_reference(self, activation):
        net = dense_network([6, 9], [activation], seed=3)
        x = np.random.default_rng(4).normal(scale=3.0, size=(7, 6)).astype(np.float32)
        layer = net.layers[0]
        z = x @ layer.w + layer.b
        if activation == "relu":
            expected = np.maximum(z, 0.0)
        elif activation == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            expected = e / e.sum(axis=1, keepdims=True)
        else:
            expected = nn.activate(activation, z.copy())
        assert net.forward(x).tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows_in=st.integers(2, 24), f=st.integers(1, 10), data=st.data())
    def test_conv_rows_matches_the_per_row_loop(self, rows_in, f, data):
        kernel_rows = data.draw(st.integers(2, rows_in))
        stack = data.draw(st.integers(1, 4))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        layer = Network([Conv1D(rows_in, rows_in - kernel_rows + 1, f, r)]).layers[0]
        x = r.normal(size=(stack, rows_in, f)).astype(np.float32)
        w = layer.w[...] = r.normal(size=(kernel_rows, f)).astype(np.float32)
        b = layer.b[...] = r.normal(size=f).astype(np.float32)
        z = layer.forward(x)
        assert z.dtype == np.float32 and z.shape == (stack, 1, layer.rows_out * f)
        for s in range(stack):
            assert z[s].tobytes() == per_row_conv(x[s], w, b).tobytes()
            assert layer.forward(x[s]).tobytes() == z[s].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["mse", "bce"])
    def test_loss_matches_np_mean(self, kind, dtype):
        r = np.random.default_rng(5)
        predicted = r.uniform(0.0, 1.0, size=(66, 2)).astype(dtype)
        target = (r.uniform(size=(66, 2)) > 0.5).astype(dtype)
        value, grad = nn.loss(kind, predicted, target)
        ref_value, ref_grad = mean_loss(kind, predicted, target)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_loss_path_backward_computes_no_first_input_gradient(self, case):
        net, batch, loss = case()
        first = net.layers[0]
        returned = []
        original = first.backward

        def spy(*args):
            returned.append(original(*args))
            return returned[-1]

        first.backward = spy
        x, target = batch(np.random.default_rng(6))
        net.backward(loss, net.forward(x), target)
        assert len(returned) == 1 and returned[0] is None
        assert net.grads.any()

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_adam_steps_match_the_accumulating_backward_bitwise(self, case):
        net, batch, loss = case()
        twin = net.clone()
        lean = [p.copy() for p, _ in adam_pairs(net, batch, loss, folded_adam_step)]
        old = [p.copy() for p, _ in adam_pairs(
            twin, batch, loss, folded_adam_step,
            backward=lambda *args: accumulating_backward(twin, *args))]
        assert len(lean) == len(old) == 25
        for a, b in zip(lean, old):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows_in,rows_out,f",
                             [(6, 3, 4), (33, 17, 8), (5, 3, 1), (21, 11, 10)])
    def test_conv_backward_matches_the_per_row_loops(self, rows_in, rows_out, f):
        rng = np.random.default_rng(7)
        net = Network([Conv1D(rows_in, rows_out, f, rng)])
        twin = net.clone()
        x, target = rng.normal(size=(rows_in, f)), rng.normal(size=(1, rows_out * f))
        value, _ = accumulating_backward(twin, "mse", twin.forward(x), target)
        assert net.backward("mse", net.forward(x), target) == value
        assert net.grads.tobytes() == twin.grads.tobytes()
        net.zero_grad()
        upstream = nn.loss("mse", net.forward(x), target.astype(np.float32))[1]
        with pytest.raises(NNError, match="layer 0: conv1d layer computes no input gradient"):
            net.backward_from(upstream, input_only=True)
        assert not net.grads.any()


class TestStackedInputs:
    def test_dense_rejects_a_vector(self):
        net = dense_network([3, 2], ["relu"], seed=0)
        with pytest.raises(NNError, match="layer 0: dense layer expects"):
            net.forward(np.ones(3))

    def test_conv_rejects_other_trailing_shapes(self):
        net = Network([Conv1D(6, 3, 4, np.random.default_rng(0))])
        for x in (np.ones((2, 5, 4)), np.ones((6, 3)), np.ones(4)):
            with pytest.raises(NNError, match="layer 0: conv1d layer expects"):
                net.forward(x)

    @pytest.mark.parametrize("case", [conv_dense_case, dense_case])
    def test_a_stack_runs_each_input_bitwise_as_alone(self, case):
        net, batch, _ = case()
        r = np.random.default_rng(8)
        xs = np.stack([batch(r)[0] for _ in range(3)])
        stacked = net.forward(xs)
        assert stacked.shape[0] == 3
        for x, out in zip(xs, stacked):
            assert net.forward(x).tobytes() == out.tobytes()

"""Minimal dense/conv1d neural network engine with reverse-mode gradients.

A Network owns one flat parameter vector, one flat gradient vector and the
flat Adam moments, all in the network's dtype: `DTYPE` (float32) unless a
caller asks for another, such as float64 for a finite-difference check.
Each layer's weights and gradients are reshaped views into the flat
vectors. Inputs, targets and upstream gradients are cast to the network's
dtype once, where they enter `forward`, `backward` and `backward_from`, so
a training step runs in one dtype from the input to the loss. Forward
passes cache their inputs (and Dense layers their activations) on the
layer objects. The one full backward pass between two Adam steps writes
the gradient views (it does not add to them), and the Adam step updates
the whole parameter vector at once and zeroes the gradients. A training
backward pass writes the weight gradients and stops at the first layer's;
a frozen pass writes none and returns the gradient with respect to the
network's input (a generator update reads it from the frozen
discriminator). A convolution computes no input gradient, so a network
trains it only as its first layer.

Both layers' forward passes take leading stack axes: a (S, ..., n) input
runs S inputs at once, each bitwise as it runs alone, for a network that
only predicts (ConvGeN's frozen generator); a backward follows a forward
of one unstacked input. Conv1D emits its output already flattened to one
row, the shape a following Dense layer takes.

Settings the source material leaves open: Adam (lr=1e-3, beta1=0.9,
beta2=0.999, eps=1e-8) with the bias correction folded into the step size,
Glorot-uniform init, BCE probabilities clamped to [1e-7, 1 - 1e-7].
"""

from __future__ import annotations

import copy
import math

import numpy as np

DTYPE = np.float32
BCE_EPS = 1e-7
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Steps between flushes of subnormal Adam first moments to zero (see step).
ADAM_FLUSH_EVERY = 64


class NNError(Exception):
    """Raised for shape/configuration/usage errors inside the engine."""


def activate(name: str, z: np.ndarray) -> np.ndarray:
    """`name` applied to the pre-activation z, which relu and softmax overwrite."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        # exp(-z) overflows to inf for z below about -88 in float32 (-709 in
        # float64), and 1 / (1 + inf) is then exactly the limit 0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    if name == "softsign":
        return z / (np.abs(z) + 1.0)
    if name == "softmax":
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return z
    if name == "identity":
        return z
    raise NNError(f"unknown activation {name!r}")


def row_windows(x: np.ndarray, kernel_rows: int) -> np.ndarray:
    """Read-only (..., rows_out, kernel_rows, f) view of x (..., rows_in, f)
    whose window j is x[..., j:j + kernel_rows, :]."""
    *lead, rows_in, f = x.shape
    return np.lib.stride_tricks.as_strided(
        x, (*lead, rows_in - kernel_rows + 1, kernel_rows, f),
        (*x.strides[:-1], *x.strides[-2:]), writeable=False,
    )


def activation_backward(name: str, a: np.ndarray, grad_a: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. pre-activation z, given post-activation a and dL/da."""
    if name == "relu":
        return grad_a * (a > 0.0)
    if name == "sigmoid":
        return grad_a * a * (1.0 - a)
    if name == "softsign":
        # a = z/(1+|z|)  =>  da/dz = (1-|a|)^2
        return grad_a * (1.0 - np.abs(a)) ** 2
    if name == "softmax":
        dot = (grad_a * a).sum(axis=-1, keepdims=True)
        return a * (grad_a - dot)
    if name == "identity":
        return grad_a
    raise NNError(f"unknown activation {name!r}")


class Dense:
    """Fully connected layer: (..., batch, n_in) -> (..., batch, n_out)."""

    def __init__(self, n_in: int, n_out: int, activation: str, rng: np.random.Generator) -> None:
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.w = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.activation = activation
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None
        self._a = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or x.shape[-1] != self.w.shape[0]:
            raise NNError(
                f"dense layer expects (..., batch, {self.w.shape[0]}), got {x.shape}"
            )
        self._x = x
        z = x @ self.w
        z += self.b
        self._a = activate(self.activation, z)
        return self._a

    def backward(self, grad_out: np.ndarray, input_only: bool,
                 input_grad: bool) -> np.ndarray | None:
        """dL/d(input), or None without input_grad; also writes the weight
        gradients unless input_only."""
        if self._x is None:
            raise NNError("backward before forward on dense layer")
        gz = activation_backward(self.activation, self._a, grad_out)
        if not input_only:
            np.matmul(self._x.T, gz, out=self.gw)
            np.add.reduce(gz, axis=0, out=self.gb)
        return gz @ self.w.T if input_grad else None

    def params(self):
        return [("w", self.w, self.gw), ("b", self.b, self.gb)]


class Conv1D:
    """Row-reducing 1-D convolution: (..., rows_in, features) -> (..., 1, rows_out * features).

    One depthwise kernel per feature column slides along the row axis with
    stride 1, so rows_out = rows_in - kernel_rows + 1; output row j is the
    sum over kernel rows r of x[j + r] * w[r], added up in order of r, plus
    b, with no activation. Used to compress a neighborhood batch of rows_in
    samples down to rows_out, which are emitted flattened to one row.
    """

    def __init__(self, rows_in: int, rows_out: int, features: int,
                 rng: np.random.Generator) -> None:
        if not 1 <= rows_out < rows_in:
            raise NNError(f"conv1d needs 1 <= rows_out < rows_in, got {rows_out}/{rows_in}")
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.features = features
        self.kernel_rows = rows_in - rows_out + 1
        limit = np.sqrt(6.0 / (self.kernel_rows + 1))
        self.w = rng.uniform(-limit, limit, size=(self.kernel_rows, features))
        self.b = np.zeros(features)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-2:] != (self.rows_in, self.features):
            raise NNError(
                f"conv1d layer expects (..., {self.rows_in}, {self.features}), got {x.shape}"
            )
        self._x = x
        z = np.multiply(row_windows(x, self.kernel_rows), self.w).sum(axis=-2)
        z += self.b
        return z.reshape(*x.shape[:-2], 1, -1)

    def backward(self, grad_out: np.ndarray, input_only: bool, input_grad: bool) -> None:
        """Writes the weight gradients; the input gradient is never computed,
        so asking for it is an error (a frozen pass always asks)."""
        if self._x is None:
            raise NNError("backward before forward on conv1d layer")
        if input_grad:
            raise NNError("conv1d layer computes no input gradient")
        gz = grad_out.reshape(self.rows_out, self.features)
        # sum over output rows j, in order, of gz[j] * x[j:j + kernel_rows]
        windows = row_windows(self._x, self.kernel_rows)
        np.add.reduce(windows * gz[:, None, :], axis=0, out=self.gw)
        np.add.reduce(gz, axis=0, out=self.gb)

    def params(self):
        return [("w", self.w, self.gw), ("b", self.b, self.gb)]


def loss(kind: str, predicted: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, dvalue/dpredicted) of the mean `kind` loss ("mse" or "bce")."""
    if predicted.shape != target.shape:
        raise NNError(f"loss shape mismatch: {predicted.shape} vs {target.shape}")
    # np.add.reduce(v, axis=None) / n is np.mean(v), without its wrapper
    n = predicted.size
    if kind == "mse":
        diff = predicted - target
        return float(np.add.reduce(diff ** 2, axis=None) / n), 2.0 * diff / n
    if kind == "bce":
        p = np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS)
        terms = target * np.log(p) + (1.0 - target) * np.log(1.0 - p)
        return float(-(np.add.reduce(terms, axis=None) / n)), (p - target) / (p * (1.0 - p)) / n
    raise NNError(f"unknown loss {kind!r}")


class Network:
    """Ordered layer stack with cached forward, backward, and Adam updates."""

    def __init__(self, layers, dtype=DTYPE) -> None:
        self.layers = list(layers)
        slots = [(layer, name, p) for layer in self.layers for name, p, _ in layer.params()]
        size = sum(p.size for _, _, p in slots)
        self.params = np.empty(size, dtype)
        self.grads = np.zeros(size, dtype)
        start = 0
        for layer, name, p in slots:
            end = start + p.size
            self.params[start:end] = p.reshape(-1)
            # a parameter `name` has its gradient in the attribute "g" + name
            setattr(layer, name, self.params[start:end].reshape(p.shape))
            setattr(layer, "g" + name, self.grads[start:end].reshape(p.shape))
            start = end
        self._adam_t = 0
        self._adam_m = np.zeros(size, dtype)
        self._adam_v = np.zeros(size, dtype)
        self._has_grads = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.params.dtype)
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except NNError as exc:
                raise NNError(f"layer {i}: {exc}") from None
        if not np.all(np.isfinite(x)):
            raise NNError("non-finite values in forward output")
        return x

    def backward(self, kind: str, predicted: np.ndarray, target: np.ndarray) -> float:
        """Write dL/dparam into the gradient vector; returns the loss value."""
        target = np.asarray(target, dtype=self.params.dtype)
        value, grad = loss(kind, predicted, target)
        if not np.isfinite(value):
            raise NNError(f"non-finite {kind} loss")
        self.backward_from(grad)
        return value

    def backward_from(self, grad_out: np.ndarray, input_only: bool = False) -> np.ndarray | None:
        """Backpropagate an upstream gradient.

        A training pass writes the weight gradients, not adds them, so one
        full pass goes between two steps; its first layer computes no input
        gradient and None is returned. With input_only the weight gradients
        are neither computed nor written, so a frozen network needs no
        zero_grad afterwards, and dL/d(input) is returned.
        """
        grad_out = np.asarray(grad_out, dtype=self.params.dtype)
        for i in reversed(range(len(self.layers))):
            try:
                grad_out = self.layers[i].backward(grad_out, input_only, input_only or i > 0)
            except NNError as exc:
                raise NNError(f"layer {i}: {exc}") from None
        self._has_grads = self._has_grads or not input_only
        return grad_out

    def zero_grad(self) -> None:
        self.grads[...] = 0.0
        self._has_grads = False

    def step(self) -> None:
        """One Adam update from the accumulated gradients; zeroes them after.

        The bias correction is folded into the step size and epsilon (Kingma
        & Ba, Adam, section 2): p -= lr_t * m / (sqrt(v) + eps_t) with
        lr_t = ADAM_LR * sqrt(1 - beta2^t) / (1 - beta1^t) and
        eps_t = eps * sqrt(1 - beta2^t), computed in place in that operand
        order with the spent gradient vector as the second scratch buffer.
        Every ADAM_FLUSH_EVERY steps, first moments below the dtype's smallest
        normal number are set to zero beforehand.
        """
        if not self._has_grads:
            raise NNError("optimizer step before backward")
        self._adam_t += 1
        t = self._adam_t
        root = math.sqrt(1.0 - ADAM_BETA2 ** t)
        lr_t = ADAM_LR * root / (1.0 - ADAM_BETA1 ** t)
        g, m, v, s = self.grads, self._adam_m, self._adam_v, np.empty_like(self.grads)
        if t % ADAM_FLUSH_EVERY == 0:
            # A dead ReLU unit gets exactly zero gradient, so its m decays by
            # beta1 per step into the float32 subnormal range, where arithmetic
            # runs several times slower; a zeroed m then stays zero.
            m[np.abs(m) < np.finfo(m.dtype).tiny] = 0.0
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=s)
        v += np.multiply(s, g, out=s)
        np.sqrt(v, out=s)
        s += ADAM_EPS * root
        np.multiply(lr_t, m, out=g)
        self.params -= np.divide(g, s, out=g)
        self.zero_grad()

    def clone(self) -> "Network":
        """A network with copies of the layers, in the same dtype, and a fresh optimizer."""
        return Network(copy.deepcopy(self.layers), self.params.dtype)


def dense_network(sizes, activations, seed: int) -> Network:
    """Build a plain MLP from layer sizes [n0, n1, ...] and activations."""
    if len(activations) != len(sizes) - 1:
        raise NNError("need one activation per layer transition")
    rng = np.random.default_rng(seed)
    layers = [
        Dense(sizes[i], sizes[i + 1], activations[i], rng)
        for i in range(len(sizes) - 1)
    ]
    return Network(layers)

"""Minimal dense/conv1d neural network engine with reverse-mode gradients.

All arithmetic is float64. Networks are small and fixed, so clarity and
reproducibility win over speed: forward passes cache activations on the
layer objects, backward fills explicit gradient slots, and an Adam step
consumes them.

Defaults the source material leaves open: Adam (beta1=0.9, beta2=0.999,
lr=1e-3), Glorot-uniform init, BCE probabilities clamped to
[1e-7, 1 - 1e-7].
"""

from __future__ import annotations

import numpy as np

BCE_EPS = 1e-7


class NNError(Exception):
    """Raised for shape/configuration/usage errors inside the engine."""


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "softsign":
        return z / (np.abs(z) + 1.0)
    if name == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if name == "identity":
        return z
    raise NNError(f"unknown activation {name!r}")


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
        dot = (grad_a * a).sum(axis=1, keepdims=True)
        return a * (grad_a - dot)
    if name == "identity":
        return grad_a
    raise NNError(f"unknown activation {name!r}")


class Dense:
    """Fully connected layer: (batch, n_in) -> (batch, n_out)."""

    kind = "dense"

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
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise NNError(
                f"dense layer expects (batch, {self.w.shape[0]}), got {x.shape}"
            )
        self._x = x
        self._a = activate(self.activation, x @ self.w + self.b)
        return self._a

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise NNError("backward before forward on dense layer")
        gz = activation_backward(self.activation, self._a, grad_out)
        self.gw += self._x.T @ gz
        self.gb += gz.sum(axis=0)
        return gz @ self.w.T

    def params(self):
        return [("w", self.w, self.gw), ("b", self.b, self.gb)]


class Conv1D:
    """Row-reducing 1-D convolution over a (rows_in, features) matrix.

    One depthwise kernel per feature column slides along the row axis with
    stride 1, so rows_out = rows_in - kernel_rows + 1. Used to compress a
    neighborhood batch of rows_in samples down to rows_out.
    """

    kind = "conv1d"

    def __init__(self, rows_in: int, rows_out: int, features: int, activation: str,
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
        self.activation = activation
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None
        self._a = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.rows_in, self.features):
            raise NNError(
                f"conv1d layer expects {(self.rows_in, self.features)}, got {x.shape}"
            )
        self._x = x
        z = np.empty((self.rows_out, self.features))
        for j in range(self.rows_out):
            z[j] = (x[j:j + self.kernel_rows] * self.w).sum(axis=0) + self.b
        self._a = activate(self.activation, z)
        return self._a

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise NNError("backward before forward on conv1d layer")
        gz = activation_backward(self.activation, self._a, grad_out)
        gx = np.zeros_like(self._x)
        for j in range(self.rows_out):
            self.gw += gz[j] * self._x[j:j + self.kernel_rows]
            gx[j:j + self.kernel_rows] += gz[j] * self.w
        self.gb += gz.sum(axis=0)
        return gx

    def params(self):
        return [("w", self.w, self.gw), ("b", self.b, self.gb)]


class Flatten:
    """Reshape (rows, cols) -> (1, rows*cols); parameter-free."""

    kind = "flatten"

    def __init__(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(1, -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise NNError("backward before forward on flatten layer")
        return grad_out.reshape(self._shape)

    def params(self):
        return []


def loss_value(kind: str, predicted: np.ndarray, target: np.ndarray) -> float:
    if predicted.shape != target.shape:
        raise NNError(f"loss shape mismatch: {predicted.shape} vs {target.shape}")
    if kind == "mse":
        return float(np.mean((predicted - target) ** 2))
    if kind == "bce":
        p = np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS)
        return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))
    raise NNError(f"unknown loss {kind!r}")


def loss_grad(kind: str, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
    if kind == "mse":
        return 2.0 * (predicted - target) / predicted.size
    if kind == "bce":
        p = np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS)
        return (p - target) / (p * (1.0 - p)) / predicted.size
    raise NNError(f"unknown loss {kind!r}")


class Network:
    """Ordered layer stack with cached forward, backward, and Adam updates."""

    def __init__(self, layers, beta1: float = 0.9, beta2: float = 0.999) -> None:
        self.layers = list(layers)
        self.beta1 = beta1
        self.beta2 = beta2
        self._adam_t = 0
        self._adam_m = [np.zeros_like(p) for _, p, _ in self._all_params()]
        self._adam_v = [np.zeros_like(p) for _, p, _ in self._all_params()]
        self._has_grads = False

    def _all_params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except NNError as exc:
                raise NNError(f"layer {i}: {exc}") from None
        if not np.all(np.isfinite(x)):
            raise NNError("non-finite values in forward output")
        return x

    def backward(self, loss: str, predicted: np.ndarray, target: np.ndarray) -> float:
        """Fill gradient slots for dL/dparam; returns the loss value."""
        value = loss_value(loss, predicted, target)
        if not np.isfinite(value):
            raise NNError(f"non-finite {loss} loss")
        self.backward_from(loss_grad(loss, predicted, target))
        return value

    def backward_from(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate an upstream gradient; returns dL/d(input)."""
        for i in reversed(range(len(self.layers))):
            try:
                grad_out = self.layers[i].backward(grad_out)
            except NNError as exc:
                raise NNError(f"layer {i}: {exc}") from None
        self._has_grads = True
        return grad_out

    def zero_grad(self) -> None:
        for layer in self.layers:
            for _, _, g in layer.params():
                g[...] = 0.0
        self._has_grads = False

    def step(self, lr: float = 1e-3, eps: float = 1e-8) -> None:
        """One Adam update from the accumulated gradients; zeroes them after."""
        if not self._has_grads:
            raise NNError("optimizer step before backward")
        self._adam_t += 1
        t = self._adam_t
        for i, (_, p, g) in enumerate(self._all_params()):
            m = self._adam_m[i]
            v = self._adam_v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        self.zero_grad()

    def reset_optimizer(self) -> None:
        self._adam_t = 0
        for m, v in zip(self._adam_m, self._adam_v):
            m[...] = 0.0
            v[...] = 0.0

    def clone(self) -> "Network":
        import copy

        return copy.deepcopy(self)


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


def grad_check(net: Network, loss: str, x: np.ndarray, target: np.ndarray,
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if epsilon <= 0:
        raise NNError("epsilon must be positive")
    net.zero_grad()
    pred = net.forward(x)
    net.backward(loss, pred, target)
    analytic = [g.copy() for _, _, g in net._all_params()]
    net.zero_grad()

    worst = 0.0
    for (name, p, _), ga in zip(net._all_params(), analytic):
        flat_p = p.reshape(-1)
        flat_g = ga.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + epsilon
            up = loss_value(loss, net.forward(x), target)
            flat_p[idx] = orig - epsilon
            down = loss_value(loss, net.forward(x), target)
            flat_p[idx] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(flat_g[idx]), abs(numeric), 1e-12)
            worst = max(worst, abs(flat_g[idx] - numeric) / denom)
    return worst

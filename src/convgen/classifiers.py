"""Downstream classifiers scored in the benchmark: kNN, logistic regression,
ConvGeN's retrained discriminator (DoC), and an adapter for out-of-band
predictions.

All classifiers expose fit(features, labels) / predict(features) with
labels in {0, 1}, 1 = minority; kNN, logistic regression and DoC raise
DataError unless the training features are 2-D, with one 1-D label per
row, and the labels are exactly 0 and 1, both present; their predict
raises DataError unless the features are 2-D with the fitted width.
DoC trains in fit like the others: it retrains a copy of a fitted ConvGeN
model's discriminator on the rows it is given. Predictions are
deterministic; kNN breaks even-vote ties toward the majority class
(label 0).
"""

from __future__ import annotations

import numpy as np

from .data import DataError, open_text, require_int
from .neighborhood import ranked_neighbors


def _training_set(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """(float64 features, labels) of a training set: 2-D features, one
    label per row, and the labels exactly {0, 1}, both present."""
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise DataError(
            f"training needs 2-D features and one label per row; got shapes {x.shape}, {y.shape}"
        )
    ones, zeros = np.count_nonzero(y == 1), np.count_nonzero(y == 0)
    if not (ones and zeros and ones + zeros == len(y)):
        raise DataError(f"training labels must be 0 and 1, both present; got {np.unique(y)[:5]}")
    return x, y


def _test_set(features, width: int) -> np.ndarray:
    """float64 features of a prediction: 2-D, `width` columns as fitted."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise DataError(f"features must be (rows, {width}), got shape {x.shape}")
    return x


class KNNClassifier:
    """Exact Euclidean k-nearest-neighbors with uniform majority vote, k = 5."""

    def __init__(self, k: int = 5) -> None:
        self.k = require_int("k", k, 1)
        self._x = None
        self._y = None

    def fit(self, features, labels):
        self._x, y = _training_set(features, labels)
        self._y = y.astype(int)
        return self

    def predict(self, features) -> np.ndarray:
        if self._x is None:
            raise DataError("predict before fit")
        # ranked_neighbors rejects a query matrix of another width
        ranked = ranked_neighbors(features, self.k, self._x)
        votes = self._y[ranked].sum(axis=1)
        # strict majority of minority votes required; ties go to class 0
        return (2 * votes > ranked.shape[1]).astype(int)


class LogisticRegressionClassifier:
    """L2-regularized logistic regression solved by damped Newton.

    Minimises the mean cross-entropy -mean(y*log(p+eps) + (1-y)*log(1-p+eps)),
    eps = EPS, plus 0.5 * L2 * ||w||^2 (the bias is not regularized) over
    the f + 1 unknowns (w, b), starting from zero. Each of at most ITERATIONS
    iterations appends the loss at the current point to `loss_trace` and stops
    once the largest absolute entry of the exact gradient is at most TOL.
    Otherwise it takes the Newton step of the eps-free Hessian,
    A^T diag(p(1-p)) A / n plus L2 on the weights (A is the features with a
    column of ones, each column scaled to a largest |entry| of 1 while
    solving), and halves it until the Armijo condition holds; if
    2**-MAX_HALVINGS of the step still fails it, the fit stops at the current
    point. So the trace never increases. The Hessian's eigenvalues are floored
    at HESSIAN_FLOOR: when every prediction saturates, p(1-p) is 0 and the
    bias row vanishes, and with fewer rows than unknowns at wide feature
    scales rounding leaves the matrix singular; the step stays finite in both.
    """

    ITERATIONS = 50
    L2 = 1e-4
    TOL = 1e-10
    EPS = 1e-12
    ARMIJO = 1e-4
    MAX_HALVINGS = 40
    HESSIAN_FLOOR = 1e-12

    def __init__(self) -> None:
        self.weights = None
        self.bias = 0.0
        self.loss_trace: list[float] = []

    @staticmethod
    def _sigmoid(z):
        """1 / (1 + exp(-z)), computed in place in `z`.

        exp overflows to inf for z below about -709, and 1 / (1 + inf) is
        then exactly the limit 0, so callers run it under
        np.errstate(over="ignore"), entered once outside any loop.
        """
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        return np.divide(1.0, z, out=z)

    def fit(self, features, labels):
        x, y = _training_set(features, labels)
        y = y.astype(np.float64)
        n, f = x.shape
        # Feature-major: one contiguous row of n values per unknown, so the
        # products and broadcasts below run along long rows.
        design = np.empty((f + 1, n))
        design[:f] = x.T
        design[f] = 1.0
        # Newton runs on rows scaled to a largest |entry| of 1, so that the
        # Hessian's eigenvalues do not span the squared ratio of the feature
        # scales. theta holds scale * (w, b): the regularizer divides by
        # scale^2, and the gradient in (w, b) is scale * the gradient in theta.
        scale = np.abs(design).max(axis=1)
        scale[scale == 0.0] = 1.0
        design /= scale[:, None]
        reg = np.append(np.full(f, self.L2), 0.0) / scale / scale
        # (1-y) + (2y-1)*p is p where y = 1 and 1-p where y = 0: the
        # probability given to the true label, one log per row.
        offset, flip = 1.0 - y, 2.0 * y - 1.0

        def evaluate(theta):
            p = self._sigmoid(theta @ design)
            q = flip * p + offset + self.EPS
            loss = float(-np.log(q).mean() + 0.5 * np.dot(reg * theta, theta))
            return loss, p, q

        theta = np.zeros(f + 1)
        self.loss_trace = []
        with np.errstate(over="ignore"):
            loss, p, q = evaluate(theta)
            for _ in range(self.ITERATIONS):
                self.loss_trace.append(loss)
                curvature = p * (1.0 - p)
                # d/dz of -log(q) is -(2y-1) * p(1-p) / q, eps included
                grad = design @ (-flip * curvature / q) / n + reg * theta
                if np.max(np.abs(grad * scale)) <= self.TOL:
                    break
                hessian = (design * curvature) @ design.T / n + np.diag(reg)
                values, vectors = np.linalg.eigh(hessian)
                step = -vectors @ ((vectors.T @ grad) / np.maximum(values, self.HESSIAN_FLOOR))
                slope = float(grad @ step)
                t = 1.0
                for _ in range(self.MAX_HALVINGS + 1):
                    trial = theta + t * step
                    new_loss, new_p, new_q = evaluate(trial)
                    if new_loss <= loss + self.ARMIJO * t * slope:
                        break
                    t *= 0.5
                else:
                    break
                theta, loss, p, q = trial, new_loss, new_p, new_q
        theta /= scale
        self.weights = theta[:f]
        self.bias = float(theta[f])
        return self

    def predict(self, features) -> np.ndarray:
        if self.weights is None:
            raise DataError("predict before fit")
        x = _test_set(features, len(self.weights))
        with np.errstate(over="ignore"):
            p = self._sigmoid(x @ self.weights + self.bias)
        # p == 0.5 exactly (e.g. zero weights) resolves to the majority class
        return (p > 0.5).astype(int)


class DiscriminatorClassifier:
    """A fitted ConvGeN model's discriminator, retrained as a 2-class predictor."""

    def __init__(self, model) -> None:
        self.model = model
        self.network = None

    def fit(self, features, labels):
        self.network = self.model.retrain_doc(*_training_set(features, labels))
        return self

    def predict(self, features) -> np.ndarray:
        if self.network is None:
            raise DataError("predict before fit")
        probs = self.network.forward(_test_set(features, self.model.dataset.n_features))
        # output node 0 is the minority node
        return (probs[:, 0] > probs[:, 1]).astype(int)


class ExternalPredictions:
    """Scores label files produced by an external tool.

    The file must hold one 0/1 label per line, aligned with the test-fold
    row order the harness exports.
    """

    def __init__(self, path) -> None:
        self.path = path

    def fit(self, features, labels):
        return self

    def predict(self, features) -> np.ndarray:
        with open_text(self.path) as fh:
            labels = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
        for lineno, label in labels:
            if label not in ("0", "1"):
                raise DataError(f"{self.path}:{lineno}: label {label!r} is not 0/1")
        if len(labels) != len(features):
            raise DataError(
                f"{self.path}: {len(labels)} labels for {len(features)} test rows"
            )
        return np.array([int(label) for _, label in labels], dtype=int)

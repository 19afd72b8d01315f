"""Downstream classifiers scored in the benchmark: kNN, logistic regression
and ConvGeN's retrained discriminator (DoC).

All classifiers expose fit(features, labels) / predict(features) with
labels in {0, 1}, 1 = minority. kNN, logistic regression and DoC check
their training set with `data.labelled_set` (2-D features, one 1-D label
per row, labels exactly 0 and 1, both present) and their prediction
features with `data.feature_matrix` (2-D, the fitted width).
DoC trains in fit like the others: it retrains a copy of a fitted ConvGeN
model's discriminator on the rows it is given. Predictions are
deterministic; kNN breaks even-vote ties toward the majority class
(label 0).
"""

from __future__ import annotations

import numpy as np

from .data import DataError, feature_matrix, labelled_set, require_int
from .neighborhood import ranked_neighbors


class KNNClassifier:
    """Exact Euclidean k-nearest-neighbors with uniform majority vote, k = 5."""

    def __init__(self, k: int = 5) -> None:
        self.k = require_int("k", k, 1)
        self._x = None
        self._y = None

    def fit(self, features, labels):
        self._x, y = labelled_set(features, labels, "training")
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
        x, y = labelled_set(features, labels, "training")
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
        x = feature_matrix("features", features, len(self.weights))
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
        self.network = self.model.retrain_doc(features, labels)
        return self

    def predict(self, features) -> np.ndarray:
        if self.network is None:
            raise DataError("predict before fit")
        x = feature_matrix("features", features, self.model.dataset.n_features)
        probs = self.network.forward(x)
        # output node 0 is the minority node
        return (probs[:, 0] > probs[:, 1]).astype(int)


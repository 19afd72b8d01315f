"""Downstream classifiers scored in the benchmark: kNN, logistic regression,
ConvGeN's retrained discriminator (DoC), and an adapter for out-of-band
predictions.

All classifiers expose fit(features, labels) / predict(features) with
labels in {0, 1}, 1 = minority; kNN, logistic regression and DoC raise
DataError unless the training features are 2-D, with one 1-D label per
row, and the labels are exactly 0 and 1, both present.
DoC trains in fit like the others: it retrains a copy of a fitted ConvGeN
model's discriminator on the rows it is given. Predictions are
deterministic; kNN breaks even-vote ties toward the majority class
(label 0).
"""

from __future__ import annotations

import numpy as np

from .data import DataError, require_int
from .neighborhood import ranked_neighbors


def _training_set(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """(float64 features, labels) of a training set: 2-D features, one
    label per row, and the labels exactly {0, 1}, both present."""
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise DataError(
            f"training needs 2-D features and one label per row; got shapes {x.shape}, {y.shape}"
        )
    present = np.unique(y)
    if not np.array_equal(present, (0, 1)):
        raise DataError(f"training labels must be 0 and 1, both present; got {present[:5]}")
    return x, y


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
    """Full-batch gradient descent on L2-regularized cross-entropy.

    Fixed, reproducible settings: lr = 0.1, 2000 iterations, L2 = 1e-4,
    early stop once the loss improves by less than 1e-9.
    """

    def __init__(self, lr: float = 0.1, iterations: int = 2000,
                 l2: float = 1e-4, tol: float = 1e-9) -> None:
        self.lr = lr
        self.iterations = iterations
        self.l2 = l2
        self.tol = tol
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
        self.weights = np.zeros(f)
        self.bias = 0.0
        self.loss_trace = []
        # The cross-entropy y*log(p+eps) + (1-y)*log(1-p+eps) takes one log per
        # row: the term that y zeroes is +-0.0 and adding it changes nothing.
        # (1-y) + (2y-1)*p is exactly p where y = 1 and exactly 1-p where y = 0.
        offset = 1.0 - y
        flip = 2.0 * y - 1.0
        eps = 1e-12
        p, q, err = np.empty(n), np.empty(n), np.empty(n)
        prev = np.inf
        with np.errstate(over="ignore"):
            for _ in range(self.iterations):
                np.matmul(x, self.weights, out=p)
                p += self.bias
                self._sigmoid(p)
                np.multiply(flip, p, out=q)
                q += offset
                q += eps
                np.log(q, out=q)
                # np.add.reduce(v) / n is np.mean(v) for float64, without its wrapper
                loss = float(
                    -(np.add.reduce(q) / n)
                    + 0.5 * self.l2 * np.dot(self.weights, self.weights)
                )
                self.loss_trace.append(loss)
                if prev - loss < self.tol:
                    break
                prev = loss
                np.subtract(p, y, out=err)
                grad = x.T @ err
                grad /= n
                grad += self.l2 * self.weights
                self.weights -= self.lr * grad
                self.bias -= self.lr * float(np.add.reduce(err) / n)
        return self

    def predict(self, features) -> np.ndarray:
        if self.weights is None:
            raise DataError("predict before fit")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.weights):
            raise DataError(f"features must be (rows, {len(self.weights)}), got shape {x.shape}")
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
        x = np.asarray(features, dtype=np.float64)
        probs = self.network.forward(x)
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
        with open(self.path, encoding="utf-8") as fh:
            labels = [int(line.strip()) for line in fh if line.strip()]
        if len(labels) != len(features):
            raise DataError(
                f"{self.path}: {len(labels)} labels for {len(features)} test rows"
            )
        arr = np.asarray(labels, dtype=int)
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{self.path}: labels must be 0/1")
        return arr

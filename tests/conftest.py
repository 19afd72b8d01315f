import copy

import numpy as np
import pytest

from convgen.data import Dataset
from convgen.nn import Network, NNError, loss
from convgen.rng import MASK64, splitmix64


def two_blob_dataset(seed: int = 7, n_majority: int = 60, n_minority: int = 12,
                     separation: float = 2.0) -> Dataset:
    """2-D Gaussian blobs: majority at the origin, minority offset."""
    rng = np.random.default_rng(seed)
    majority = rng.normal(0.0, 1.0, size=(n_majority, 2))
    minority = rng.normal(separation, 0.6, size=(n_minority, 2))
    features = np.vstack([majority, minority])
    labels = np.array([0] * n_majority + [1] * n_minority)
    return Dataset(features, labels, "toy-blobs")


def reference_shuffle(items: list, seed: int) -> int:
    """The scalar Fisher-Yates loop that `rng.shuffle` must match: one
    splitmix64 draw per index, a draw in the incomplete top block rejected
    and redrawn; returns the final state."""
    state = seed & MASK64
    for i in range(len(items) - 1, 0, -1):
        u = limit = (MASK64 + 1) - ((MASK64 + 1) % (i + 1))
        while u >= limit:
            state, u = splitmix64(state)
        j = u % (i + 1)
        items[i], items[j] = items[j], items[i]
    return state


def grad_check(net: Network, kind: str, x: np.ndarray, target: np.ndarray,
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Both are taken on a float64 copy of `net`, which is left untouched.
    """
    if epsilon <= 0:
        raise NNError("epsilon must be positive")
    net = Network(copy.deepcopy(net.layers), np.float64)
    pred = net.forward(x)
    net.backward(kind, pred, target)
    analytic = net.grads

    worst = 0.0
    p = net.params
    for idx in range(p.size):
        orig = p[idx]
        p[idx] = orig + epsilon
        up = loss(kind, net.forward(x), target)[0]
        p[idx] = orig - epsilon
        down = loss(kind, net.forward(x), target)[0]
        p[idx] = orig
        numeric = (up - down) / (2.0 * epsilon)
        denom = max(abs(analytic[idx]), abs(numeric), 1e-12)
        worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst


@pytest.fixture
def toy_dataset() -> Dataset:
    return two_blob_dataset()


@pytest.fixture(scope="session")
def abalone_path() -> str:
    return "datasets/abalone9-18.csv"


@pytest.fixture(scope="session")
def yeast_path() -> str:
    return "datasets/yeast6.csv"

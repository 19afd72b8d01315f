"""Comparison oversamplers: Repeater, a small vanilla GAN and two-point
convex interpolation.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .data import DataError, require_int
from .neighborhood import ranked_neighbors


def repeater_sample(minority: np.ndarray, n_synthetic: int) -> np.ndarray:
    """Sequential cyclic copies of minority rows until n_synthetic are emitted."""
    if len(minority) == 0:
        raise DataError("repeater needs a non-empty minority class")
    idx = np.arange(require_int("n_synthetic", n_synthetic, 0)) % len(minority)
    return minority[idx].copy()


def interpolation_sample(minority: np.ndarray, k: int, n_synthetic: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic rows on segments between minority points and their neighbors.

    Each row is x + u * (x_nn - x) with u ~ U[0, 1] and x_nn one of x's k
    nearest minority neighbors (self excluded); x cycles through the
    minority rows in order. All neighbor picks are drawn in one call, then
    all u in another. Returns (samples, pairs) where pairs[i] = (index of x,
    index of x_nn) for auditability.
    """
    if len(minority) < 2:
        raise DataError("interpolation needs at least two minority rows")
    k = min(require_int("k", k, 1), len(minority) - 1)
    n_synthetic = require_int("n_synthetic", n_synthetic, 0)
    neighbor_lists = ranked_neighbors(minority, k + 1)[:, 1:]

    a = np.arange(n_synthetic) % len(minority)
    b = neighbor_lists[a, rng.integers(k, size=n_synthetic)]
    u = rng.uniform(size=(n_synthetic, 1))
    samples = minority[a] + u * (minority[b] - minority[a])
    return samples, np.column_stack([a, b])


class Gan:
    """Minority-only vanilla GAN baseline.

    With f features: noise size 16f; generator hidden layers 32f, 4f, 2f
    (ReLU) with a softsign output of width f; discriminator hidden layers
    40f, 20f, 10f (ReLU) with a sigmoid output. Training settings the
    source leaves open are fixed: Adam at nn.ADAM_LR, batches of
    min(32, |minority|) rows, uniform(-1, 1) noise, one discriminator step
    per generator step. Training divides the rows by alpha = 1.1 * largest
    |x| (1 for all-zero rows), so softsign covers their range at any scale;
    generated rows are multiplied back by it.
    """

    def __init__(self, n_features: int, epochs: int = 300, seed: int = 0) -> None:
        f = n_features
        self.epochs = epochs
        self.seed = seed
        self.noise_size = nu = 16 * f
        self.generator = nn.dense_network(
            [nu, 2 * nu, 4 * f, 2 * f, f],
            ["relu", "relu", "relu", "softsign"],
            seed=seed,
        )
        self.discriminator = nn.dense_network(
            [f, 40 * f, 20 * f, 10 * f, 1],
            ["relu", "relu", "relu", "sigmoid"],
            seed=seed + 1,
        )
        self.alpha: float | None = None
        self.loss_history: list[tuple[float, float]] = []

    def train(self, minority: np.ndarray) -> "Gan":
        if len(minority) < 2:
            raise DataError("GAN training needs at least two minority rows")
        self.alpha = 1.1 * float(np.abs(minority).max(initial=0.0)) or 1.0
        scaled = minority / self.alpha
        rng = np.random.default_rng(self.seed)
        batch = min(32, len(scaled))
        self.loss_history = []

        for _ in range(self.epochs):
            order = rng.permutation(len(scaled))
            for start in range(0, len(scaled), batch):
                real = scaled[order[start:start + batch]]
                m = len(real)
                noise = rng.uniform(-1.0, 1.0, size=(m, self.noise_size))
                fake = self.generator.forward(noise)

                # discriminator step: real -> 1, fake -> 0
                d_in = np.vstack([real, fake])
                d_target = np.vstack([np.ones((m, 1)), np.zeros((m, 1))])
                d_pred = self.discriminator.forward(d_in)
                d_loss = self.discriminator.backward("bce", d_pred, d_target)
                self.discriminator.step()

                # generator step: make fakes look real through a frozen D
                noise = rng.uniform(-1.0, 1.0, size=(m, self.noise_size))
                fake = self.generator.forward(noise)
                g_pred = self.discriminator.forward(fake)
                g_loss, grad = nn.loss("bce", g_pred, np.ones((m, 1)))
                d_input_grad = self.discriminator.backward_from(grad, input_only=True)
                self.generator.backward_from(d_input_grad)
                self.generator.step()

                self.loss_history.append((d_loss, g_loss))
        return self

    def generate(self, n_synthetic: int) -> np.ndarray:
        if self.alpha is None:
            raise DataError("generate before train")
        n_synthetic = require_int("n_synthetic", n_synthetic, 0)
        rng = np.random.default_rng(self.seed + 2)
        noise = rng.uniform(-1.0, 1.0, size=(n_synthetic, self.noise_size))
        # widen before multiplying: |row| <= 1 then gives |row * alpha| <= alpha in
        # float64, which a product rounded in float32 can exceed
        return self.generator.forward(noise).astype(np.float64) * self.alpha


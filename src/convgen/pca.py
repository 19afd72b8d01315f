"""Two-component PCA from a dense eigendecomposition of the covariance.

Axes are fit on the real data only (mean-centered, covariance over rows);
synthetic rows are projected onto the same axes so both clouds share a
coordinate system. The f x f covariance is tiny, so `np.linalg.eigh` is
exact and cheap; tests cross-check it against an SVD of the centered data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, feature_matrix


@dataclass(frozen=True)
class Projection:
    real: np.ndarray        # (n_real, 2)
    synthetic: np.ndarray   # (n_syn, 2)
    axes: np.ndarray        # (f, 2) orthonormal columns
    eigenvalues: np.ndarray       # (2,)
    explained_fraction: np.ndarray  # (2,)


def pca_project(real: np.ndarray, synthetic: np.ndarray) -> Projection:
    """Project real (n, f) and synthetic (m, f) rows, or no synthetic rows
    when `synthetic` is empty, onto the real data's top-2 axes."""
    real = feature_matrix("real rows", real)
    if not np.size(synthetic):
        synthetic = np.empty((0, real.shape[1]))
    synthetic = feature_matrix("synthetic rows", synthetic, real.shape[1])
    if real.shape[1] < 2:
        raise DataError("PCA needs at least 2 features")
    if len(real) + len(synthetic) < 2:
        raise DataError("PCA needs at least 2 rows")
    mean = real.mean(axis=0)
    centered = real - mean
    cov = centered.T @ centered / max(1, len(real) - 1)
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DataError("zero-variance data has no principal axes")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)  # ascending order
    axes = eigenvectors[:, ::-1][:, :2]
    # the covariance is PSD; clamp round-off below zero on rank-deficient data
    values = np.maximum(eigenvalues[::-1][:2], 0.0)
    return Projection(
        real=centered @ axes,
        synthetic=(synthetic - mean) @ axes,
        axes=axes,
        eigenvalues=values,
        explained_fraction=values / total,
    )

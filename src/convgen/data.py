"""Dataset loading, class partitioning and stratified folds.

In-memory label convention is fixed: 1 = minority, 0 = majority, whatever
the on-disk encoding was. Features stay raw.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, derive_seed


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset shapes."""


def require_int(key: str, value, minimum: int) -> int:
    """`value` as an int; it must be an integer (numpy too, not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DataError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, f) float64
    labels: np.ndarray    # (n_samples,) int, 1 = minority
    name: str = ""

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.labels) != self.features.shape[0]:
            raise DataError("features/labels shape mismatch")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite feature values")
        if self.minority_count == 0 or self.majority_count == 0:
            raise DataError(f"dataset {self.name!r} needs samples in both classes")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    # Computed once per Dataset; the index arrays are read-only because every
    # caller shares them.
    @functools.cached_property
    def minority_indices(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.labels == 1))

    @functools.cached_property
    def majority_indices(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.labels == 0))

    @functools.cached_property
    def minority_count(self) -> int:
        return len(self.minority_indices)

    @functools.cached_property
    def majority_count(self) -> int:
        return len(self.majority_indices)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.name)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def load_csv(path, label_column: str, minority_label: str, name: str = "") -> Dataset:
    """Load a numeric CSV with a header row into a Dataset.

    Rows whose label cell equals `minority_label` (string compare on the
    raw cell) become the minority class. Row order is preserved.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)

        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            feats = []
            for col, cell in enumerate(row):
                if col == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {header[col]!r}"
                    ) from None
            rows.append(feats)
            labels.append(1 if row[label_idx].strip() == minority_label else 0)

    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    label_arr = np.array(labels, dtype=int)
    if label_arr.min() == label_arr.max():
        raise DataError(f"{path}: only one class present (minority_label={minority_label!r})")
    return Dataset(features, label_arr, name or str(path))


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignments: assignments[shuffle][sample] = fold id."""

    assignments: np.ndarray  # (n_shuffles, n_samples) int

    def test_indices(self, shuffle: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[shuffle] == fold)

    def train_indices(self, shuffle: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[shuffle] != fold)


def stratified_kfold(dataset: Dataset, n_folds: int, n_shuffles: int, seed: int) -> FoldPlan:
    """Per-class Fisher-Yates shuffles dealt into n_folds contiguous blocks.

    Earlier folds absorb remainders, so fold sizes differ by at most one
    per class and the per-fold class proportion stays within one sample of
    the global proportion.
    """
    if n_folds < 1:
        raise DataError("n_folds must be >= 1")
    if dataset.minority_count < n_folds:
        raise DataError(
            f"minority class ({dataset.minority_count}) smaller than n_folds ({n_folds})"
        )
    assignments = np.empty((n_shuffles, dataset.n_samples), dtype=int)
    for s in range(n_shuffles):
        rng = SplitMix64(derive_seed(seed, "fold-shuffle", s))
        for class_indices in (dataset.minority_indices, dataset.majority_indices):
            order = list(map(int, class_indices))
            rng.shuffle(order)
            base, extra = divmod(len(order), n_folds)
            pos = 0
            for fold in range(n_folds):
                size = base + (1 if fold < extra else 0)
                for i in order[pos:pos + size]:
                    assignments[s, i] = fold
                pos += size
    return FoldPlan(assignments)

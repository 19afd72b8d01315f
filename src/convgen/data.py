"""Dataset loading, class partitioning and stratified folds.

In-memory label convention is fixed: 1 = minority, 0 = majority, whatever
the on-disk encoding was. Features stay raw.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed, shuffle


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


@contextmanager
def open_text(path, mode="r", newline=None):
    """`path` opened as UTF-8 text, to read or (mode "w") to write; its directory must exist.
    A file that cannot be opened, or a byte read that is not UTF-8, raises a DataError naming it.
    `path` must be a str or os.PathLike: `open` takes an int as a file descriptor to close."""
    if not isinstance(path, (str, os.PathLike)):
        raise DataError(f"{path!r}: not a file path")
    try:
        fh = open(path, mode, newline=newline, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: cannot decode byte "
                            f"0x{exc.object[exc.start]:02x}") from None


def make_dir(path) -> None:
    """Create directory `path` and its parents unless it exists; a fault is a DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot create directory: {exc.strerror or exc}") from None


def load_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`; any fault is a DataError
    naming the file and `what` it should hold (say "config")."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{path}: {what} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: {what} is a JSON {type(raw).__name__}, not an object")
    return raw


def _lines(reader):
    """Each row of a csv.reader with the physical line it starts on."""
    start = reader.line_num + 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def _numeric_rows(path, rows, columns, label_idx=None) -> tuple[np.ndarray, list]:
    """(lineno, row) pairs of numeric CSV cells, blank rows skipped, as a
    (rows, len(columns)) float64 array, plus each row's cell at `label_idx`
    if given. A fault names the first faulty line: a row of the wrong length
    (it ends the pass) or a cell that is not a finite number, with its column."""
    width = len(columns) + (label_idx is not None)
    cells, labels, linenos, bad_length = [], [], [], None
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != width:
            bad_length = f"{path}:{lineno}: expected {width} cells, got {len(row)}"
            break
        if label_idx is not None:
            labels.append(row.pop(label_idx))
        cells += row
        linenos.append(lineno)
    try:
        values = np.array(cells, dtype=np.float64)  # float() on each cell
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for pos, cell in enumerate(cells):
            try:
                fault = None if np.isfinite(float(cell)) else "non-finite"
            except ValueError:
                fault = "non-numeric"
            if fault:
                line, col = divmod(pos, len(columns))
                raise DataError(f"{path}:{linenos[line]}: {fault} value {cell!r} "
                                f"in column {columns[col]!r}")
    if bad_length:
        raise DataError(bad_length)
    return values.reshape(len(linenos), len(columns)), labels


def load_csv(path, label_column: str, minority_label: str, name: str = "") -> Dataset:
    """Load a numeric CSV with a header row into a Dataset.

    Rows whose label cell equals `minority_label` (string compare on the
    raw cell) become the minority class. Row order is preserved. A fault
    raises a DataError that names the first faulty line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) is None:
            raise DataError(f"{path}: empty file")
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        features, labels = _numeric_rows(path, _lines(reader),
                                         header[:label_idx] + header[label_idx + 1:], label_idx)
    if not labels:
        raise DataError(f"{path}: no data rows")
    label_arr = np.array([cell.strip() == minority_label for cell in labels], dtype=int)
    if label_arr.min() == label_arr.max():
        raise DataError(f"{path}: only one class present (minority_label={minority_label!r})")
    return Dataset(features, label_arr, name or str(path))


def load_synthetic_csv(path, n_features: int) -> np.ndarray:
    """Synthetic minority rows of `n_features` cells and no label, read like a
    dataset. A first row with a non-numeric cell is a header naming the
    columns; without one, a fault names a column by its position from 1."""
    with open_text(path, newline="") as fh:
        rows = [(lineno, row) for lineno, row in _lines(csv.reader(fh)) if row]
    columns = [str(i) for i in range(1, n_features + 1)]
    if rows and len(rows[0][1]) == n_features:
        try:
            np.array(rows[0][1], dtype=np.float64)
        except ValueError:
            columns = rows.pop(0)[1]
    features, _ = _numeric_rows(path, rows, columns)
    if not len(features):
        raise DataError(f"{path}: no synthetic rows")
    return features


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
        state = derive_seed(seed, "fold-shuffle", s)
        for class_indices in (dataset.minority_indices, dataset.majority_indices):
            order = list(map(int, class_indices))
            state = shuffle(order, state)
            base, extra = divmod(len(order), n_folds)
            sizes = base + (np.arange(n_folds) < extra)
            assignments[s, order] = np.repeat(np.arange(n_folds), sizes)
    return FoldPlan(assignments)

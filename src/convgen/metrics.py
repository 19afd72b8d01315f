"""Binary classification scoring: confusion counts, minority F1, Cohen's kappa.

The minority class (label 1) is the positive class. Degenerate cases follow
the common toolkit conventions: F1 = 0 when tp + fp + fn = 0, kappa = 0
when expected agreement is 1, so averages over many folds stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(truth, predicted) -> ConfusionMatrix:
    t = np.asarray(truth)
    p = np.asarray(predicted)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError(f"need equal non-empty 1-D label arrays, got {t.shape} vs {p.shape}")
    t1, p1 = t == 1, p == 1
    n, ones_t, ones_p = t.size, int(np.count_nonzero(t1)), int(np.count_nonzero(p1))
    # every entry that is not 1 must be 0 (NaN, 0.5 and 2 are neither)
    if np.count_nonzero(t == 0) != n - ones_t or np.count_nonzero(p == 0) != n - ones_p:
        raise DataError("labels must be binary (0/1)")
    tp = int(np.count_nonzero(t1 & p1))
    return ConfusionMatrix(tp=tp, fp=ones_p - tp, fn=ones_t - tp, tn=n - ones_t - ones_p + tp)


def f1_minority(cm: ConfusionMatrix) -> float:
    """Harmonic mean of minority-class precision and recall."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    if denom == 0:
        return 0.0
    return 2.0 * cm.tp / denom


def cohen_kappa(cm: ConfusionMatrix) -> float:
    """(P_o - P_e) / (1 - P_e), chance-corrected agreement."""
    n = cm.total
    if n == 0:
        raise DataError("empty confusion matrix")
    p_o = (cm.tp + cm.tn) / n
    p_e = ((cm.tp + cm.fp) * (cm.tp + cm.fn) + (cm.fn + cm.tn) * (cm.fp + cm.tn)) / (n * n)
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convgen.data import DataError
from convgen.metrics import ConfusionMatrix, cohen_kappa, confusion, f1_minority


def definitional_f1(tp, fp, fn):
    """Independent recomputation from precision/recall."""
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def definitional_kappa(tp, fp, fn, tn):
    """Independent recomputation straight from the agreement definition."""
    n = tp + fp + fn + tn
    p_o = (tp + tn) / n
    p_yes = ((tp + fn) / n) * ((tp + fp) / n)
    p_no = ((fp + tn) / n) * ((fn + tn) / n)
    p_e = p_yes + p_no
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1 - p_e)


def random_matrices(count, seed=0, allow_empty_truth=True):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + fp + fn + tn == 0:
            tn = 1
        yield ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


class TestConfusion:
    def test_perfect_agreement_counts(self):
        cm = confusion((1, 1, 0, 0), (1, 1, 0, 0))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 0, 0, 2)

    def test_all_majority_prediction(self):
        cm = confusion((1, 0), (0, 0))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 1, 1)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(2, size=1000)
        pred = rng.integers(2, size=1000)
        cm = confusion(truth, pred)
        counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for t, p in zip(truth, pred):  # element-by-element recount
            key = ("t" if t == p else "f") + ("p" if p == 1 else "n")
            counts[key] += 1
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (
            counts["tp"], counts["fp"], counts["fn"], counts["tn"]
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            confusion((1, 0), (1,))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion((1, 2), (1, 0))

    @pytest.mark.parametrize("dtype", [int, bool, float])
    def test_counts_match_a_2x2_tally_for_each_label_dtype(self, dtype):
        rng = np.random.default_rng(11)
        for size in (1, 2, 7, 64, 301):
            truth = rng.integers(2, size=size).astype(dtype)
            pred = rng.integers(2, size=size).astype(dtype)
            tally = np.zeros((2, 2), dtype=int)  # [truth][predicted]
            for t, p in zip(truth, pred):
                tally[int(t), int(p)] += 1
            cm = confusion(truth, pred)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == (
                tally[1, 1], tally[0, 1], tally[1, 0], tally[0, 0])
            assert all(type(v) is int for v in (cm.tp, cm.fp, cm.fn, cm.tn))

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    @pytest.mark.parametrize("side", ["truth", "predicted"])
    def test_each_non_binary_value_rejected(self, value, side):
        labels = {"truth": np.array([0.0, 1.0, 1.0, 0.0]),
                  "predicted": np.array([0.0, 1.0, 0.0, 0.0])}
        labels[side][2] = value
        with pytest.raises(DataError, match=r"^labels must be binary \(0/1\)$"):
            confusion(labels["truth"], labels["predicted"])

    @pytest.mark.parametrize("truth,pred,shapes", [
        ([], [], r"\(0,\) vs \(0,\)"),
        ([1, 0], [1], r"\(2,\) vs \(1,\)"),
        ([[1, 0]], [[1, 0]], r"\(1, 2\) vs \(1, 2\)"),
    ], ids=["empty", "length-mismatch", "two-dimensional"])
    def test_shape_errors_name_both_shapes(self, truth, pred, shapes):
        with pytest.raises(DataError, match=r"^need equal non-empty 1-D label arrays, got "
                                            + shapes + "$"):
            confusion(truth, pred)


class TestF1:
    def test_perfect_prediction(self):
        assert f1_minority(ConfusionMatrix(5, 0, 0, 5)) == 1.0

    def test_zero_when_no_true_positives(self):
        assert f1_minority(ConfusionMatrix(0, 3, 2, 5)) == 0.0

    def test_hand_computed_value(self):
        assert f1_minority(ConfusionMatrix(3, 1, 2, 10)) == pytest.approx(
            2 * 3 / (6 + 1 + 2), abs=1e-9
        )

    def test_matches_definitional_oracle(self):
        for cm in random_matrices(500, seed=1):
            assert f1_minority(cm) == pytest.approx(
                definitional_f1(cm.tp, cm.fp, cm.fn), abs=1e-9
            )

    def test_bounded_in_unit_interval(self):
        for cm in random_matrices(500, seed=2):
            assert 0.0 <= f1_minority(cm) <= 1.0


class TestKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa(ConfusionMatrix(10, 0, 0, 90)) == 1.0

    def test_all_majority_on_90_10_truth_is_chance_level(self):
        # predict everything majority on a 90/10 split: P_o = P_e = 0.9
        cm = confusion([1] * 10 + [0] * 90, [0] * 100)
        assert cohen_kappa(cm) == 0.0

    def test_matches_definitional_oracle_example(self):
        cm = ConfusionMatrix(tp=8, fp=2, fn=3, tn=87)
        assert cohen_kappa(cm) == pytest.approx(
            definitional_kappa(8, 2, 3, 87), abs=1e-9
        )

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(3)
        for _ in range(50):
            truth = rng.integers(2, size=200)
            pred = rng.integers(2, size=200)
            if truth.min() == truth.max():
                continue
            cm = confusion(truth, pred)
            assert cohen_kappa(cm) == pytest.approx(
                sklearn_metrics.cohen_kappa_score(truth, pred), abs=1e-9
            )
            assert f1_minority(cm) == pytest.approx(
                sklearn_metrics.f1_score(truth, pred, zero_division=0), abs=1e-9
            )

    def test_bounded(self):
        for cm in random_matrices(500, seed=4):
            assert -1.0 - 1e-12 <= cohen_kappa(cm) <= 1.0 + 1e-12

    def test_kappa_one_iff_no_errors(self):
        for cm in random_matrices(500, seed=5):
            if cm.tp + cm.fn == 0 or cm.fp + cm.tn == 0:
                continue  # needs both classes in the truth
            is_one = cohen_kappa(cm) == pytest.approx(1.0, abs=1e-12)
            assert is_one == (cm.fp == 0 and cm.fn == 0)

    def test_kappa_symmetric_under_label_swap_f1_not(self):
        swapped_differs = False
        for cm in random_matrices(500, seed=6):
            if cm.total == 0:
                continue
            swapped = ConfusionMatrix(tp=cm.tn, fp=cm.fn, fn=cm.fp, tn=cm.tp)
            assert cohen_kappa(swapped) == pytest.approx(cohen_kappa(cm), abs=1e-9)
            if abs(f1_minority(swapped) - f1_minority(cm)) > 1e-9:
                swapped_differs = True
        assert swapped_differs  # F1 is positive-class specific


counts = st.integers(0, 10**6)


class TestMetricProperties:
    @settings(deadline=None, max_examples=300)
    @given(counts, counts, counts, counts)
    def test_scores_stay_in_range(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            tn = 1
        cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
        assert 0.0 <= f1_minority(cm) <= 1.0
        assert -1.0 <= cohen_kappa(cm) <= 1.0

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_perfect_diagonal_with_both_classes_is_kappa_one(self, tp, tn):
        assert cohen_kappa(ConfusionMatrix(tp=tp, fp=0, fn=0, tn=tn)) == 1.0

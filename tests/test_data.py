import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convgen.baselines import Gan
from convgen.data import DataError, Dataset, load_csv, stratified_kfold


@st.composite
def fold_case(draw):
    """(n_folds, n_shuffles, seed, labels) with at least n_folds minority rows."""
    n_folds = draw(st.integers(1, 5))
    n_min, n_maj = draw(st.integers(n_folds, 12)), draw(st.integers(1, 25))
    labels = draw(st.permutations([1] * n_min + [0] * n_maj))
    return n_folds, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)), np.array(labels)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_abalone_fixture_statistics(self, abalone_path):
        ds = load_csv(abalone_path, "label", "1", name="abalone9-18")
        assert ds.n_samples == 731
        assert ds.n_features == 8
        assert ds.minority_count == 42

    def test_yeast_fixture_statistics(self, yeast_path):
        ds = load_csv(yeast_path, "label", "1", name="yeast6")
        assert ds.n_samples == 1484
        assert ds.n_features == 10
        assert ds.minority_count == 35

    def test_tiny_handwritten_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,1\n3,4,0\n5,6,0\n")
        ds = load_csv(path, "y", "1")
        assert ds.minority_count == 1
        assert ds.majority_count == 2
        # row order preserved
        assert ds.features[0] == pytest.approx([1.0, 2.0])

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,y\n1,1\noops,0\n")
        with pytest.raises(DataError, match="3.*'oops'"):
            load_csv(path, "y", "1")

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "y", "1")

    def test_single_class_file_rejected(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", "a,y\n1,0\n2,0\n")
        with pytest.raises(DataError, match="one class"):
            load_csv(path, "y", "1")


class TestClassIndices:
    def test_computed_once_and_read_only(self, toy_dataset):
        ds = toy_dataset
        assert ds.minority_indices is ds.minority_indices
        assert ds.majority_indices is ds.majority_indices
        assert np.array_equal(ds.minority_indices, np.flatnonzero(ds.labels == 1))
        assert np.array_equal(ds.majority_indices, np.flatnonzero(ds.labels == 0))
        assert (ds.minority_count, ds.majority_count) == (12, 60)
        for indices in (ds.minority_indices, ds.majority_indices):
            with pytest.raises(ValueError, match="read-only"):
                indices[0] = 0


class TestImbalanceRatio:
    def test_abalone_ratio(self, abalone_path):
        ds = load_csv(abalone_path, "label", "1")
        assert ds.majority_count / ds.minority_count == pytest.approx(16.40, abs=0.01)

    def test_ratio_from_shuttle_sized_counts(self):
        # 49 minority vs 3267 majority
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(3316, 3)),
                     np.array([1] * 49 + [0] * 3267), "shuttle-sized")
        assert ds.majority_count / ds.minority_count == pytest.approx(66.67, abs=0.01)

    def test_balanced_ratio_is_one(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(20, 2)), np.array([1] * 10 + [0] * 10), "b")
        assert ds.majority_count / ds.minority_count == 1.0


class TestStratifiedKFold:
    def test_abalone_minority_split_is_8_or_9(self, abalone_path):
        ds = load_csv(abalone_path, "label", "1")
        plan = stratified_kfold(ds, 5, 3, seed=42)
        for s in range(3):
            counts = [
                int(np.sum(ds.labels[plan.test_indices(s, k)] == 1))
                for k in range(5)
            ]
            assert sorted(counts) == [8, 8, 8, 9, 9]  # 42 = 5*8 + 2

    def test_single_fold_holds_everything(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 1, 1, seed=0)
        assert len(plan.test_indices(0, 0)) == toy_dataset.n_samples

    def test_exactly_divisible_case(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(100, 2)), np.array([1] * 50 + [0] * 50), "even")
        plan = stratified_kfold(ds, 5, 2, seed=1)
        for s in range(2):
            for k in range(5):
                fold = plan.test_indices(s, k)
                assert len(fold) == 20
                assert int(np.sum(ds.labels[fold])) == 10

    def test_disjoint_and_covering(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 4, 3, seed=9)
        for s in range(3):
            seen = np.concatenate([plan.test_indices(s, k) for k in range(4)])
            assert sorted(seen) == list(range(toy_dataset.n_samples))

    def test_stratification_bound(self, toy_dataset):
        ds = toy_dataset
        global_frac = ds.minority_count / ds.n_samples
        plan = stratified_kfold(ds, 5, 4, seed=11)
        for s in range(4):
            for k in range(5):
                fold = plan.test_indices(s, k)
                frac = np.mean(ds.labels[fold] == 1)
                assert abs(frac - global_frac) * len(fold) <= 1.0 + 1e-9

    def test_deterministic_under_seed(self, toy_dataset):
        a = stratified_kfold(toy_dataset, 5, 5, seed=77)
        b = stratified_kfold(toy_dataset, 5, 5, seed=77)
        assert np.array_equal(a.assignments, b.assignments)

    def test_shuffles_differ(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 5, 5, seed=77)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(plan.assignments[i], plan.assignments[j])

    @settings(deadline=None, max_examples=60)
    @given(fold_case())
    def test_fold_invariants_on_random_shapes(self, case):
        n_folds, n_shuffles, seed, labels = case
        ds = Dataset(np.zeros((len(labels), 1)), labels)
        plan = stratified_kfold(ds, n_folds, n_shuffles, seed)
        for s in range(n_shuffles):
            tests = [plan.test_indices(s, k) for k in range(n_folds)]
            assert sorted(np.concatenate(tests)) == list(range(len(labels)))
            for cls in (0, 1):
                sizes = [int(np.sum(labels[t] == cls)) for t in tests]
                assert max(sizes) - min(sizes) <= 1
        again = stratified_kfold(ds, n_folds, n_shuffles, seed)
        assert np.array_equal(plan.assignments, again.assignments)

    def test_minority_smaller_than_folds_rejected(self, toy_dataset):
        with pytest.raises(DataError, match="smaller than n_folds"):
            stratified_kfold(toy_dataset, 13, 1, seed=0)


class TestAlphaScaling:
    """The GAN's alpha scaling (rows / alpha in Gan.train, * alpha in Gan.generate)."""

    def test_round_trip_within_1e12(self):
        feats = np.random.default_rng(5).normal(scale=3.0, size=(20, 4))
        gan = Gan(4, epochs=0).train(feats)
        # a generator that returns the scaled rows: generate must unscale them
        gan.generator.forward = lambda noise: feats / gan.alpha
        assert np.max(np.abs(gan.generate(len(feats)) - feats)) < 1e-12

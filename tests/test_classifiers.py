import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convgen.classifiers import (
    DiscriminatorClassifier,
    ExternalPredictions,
    KNNClassifier,
    LogisticRegressionClassifier,
)
from convgen.data import DataError, load_csv, stratified_kfold
from convgen.model import ConvGeNConfig, ConvGeNModel
from conftest import two_blob_dataset


def repeater_fold(path):
    """The first rebalanced training fold of a bundled dataset (repeater rows)."""
    ds = load_csv(path, "label", "1")
    train_ids = stratified_kfold(ds, 5, 1, seed=0).train_indices(0, 0)
    train = ds.subset(train_ids)
    n_syn = train.majority_count - train.minority_count
    minority = train.features[train.minority_indices]
    return (np.vstack([train.features, minority[np.arange(n_syn) % len(minority)]]),
            np.concatenate([train.labels, np.ones(n_syn, dtype=int)]))


def logreg_objective(theta, x, y, l2=1e-4):
    """(loss, gradient) of the objective LogisticRegressionClassifier.fit
    minimises, written directly from its definition: mean cross-entropy with
    eps = 1e-12 plus 0.5 * l2 * ||w||^2, theta = (w, b)."""
    p = 1.0 / (1.0 + np.exp(-(x @ theta[:-1] + theta[-1])))
    q = np.where(y == 1, p, 1.0 - p) + 1e-12
    # d/dz of -log(q) for the logit z
    r = np.where(y == 1, -1.0, 1.0) * p * (1.0 - p) / q
    loss = -np.mean(np.log(q)) + 0.5 * l2 * theta[:-1] @ theta[:-1]
    return loss, np.append(x.T @ r / len(y) + l2 * theta[:-1], np.mean(r))


def scipy_optimum(x, y):
    """The objective's minimiser found by scipy's L-BFGS-B from zero."""
    optimize = pytest.importorskip("scipy.optimize")
    with np.errstate(over="ignore"):
        return optimize.minimize(
            logreg_objective, np.zeros(x.shape[1] + 1), args=(x, y), jac=True,
            method="L-BFGS-B", options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 20000},
        )


REPEATER_FOLDS = ["datasets/abalone9-18.csv", "datasets/yeast6.csv"]


class TestKnn:
    def test_k1_predicts_own_label(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([0, 1])
        clf = KNNClassifier(k=1).fit(x, y)
        assert list(clf.predict(x)) == [0, 1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(200, 3))
        y = rng.integers(2, size=200)
        y[:2] = [0, 1]
        q = rng.normal(size=(50, 3))
        clf = KNNClassifier(k=5).fit(x, y)
        got = clf.predict(q)
        for i, row in enumerate(q):
            ranked = sorted(range(len(x)),
                            key=lambda j: (float(np.sum((x[j] - row) ** 2)), j))
            votes = sum(int(y[j]) for j in ranked[:5])
            assert got[i] == (1 if votes >= 3 else 0)

    def test_matches_sklearn(self):
        neighbors = pytest.importorskip("sklearn.neighbors")
        rng = np.random.default_rng(22)
        x = rng.normal(size=(150, 4))
        y = rng.integers(2, size=150)
        y[:2] = [0, 1]
        q = rng.normal(size=(40, 4))
        ours = KNNClassifier(k=5).fit(x, y).predict(q)
        ref = neighbors.KNeighborsClassifier(n_neighbors=5).fit(x, y).predict(q)
        assert np.array_equal(ours, ref)

    def test_even_k_tie_goes_to_majority_class(self):
        x = np.array([[0.0], [0.2], [1.8], [2.0]])
        y = np.array([0, 0, 1, 1])
        clf = KNNClassifier(k=4).fit(x, y)
        assert clf.predict(np.array([[1.0]]))[0] == 0

    def test_invariant_under_training_permutation(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(60, 2))
        y = rng.integers(2, size=60)
        y[:2] = [0, 1]
        q = rng.normal(size=(20, 2))
        base = KNNClassifier().fit(x, y).predict(q)
        perm = rng.permutation(60)
        assert np.array_equal(base, KNNClassifier().fit(x[perm], y[perm]).predict(q))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            KNNClassifier().fit(np.zeros((3, 1)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("labels", [[1, 2, 1, 2], [0, 1, 2, 1], [0.0, 0.5, 1.0, 1.0]])
    def test_labels_other_than_0_1_rejected(self, labels):
        with pytest.raises(DataError, match="0 and 1"):
            KNNClassifier(k=1).fit(np.arange(4.0).reshape(4, 1), np.array(labels))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(DataError, match=f"k must be an integer >= 1, got {k}"):
            KNNClassifier(k=k)

    def test_feature_width_mismatch(self):
        clf = KNNClassifier().fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(DataError, match="feature width 3 != fitted 2"):
            clf.predict(np.zeros((1, 3)))


class TestLogisticRegression:
    def test_separable_blobs_reach_full_training_accuracy(self):
        ds = two_blob_dataset(seed=31, separation=6.0)
        clf = LogisticRegressionClassifier().fit(ds.features, ds.labels)
        assert np.array_equal(clf.predict(ds.features), ds.labels)

    def test_zero_iterations_is_deterministic_tie_break(self, monkeypatch):
        monkeypatch.setattr(LogisticRegressionClassifier, "ITERATIONS", 0)
        ds = two_blob_dataset(seed=32)
        clf = LogisticRegressionClassifier().fit(ds.features, ds.labels)
        pred = clf.predict(ds.features)
        assert pred.shape == (ds.n_samples,)
        # zero weights put every point on the boundary; tie-break is class 0
        assert not clf.weights.any() and clf.bias == 0.0 and clf.loss_trace == []
        assert np.all(pred == 0)

    def test_loss_trace_non_increasing(self):
        ds = two_blob_dataset(seed=33)
        clf = LogisticRegressionClassifier().fit(ds.features, ds.labels)
        trace = np.array(clf.loss_trace)
        assert len(trace) > 1
        assert np.all(np.diff(trace) <= 0.0)

    def test_predict_deterministic(self):
        ds = two_blob_dataset(seed=34)
        clf = LogisticRegressionClassifier().fit(ds.features, ds.labels)
        a = clf.predict(ds.features)
        assert np.array_equal(a, clf.predict(ds.features))

    def test_predict_before_fit(self):
        with pytest.raises(DataError):
            LogisticRegressionClassifier().predict(np.zeros((1, 2)))

    def test_huge_features_saturate_without_overflow_warning(self):
        ds = two_blob_dataset(seed=35, separation=6.0)
        x = ds.features * 1e12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clf = LogisticRegressionClassifier().fit(x, ds.labels)
            pred = clf.predict(x)
        assert np.all(np.isfinite(clf.weights)) and np.isfinite(clf.bias)
        assert set(pred) <= {0, 1}

    @pytest.mark.parametrize("labels", [[1, 2, 1, 2], [0, 0, 0, 0], [0.0, 0.5, 1.0, 1.0]])
    def test_labels_other_than_0_1_rejected(self, labels):
        with pytest.raises(DataError, match="0 and 1"):
            LogisticRegressionClassifier().fit(np.arange(4.0).reshape(4, 1), np.array(labels))

    @pytest.mark.parametrize("case", ["constant column", "separable blobs",
                                      "two rows at 1e8"])
    def test_degenerate_data_fits_without_warning(self, case):
        ds = two_blob_dataset(seed=37, separation=20.0)
        x, y = {
            "constant column": (np.column_stack([ds.features, np.full(ds.n_samples, 3.0)]),
                                ds.labels),
            "separable blobs": (ds.features, ds.labels),
            # fewer rows than unknowns: rounding leaves the Hessian singular
            "two rows at 1e8": (np.array([[1e8, 3e7], [2e7, -5e7]]), np.array([0, 1])),
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clf = LogisticRegressionClassifier().fit(x, y)
            pred = clf.predict(x)
        assert np.all(np.isfinite(clf.weights)) and np.isfinite(clf.bias)
        assert np.all(np.diff(clf.loss_trace) <= 0.0)
        assert np.array_equal(pred, y)

    @pytest.mark.parametrize("path", REPEATER_FOLDS)
    def test_matches_scipy_minimize(self, path):
        x, y = repeater_fold(path)
        clf = LogisticRegressionClassifier().fit(x, y)
        oracle = scipy_optimum(x, y)
        assert np.max(np.abs(clf.weights - oracle.x[:-1])) <= 1e-5
        assert abs(clf.bias - oracle.x[-1]) <= 1e-5
        assert clf.loss_trace[-1] <= oracle.fun + 1e-12

    @pytest.mark.parametrize("path", REPEATER_FOLDS)
    def test_gradient_within_tol_at_returned_point(self, path):
        x, y = repeater_fold(path)
        clf = LogisticRegressionClassifier().fit(x, y)
        loss, grad = logreg_objective(np.append(clf.weights, clf.bias), x, y)
        assert np.max(np.abs(grad)) <= clf.TOL
        assert len(clf.loss_trace) < clf.ITERATIONS
        assert clf.loss_trace[-1] == pytest.approx(loss, abs=1e-15)

    @pytest.mark.parametrize("path", REPEATER_FOLDS)
    def test_repeater_fold_trace_non_increasing(self, path):
        trace = LogisticRegressionClassifier().fit(*repeater_fold(path)).loss_trace
        assert np.all(np.diff(trace) <= 0.0)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-6.0, 9.0), min_size=6, max_size=6))
    def test_no_worse_than_scipy_on_random_shapes_and_scales(self, n, f, seed, log_scales):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, f)) * 10.0 ** np.array(log_scales[:f])
        y = rng.integers(2, size=n)
        y[:2] = [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clf = LogisticRegressionClassifier().fit(x, y)
            pred = clf.predict(x)
        assert np.all(np.isfinite(clf.weights)) and np.isfinite(clf.bias)
        assert set(pred) <= {0, 1}
        assert 1 <= len(clf.loss_trace) <= clf.ITERATIONS
        assert np.all(np.diff(clf.loss_trace) <= 0.0)
        # no worse than the oracle's minimum; on separable draws the loss at
        # the optimum is below 1e-8 and so flat that the fit may stop at its
        # iteration cap a few 1e-9 above it
        with np.errstate(over="ignore"):
            loss, _ = logreg_objective(np.append(clf.weights, clf.bias), x, y)
        assert loss <= scipy_optimum(x, y).fun + 1e-8


class TestDiscriminatorClassifier:
    @pytest.fixture(scope="class")
    def model(self):
        return ConvGeNModel(ConvGeNConfig(neb=5, neb_epochs=1, seed=2)).fit(two_blob_dataset())

    def test_fit_retrains_a_copy_of_the_discriminator(self, model):
        ds = model.dataset
        before = model.discriminator.params.copy()
        doc = DiscriminatorClassifier(model).fit(ds.features, ds.labels)
        assert doc.network is not model.discriminator
        assert np.array_equal(model.discriminator.params, before)
        assert not np.array_equal(doc.network.params, before)
        assert set(doc.predict(ds.features)) <= {0, 1}

    def test_predict_before_fit(self, model):
        with pytest.raises(DataError, match="before fit"):
            DiscriminatorClassifier(model).predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("labels", [[1, 2, 1, 2], [0, 0, 0, 0], [0.0, 0.5, 1.0, 1.0]])
    def test_labels_other_than_0_1_rejected(self, model, labels):
        with pytest.raises(DataError, match="0 and 1"):
            DiscriminatorClassifier(model).fit(np.arange(8.0).reshape(4, 2), np.array(labels))

    @pytest.mark.parametrize("features", [np.zeros((2, 4, 2)), np.zeros((4, 3)),
                                          np.zeros((4, 1)), np.zeros(2)],
                             ids=["3-D", "wider", "narrower", "1-D"])
    def test_predict_rejects_other_shapes(self, model, features):
        ds = model.dataset
        doc = DiscriminatorClassifier(model).fit(ds.features, ds.labels)
        with pytest.raises(DataError, match=r"features must be \(rows, 2\)"):
            doc.predict(features)


MALFORMED_TRAINING_SETS = {
    "1-D features": (np.zeros(4), [0, 1, 0, 1]),
    "3-D features": (np.zeros((4, 2, 1)), [0, 1, 0, 1]),
    "more labels than rows": (np.zeros((3, 2)), [0, 1, 0, 1]),
    "fewer labels than rows": (np.zeros((5, 2)), [0, 1, 0, 1]),
    "2-D labels": (np.zeros((4, 2)), [[0], [1], [0], [1]]),
    "scalar label": (np.zeros((1, 2)), 1),
}


@pytest.fixture(scope="module")
def toy_model():
    return ConvGeNModel(ConvGeNConfig(neb=5, neb_epochs=0, seed=2)).fit(two_blob_dataset())


@pytest.mark.parametrize("case", MALFORMED_TRAINING_SETS)
@pytest.mark.parametrize("make", [
    lambda model: KNNClassifier(k=1),
    lambda model: LogisticRegressionClassifier(),
    DiscriminatorClassifier,
], ids=["knn", "logreg", "doc"])
def test_malformed_training_set_rejected(toy_model, make, case):
    features, labels = MALFORMED_TRAINING_SETS[case]
    clf = make(toy_model)
    with pytest.raises(DataError, match="2-D features and one label per row"):
        clf.fit(features, np.array(labels))


@pytest.mark.parametrize("features", [np.zeros(2), np.zeros((1, 2, 1)), np.zeros((1, 3))],
                         ids=["1-D", "3-D", "wider"])
def test_logreg_predict_rejects_other_shapes(features, monkeypatch):
    monkeypatch.setattr(LogisticRegressionClassifier, "ITERATIONS", 5)
    ds = two_blob_dataset(seed=36)
    clf = LogisticRegressionClassifier().fit(ds.features, ds.labels)
    with pytest.raises(DataError, match=r"features must be \(rows, 2\)"):
        clf.predict(features)


class TestExternalPredictions:
    def test_reads_aligned_labels(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("1\n0\n1\n", encoding="utf-8")
        clf = ExternalPredictions(str(path)).fit(None, None)
        assert list(clf.predict(np.zeros((3, 2)))) == [1, 0, 1]

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("1\n0\n", encoding="utf-8")
        with pytest.raises(DataError, match="labels for"):
            ExternalPredictions(str(path)).predict(np.zeros((3, 2)))

    def test_non_integer_label_names_its_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("1\n\n1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"preds\.csv:3: label '1\.0' is not 0/1"):
            ExternalPredictions(str(path)).predict(np.zeros((2, 2)))

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("1\n2\n", encoding="utf-8")
        with pytest.raises(DataError, match="0/1"):
            ExternalPredictions(str(path)).predict(np.zeros((2, 2)))

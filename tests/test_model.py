import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convgen import nn
from convgen.classifiers import DiscriminatorClassifier
from convgen.data import DataError, Dataset, load_csv
from convgen.model import (
    MAX_GENERATOR_PARAMS,
    SIMPLEX_TOL,
    ConvGeNConfig,
    ConvGeNModel,
    Generator,
    SyntheticBatch,
    check_simplex,
    TrainingError,
)
from conftest import two_blob_dataset


def fitted_toy_model(neb=5, seed=3, epochs=10, **kwargs):
    ds = two_blob_dataset(seed=7)
    cfg = ConvGeNConfig(neb=neb, neb_epochs=epochs, seed=seed, **kwargs)
    return ConvGeNModel(cfg).fit(ds), ds


class TestConfig:
    def test_presets(self):
        cfg = ConvGeNConfig.preset("min,maj")
        assert cfg.neb == "min" and cfg.maj_proximal is False
        cfg = ConvGeNConfig.preset("5,prox")
        assert cfg.neb == 5 and cfg.maj_proximal is True
        with pytest.raises(DataError):
            ConvGeNConfig.preset("7,maj")

    def test_neb_clamps_to_minority_size(self):
        assert ConvGeNConfig(neb=100).resolve_neb(12) == 12
        assert ConvGeNConfig(neb="min").resolve_neb(12) == 12

    def test_invalid_neb(self):
        with pytest.raises(DataError):
            ConvGeNConfig(neb=1)
        with pytest.raises(DataError):
            ConvGeNConfig(neb="max")

    def test_numpy_integers_accepted(self):
        cfg = ConvGeNConfig(neb=np.int64(5), neb_epochs=np.int32(0), seed=np.uint64(7))
        assert cfg.resolve_neb(12) == 5

    @pytest.mark.parametrize("neb,k_prime", [(2, 1), (3, 2), (5, 3), ("min", 6)])
    def test_setup_reduces_to_half_the_neighborhood_rounded_up(self, neb, k_prime):
        model = ConvGeNModel(ConvGeNConfig(neb=neb))
        model._setup(two_blob_dataset(n_minority=12))
        assert model.generator.k_prime == k_prime


class TestGeneratorSizeGuard:
    def test_param_count_matches_the_built_network(self):
        for neb, f, k_prime in [(6, 4, 3), (5, 8, 3), (34, 8, 17), (2, 1, 1)]:
            gen = Generator(neb, f, seed=0)
            assert gen.k_prime == k_prime
            assert Generator.param_count(neb, f) == gen.net.params.size

    def test_neb_min_on_a_large_minority_fails_before_allocating(self, monkeypatch):
        import convgen.model as model_mod

        class Unbuilt(Generator):
            def __init__(self, *args, **kwargs):
                raise AssertionError("the generator was built")

        # without the guard the stub fails the test instead of allocating ~5 GB
        monkeypatch.setattr(model_mod, "Generator", Unbuilt)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(600, 10)), np.repeat([0, 1], 300))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="neb=5"):
                ConvGeNModel(ConvGeNConfig(neb="min")).fit(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the generator alone would be ~1 GB of weights

    @pytest.mark.parametrize("path", ["datasets/abalone9-18.csv", "datasets/yeast6.csv"])
    def test_bundled_datasets_stay_far_below_the_limit(self, path):
        ds = load_csv(path, "label", "1")
        neb = ds.minority_count  # neb="min" on the whole dataset
        assert Generator.param_count(neb, ds.n_features) < MAX_GENERATOR_PARAMS / 50


class TestGeneratorForward:
    def test_zero_logits_give_uniform_coefficients_and_centroid_rows(self):
        gen = Generator(neb=4, n_features=3, seed=0)
        for layer in gen.net.layers:
            for _, p, _ in layer.params():
                p[...] = 0.0  # forces all-equal (zero) logits
        n = np.random.default_rng(1).normal(size=(4, 3))
        k, c = gen.forward(n)
        assert np.allclose(k, 0.25)
        centroid = n.mean(axis=0)
        for row in c:
            assert np.allclose(row, centroid)

    def test_one_hot_columns_copy_neighborhood_rows(self):
        gen = Generator(neb=3, n_features=2, seed=0)
        for layer in gen.net.layers:
            for _, p, _ in layer.params():
                p[...] = 0.0
        # bias the dense layer so column g selects row g
        bias = gen.net.layers[-1].b.reshape(3, 3)
        bias[...] = 0.0
        np.fill_diagonal(bias, 5.0)
        n = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        k, c = gen.forward(n)
        assert np.allclose(k, np.eye(3))
        assert np.allclose(c, n)

    def test_random_weights_satisfy_simplex_and_hull(self):
        gen = Generator(neb=6, n_features=4, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = rng.normal(size=(6, 4))
            k, c = gen.forward(n)
            assert np.all(k >= 0.0)
            assert k.sum(axis=0) == pytest.approx(np.ones(6), abs=1e-5)
            # reconstruction from recorded coefficients
            assert np.max(np.abs(k.T @ n - c)) < 1e-9

    def test_dead_column_is_uniform_and_gets_no_gradient(self):
        neb, f, dead = 4, 3, 1
        gen = Generator(neb, f, seed=0)
        k_prime = gen.k_prime
        dense = gen.net.layers[-1]
        w = dense.w.reshape(k_prime * f, neb, neb)
        b = dense.b.reshape(neb, neb)
        w[:, :, dead] = 0.0
        b[...] = 10.0
        b[:, dead] = -1.0  # every logit of column `dead` is -1
        n = np.random.default_rng(1).normal(size=(neb, f))
        k, c = gen.forward(n)
        assert np.all(k[:, dead] == 1.0 / neb)
        assert np.allclose(c[dead], n.mean(axis=0))  # the neighbourhood centroid

        gen.backward_from_dk(np.random.default_rng(2).normal(size=(neb, neb)))
        gw = dense.gw.reshape(k_prime * f, neb, neb)
        gb = dense.gb.reshape(neb, neb)
        assert np.all(gw[:, :, dead] == 0.0) and np.all(gb[:, dead] == 0.0)
        live = [g for g in range(neb) if g != dead]
        assert np.any(gw[:, :, live] != 0.0) and np.any(gb[:, live] != 0.0)

    def test_forward_stack_leaves_nothing_to_backpropagate(self):
        gen = Generator(neb=4, n_features=3, seed=0)
        stack = np.random.default_rng(1).normal(size=(2, 4, 3))
        gen.forward(stack[0])
        gen.forward_stack(stack)
        with pytest.raises(nn.NNError, match="before forward"):
            gen.backward_from_dk(np.ones((4, 4)))

    def test_wrong_neighborhood_shape(self):
        gen = Generator(neb=4, n_features=3, seed=0)
        with pytest.raises(DataError, match="neighborhood"):
            gen.forward(np.zeros((5, 3)))

    def test_check_simplex_rejects_bad_matrices(self):
        with pytest.raises(TrainingError):
            check_simplex(np.array([[-0.1], [1.1]]))
        with pytest.raises(TrainingError):
            check_simplex(np.array([[0.4], [0.4]]))

    def test_check_simplex_rejects_nan(self):
        with pytest.raises(TrainingError, match="nan"):
            check_simplex(np.full((3, 3), np.nan))
        k = np.full((3, 3), 1.0 / 3.0)
        k[1, 2] = np.nan
        with pytest.raises(TrainingError):
            check_simplex(k)

    def test_check_simplex_checks_each_matrix_of_a_stack(self):
        stack = np.full((4, 3, 3), 1.0 / 3.0)
        check_simplex(stack)
        stack[2, :, 1] = [0.5, 0.5, 0.5]  # one column of the third K sums to 1.5
        with pytest.raises(TrainingError, match="1.5"):
            check_simplex(stack)
        stack[2, :, 1] = 1.0 / 3.0
        stack[3, 0, 0] = -1e-3
        with pytest.raises(TrainingError, match="negative"):
            check_simplex(stack)


class TestSimplexHullProperty:
    @settings(max_examples=30, deadline=None)
    @given(neb=st.integers(2, 12), f=st.integers(1, 6), data=st.data())
    def test_stacked_and_single_forward_keep_rows_in_the_hull(self, neb, f, data):
        stack = data.draw(st.integers(1, 5))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gen = Generator(neb, f, seed=int(r.integers(2**31)))
        gen.net.params[...] = r.normal(scale=data.draw(st.sampled_from([0.1, 1.0, 10.0])),
                                       size=gen.net.params.size)
        dense = gen.net.layers[-1]
        # a negative bias shift kills some columns (all logits <= 0)
        dense.b[...] -= data.draw(st.sampled_from([0.0, 1.0, 100.0]))
        neighborhoods = r.normal(scale=3.0, size=(stack, neb, f))
        ks, cs = gen.forward_stack(neighborhoods)
        assert ks.shape == (stack, neb, neb) and cs.shape == (stack, neb, f)
        for s in range(stack):
            k, c = gen.forward(neighborhoods[s])
            assert k.tobytes() == ks[s].tobytes() and c.tobytes() == cs[s].tobytes()
            assert np.all(k >= 0.0)
            assert np.all(np.abs(k.sum(axis=0) - 1.0) <= SIMPLEX_TOL)
            # each synthetic row is the stored convex combination of the rows
            assert np.max(np.abs(k.T @ neighborhoods[s] - c)) <= 1e-9
            assert np.all(c.min(axis=0) >= neighborhoods[s].min(axis=0) - 1e-9)
            assert np.all(c.max(axis=0) <= neighborhoods[s].max(axis=0) + 1e-9)


class TestDiscriminatorStep:
    def test_label_tensor_layout(self):
        model, _ = fitted_toy_model(epochs=0)
        gen = model.generator.neb
        labels = model._labels
        assert labels.shape == (2 * gen, 2)
        assert np.all(labels[:gen] == (1.0, 0.0))
        assert np.all(labels[gen:] == (0.0, 1.0))

    def test_batches_and_training_effect(self):
        model, ds = fitted_toy_model(epochs=0)
        neb = model.generator.neb
        min_stack, maj_stack = model._draws()
        assert min_stack.shape == maj_stack.shape == (ds.minority_count, neb, ds.n_features)
        minority = {tuple(row) for row in ds.features[ds.minority_indices]}
        majority = {tuple(row) for row in ds.features[ds.majority_indices]}
        assert {tuple(row) for row in min_stack.reshape(-1, ds.n_features)} <= minority
        assert {tuple(row) for row in maj_stack.reshape(-1, ds.n_features)} <= majority
        # each point's neighborhood is its own k-NN rows, shuffled
        for x_pos, rows in enumerate(min_stack):
            own = ds.features[ds.minority_indices[model._neighbors[x_pos]]]
            assert sorted(map(tuple, rows)) == sorted(map(tuple, own))
        before = model.discriminator.layers[0].w.copy()
        loss = model.discriminator_step(
            np.vstack([model.generator.forward(min_stack[0])[1], maj_stack[0]]))
        assert np.isfinite(loss)
        assert not np.array_equal(before, model.discriminator.layers[0].w)

    def test_proximal_saturates_to_whole_majority(self):
        ds = two_blob_dataset(seed=8, n_majority=6, n_minority=8)
        cfg = ConvGeNConfig(neb=8, maj_proximal=True, neb_epochs=0, seed=1)
        model = ConvGeNModel(cfg).fit(ds)
        _, maj_stack = model._draws()
        # pool smaller than gen: sampling with replacement from all majority rows
        majority = {tuple(row) for row in ds.features[ds.majority_indices]}
        assert maj_stack.shape == (8, 8, 2)
        for rows in maj_stack:
            batch = {tuple(row) for row in rows}
            assert batch <= majority and len(batch) < 8  # 8 draws from 6 rows repeat one

    def test_loss_trends_down_on_separable_data(self):
        ds = two_blob_dataset(seed=9, separation=6.0)
        cfg = ConvGeNConfig(neb=5, neb_epochs=0, seed=2)
        model = ConvGeNModel(cfg).fit(ds)
        batches = [np.vstack([model.generator.forward(min_rows)[1], maj_rows])
                   for min_rows, maj_rows in zip(*model._draws())]
        losses = [model.discriminator_step(batches[i % len(batches)]) for i in range(50)]
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert smoothed[-1] < smoothed[0]


class TestTraining:
    def test_zero_epochs_leave_weights_unchanged(self):
        ds = two_blob_dataset(seed=10)
        cfg = ConvGeNConfig(neb=5, neb_epochs=0, seed=4)
        model = ConvGeNModel(cfg)
        model.fit(ds)
        fresh = ConvGeNModel(cfg)
        fresh._setup(ds)
        assert np.array_equal(
            model.discriminator.layers[0].w, fresh.discriminator.layers[0].w
        )
        assert np.array_equal(
            model.generator.net.layers[-1].w, fresh.generator.net.layers[-1].w
        )

    def test_combined_loss_improves_on_toy_data(self):
        model, _ = fitted_toy_model(epochs=10)
        losses = [e["combined_mse"] for e in model.epoch_losses]
        assert len(losses) == 10
        assert losses[-1] < losses[0]

    def test_every_emitted_k_satisfies_simplex(self, monkeypatch):
        # check_simplex runs inside every generator forward; count the calls
        import convgen.model as model_mod

        calls = []
        original = model_mod.check_simplex

        def spy(k):
            calls.append(k.shape)
            return original(k)

        monkeypatch.setattr(model_mod, "check_simplex", spy)
        fitted_toy_model(epochs=2)
        assert len(calls) > 0  # would have raised on any violation


def per_step_fit(model, dataset):
    """ConvGeNModel.fit as one loop of steps, each drawing its own batches and
    running G once on its neighborhood."""
    model._setup(dataset)
    model.epoch_losses = []
    neb = model.generator.neb

    def step(x_pos):
        positions = model._neighbors[x_pos].copy()
        model._rng.shuffle(positions)
        min_ids = dataset.minority_indices[positions]
        _, conv_samples = model.generator.forward(dataset.features[min_ids])
        pool = model._maj_neigh[x_pos] if model.config.maj_proximal else dataset.majority_indices
        maj_rows = dataset.features[model._rng.choice(pool, size=neb, replace=len(pool) < neb)]
        concat = np.vstack([conv_samples, maj_rows])
        return min_ids, concat, model.discriminator_step(concat)

    for epoch in range(model.config.neb_epochs):
        disc, gen = [], []
        for _ in range(model.config.disc_train_count):
            for x_pos in range(dataset.minority_count):
                disc.append(step(x_pos)[2])
        for x_pos in range(dataset.minority_count):
            min_ids, concat, _ = step(x_pos)
            loss, grad = nn.loss("mse", model.discriminator.forward(concat), model._labels)
            dc = model.discriminator.backward_from(grad, input_only=True)[:neb]
            model.generator.backward_from_dk(dataset.features[min_ids] @ dc.T)
            model.generator.step()
            gen.append(loss)
        model.epoch_losses.append({
            "epoch": epoch,
            "disc_bce": float(np.mean(disc)) if disc else None,
            "combined_mse": float(np.mean(gen)) if gen else None,
        })
    return model


class TestBatchedDiscriminatorPasses:
    @pytest.mark.parametrize("stack_elements", [None, 1])
    @pytest.mark.parametrize("neb,prox", [("min", False), (5, True)])
    def test_fit_matches_the_per_step_loop_bitwise(self, monkeypatch, neb, prox,
                                                   stack_elements):
        import convgen.model as model_mod

        if stack_elements is not None:  # one neighborhood per stack
            monkeypatch.setattr(model_mod, "STACK_ELEMENTS", stack_elements)
        ds = two_blob_dataset(seed=12)
        cfg = ConvGeNConfig(neb=neb, maj_proximal=prox, neb_epochs=3, seed=5)
        fitted = ConvGeNModel(cfg).fit(ds)
        reference = per_step_fit(ConvGeNModel(cfg), ds)
        assert fitted.epoch_losses == reference.epoch_losses
        assert fitted.discriminator.params.tobytes() == reference.discriminator.params.tobytes()
        assert (fitted.generator.net.params.tobytes()
                == reference.generator.net.params.tobytes())
        assert fitted._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_stacks_stay_below_the_element_bound(self, monkeypatch):
        import convgen.model as model_mod

        monkeypatch.setattr(model_mod, "STACK_ELEMENTS", 400)
        sizes = []
        original = Generator.forward_stack

        def spy(self, neighborhoods):
            sizes.append(len(neighborhoods))
            return original(self, neighborhoods)

        monkeypatch.setattr(Generator, "forward_stack", spy)
        ds = two_blob_dataset(seed=13)  # 12 minority rows: neb 12, 144 K entries
        ConvGeNModel(ConvGeNConfig(neb="min", neb_epochs=1, disc_train_count=2)).fit(ds)
        assert sum(sizes) == 2 * 12 and max(sizes) > 1
        assert all(n * 12 * 12 <= 400 for n in sizes)

    def test_d_steps_run_through_discriminator_step(self, monkeypatch):
        calls = []
        original = ConvGeNModel.discriminator_step

        def spy(self, concat):
            # G holds a forward cache in the combined pass only: a D-only
            # pass runs G on stacks, which leaves none
            calls.append(self.generator._logits is not None)
            return original(self, concat)

        monkeypatch.setattr(ConvGeNModel, "discriminator_step", spy)
        ds = two_blob_dataset(seed=14)
        ConvGeNModel(ConvGeNConfig(neb=5, neb_epochs=2, disc_train_count=3)).fit(ds)
        n_min = ds.minority_count
        # per epoch: 3 D-only passes on stacked generator output, then the combined pass
        assert calls == ([False] * (3 * n_min) + [True] * n_min) * 2


class TestGenerate:
    def test_zero_rows(self):
        model, _ = fitted_toy_model(epochs=1)
        assert model.generate(0) == []
        assert model.synthetic_rows(0).shape == (0, 2)

    @pytest.mark.parametrize("n", [2.5, True, -1, "3"])
    def test_non_integer_or_negative_count_rejected(self, n):
        model, _ = fitted_toy_model(epochs=0)
        with pytest.raises(DataError, match="n_synthetic must be an integer >= 0"):
            model.generate(n)

    def test_balancing_count_from_abalone_sized_classes(self, abalone_path):
        from convgen.data import load_csv

        ds = load_csv(abalone_path, "label", "1")
        n_synthetic = ds.majority_count - ds.minority_count
        assert n_synthetic == 647  # 689 majority - 42 minority
        cfg = ConvGeNConfig(neb=5, neb_epochs=0, seed=1)
        model = ConvGeNModel(cfg).fit(ds)
        assert len(model.synthetic_rows(n_synthetic)) == 647

    def test_provenance_reconstructs_rows(self):
        model, ds = fitted_toy_model(epochs=3)
        for batch in model.generate(30):
            rows = ds.features[batch.source_neighborhood]
            assert np.max(np.abs(batch.coefficients.T @ rows - batch.samples)) < 1e-9

    def test_batch_mean_matches_average_coefficients(self):
        model, ds = fitted_toy_model(epochs=2)
        for batch in model.generate(24):
            rows = ds.features[batch.source_neighborhood]
            mean_coeff = batch.coefficients.mean(axis=1)
            assert np.max(np.abs(batch.samples.mean(axis=0) - mean_coeff @ rows)) < 1e-9

    # none, 4 neb and 4 neb + 3 rows, at most 2 neighborhoods per stack
    @pytest.mark.parametrize("n_synthetic,stack_sizes", [(0, []), (20, [2, 2]),
                                                         (23, [2, 2, 1])])
    def test_matches_a_loop_of_per_neighborhood_forwards_bitwise(self, monkeypatch,
                                                                 n_synthetic, stack_sizes):
        import convgen.model as model_mod
        from convgen.rng import derive_seed

        model, ds = fitted_toy_model(epochs=1)
        neb = model.generator.neb
        # K is 25 elements, the convolution's products 5 x 6: 2 per 60
        monkeypatch.setattr(model_mod, "STACK_ELEMENTS", 60)
        forwards, stacks = [], []
        original, original_stack = Generator.forward, Generator.forward_stack
        monkeypatch.setattr(Generator, "forward",
                            lambda self, n: forwards.append(1) or original(self, n))
        monkeypatch.setattr(Generator, "forward_stack",
                            lambda self, n: stacks.append(len(n)) or original_stack(self, n))
        batches = model.generate(n_synthetic)
        assert forwards == [] and stacks == stack_sizes

        rng = np.random.default_rng(derive_seed(model.config.seed, "generate"))
        remaining, x_pos = n_synthetic, 0
        for batch in batches:
            positions = model._neighbors[x_pos % ds.minority_count].copy()
            rng.shuffle(positions)
            ids = ds.minority_indices[positions]
            k, c = original(model.generator, ds.features[ids])
            take = min(remaining, neb)
            assert batch.source_neighborhood.tolist() == ids.tolist()
            assert batch.samples.tobytes() == c[:take].tobytes()
            assert batch.coefficients.tobytes() == k[:, :take].tobytes()
            remaining -= take
            x_pos += 1
        assert remaining == 0 and x_pos == -(-n_synthetic // neb)

    def test_round_robin_covers_all_neighborhoods(self):
        model, ds = fitted_toy_model(epochs=1)
        batches = model.generate(ds.minority_count * model.generator.neb)
        assert len(batches) == ds.minority_count

    def test_permutation_of_neighborhood_keeps_rows_in_hull(self):
        model, ds = fitted_toy_model(epochs=2)
        rows = ds.features[model._neighborhood_ids(0, np.random.default_rng(0))]
        k1, c1 = model.generator.forward(rows)
        perm = np.random.default_rng(1).permutation(len(rows))
        k2, c2 = model.generator.forward(rows[perm])
        for k, c, r in ((k1, c1, rows), (k2, c2, rows[perm])):
            assert np.max(np.abs(k.T @ r - c)) < 1e-9


def balanced_set(model, ds):
    """The training rows topped up to balance with synthetic minority rows."""
    rows = model.synthetic_rows(ds.majority_count - ds.minority_count)
    return (np.vstack([ds.features, rows]),
            np.concatenate([ds.labels, np.ones(len(rows), dtype=int)]))


class TestDoc:
    def test_default_retraining_epochs(self):
        import convgen.model as model_mod

        assert (model_mod.DOC_EPOCHS, model_mod.DOC_BATCH_SIZE) == (10, 64)

    def test_predictions_are_argmax_of_two_outputs(self):
        model, ds = fitted_toy_model(epochs=2)
        doc = DiscriminatorClassifier(model).fit(*balanced_set(model, ds))
        probs = doc.network.forward(ds.features)
        expected = (probs[:, 0] > probs[:, 1]).astype(int)
        assert np.array_equal(doc.predict(ds.features), expected)

    def test_training_accuracy_at_least_base_rate(self):
        model, ds = fitted_toy_model(epochs=5)
        doc = DiscriminatorClassifier(model).fit(*balanced_set(model, ds))
        accuracy = float(np.mean(doc.predict(ds.features) == ds.labels))
        base_rate = ds.majority_count / ds.n_samples
        assert accuracy >= base_rate

    def test_original_discriminator_untouched(self):
        model, ds = fitted_toy_model(epochs=1)
        before = model.discriminator.layers[0].w.copy()
        model.retrain_doc(*balanced_set(model, ds))
        assert np.array_equal(before, model.discriminator.layers[0].w)

    def test_features_of_another_width_refused(self):
        model, ds = fitted_toy_model(epochs=1)
        features, labels = balanced_set(model, ds)
        with pytest.raises(DataError, match=r"training features must be \(rows, 2\), "
                                            r"got shape \(\d+, 3\)"):
            model.retrain_doc(np.hstack([features, features[:, :1]]), labels)


def test_readme_library_block_runs(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(root)  # the block names its dataset relative to the repo root
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    labels = scope["labels"]
    assert 2 * np.count_nonzero(labels) == len(labels)  # balanced
    assert set(scope["doc"].predict(scope["features"][:20])) <= {0, 1}

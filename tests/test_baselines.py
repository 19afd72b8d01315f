import numpy as np
import pytest

from convgen.baselines import Gan, interpolation_sample, repeater_sample
from convgen.data import DataError, load_synthetic_csv
from conftest import two_blob_dataset


class TestRepeater:
    def test_sequential_cycling(self):
        minority = np.array([[1.0], [2.0]])
        out = repeater_sample(minority, 5)
        assert out[:, 0].tolist() == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_zero_request_is_empty(self):
        assert len(repeater_sample(np.ones((3, 2)), 0)) == 0

    @pytest.mark.parametrize("n", [2.0, True, -1])
    def test_non_integer_or_negative_request_rejected(self, n):
        with pytest.raises(DataError, match="n_synthetic must be an integer >= 0"):
            repeater_sample(np.ones((3, 2)), n)

    def test_restores_exact_balance(self):
        n_min, n_maj = 7, 31
        minority = np.random.default_rng(0).normal(size=(n_min, 3))
        out = repeater_sample(minority, n_maj - n_min)
        assert n_min + len(out) == n_maj

    def test_outputs_are_exact_copies(self):
        minority = np.random.default_rng(1).normal(size=(4, 3))
        out = repeater_sample(minority, 11)
        for row in out:
            assert any(np.array_equal(row, m) for m in minority)


class TestInterpolation:
    def test_endpoints(self):
        minority = np.random.default_rng(2).normal(size=(6, 2))

        class AtZero:
            def integers(self, high, size):
                return np.zeros(size, dtype=int)

            def uniform(self, size):
                return np.zeros(size)

        class AtOne(AtZero):
            def uniform(self, size):
                return np.ones(size)

        at_zero, _ = interpolation_sample(minority, 3, 6, AtZero())
        assert np.allclose(at_zero, minority)
        at_one, pairs = interpolation_sample(minority, 3, 6, AtOne())
        for row, (_, b) in zip(at_one, pairs):
            assert np.allclose(row, minority[b])

    @pytest.mark.parametrize("n", [2.0, True, -1])
    def test_n_synthetic_must_be_a_non_negative_int(self, n):
        with pytest.raises(DataError, match="n_synthetic"):
            interpolation_sample(np.ones((3, 2)), 1, n, np.random.default_rng(0))

    def test_collinearity_oracle(self):
        minority = np.random.default_rng(3).normal(size=(10, 4))
        rng = np.random.default_rng(4)
        samples, pairs = interpolation_sample(minority, 3, 40, rng)
        for row, (a, b) in zip(samples, pairs):
            direction = minority[b] - minority[a]
            offset = row - minority[a]
            # rank-1 residual: offset must be u * direction for some u in [0,1]
            u = offset @ direction / (direction @ direction)
            assert 0.0 <= u <= 1.0
            assert np.max(np.abs(offset - u * direction)) < 1e-9

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            interpolation_sample(np.ones((1, 2)), 1, 3, np.random.default_rng(0))


class TestGan:
    def test_noise_size_for_8_features(self):
        assert Gan(8).noise_size == 128

    def test_layer_sizes_follow_feature_count(self):
        gan = Gan(3, seed=0)
        gen_sizes = [layer.w.shape for layer in gan.generator.layers]
        assert gen_sizes == [(48, 96), (96, 12), (12, 6), (6, 3)]
        disc_sizes = [layer.w.shape for layer in gan.discriminator.layers]
        assert disc_sizes == [(3, 120), (120, 60), (60, 30), (30, 1)]

    def test_generated_rows_bounded_by_alpha(self):
        ds = two_blob_dataset(seed=41)
        minority = ds.features[ds.minority_indices]
        gan = Gan(2, epochs=5, seed=1).train(minority)
        rows = gan.generate(100)
        assert np.max(np.abs(rows)) <= gan.alpha

    def test_saturated_generator_stays_within_alpha_in_float64(self):
        # a huge last layer drives softsign to +-1 in float32; the bound must
        # hold for the float64 rows the harness receives
        over = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            minority = rng.normal(scale=rng.uniform(0.5, 50.0), size=(6, 3))
            gan = Gan(3, epochs=1, seed=seed).train(minority)
            gan.generator.layers[-1].w *= 1e9
            rows = gan.generate(50)
            over += int(np.sum(np.abs(rows.astype(np.float64)) > gan.alpha))
        assert over == 0

    def test_scaling_round_trip(self):
        # a generator that returns the scaled training rows: generate must
        # give the rows back
        feats = np.random.default_rng(6).normal(scale=4.0, size=(25, 3))
        gan = Gan(3, epochs=0).train(feats)
        gan.generator.forward = lambda noise: feats / gan.alpha
        assert np.max(np.abs(gan.generate(len(feats)) - feats)) < 1e-12

    def test_discriminator_learns_against_frozen_generator(self):
        ds = two_blob_dataset(seed=42)
        minority = ds.features[ds.minority_indices]
        gan = Gan(2, epochs=0, seed=2).train(minority)
        real = minority / gan.alpha
        rng = np.random.default_rng(5)
        losses = []
        for _ in range(100):
            noise = rng.uniform(-1, 1, size=(len(real), gan.noise_size))
            fake = gan.generator.forward(noise)  # generator never updates
            batch = np.vstack([real, fake])
            target = np.vstack([np.ones((len(real), 1)), np.zeros((len(fake), 1))])
            pred = gan.discriminator.forward(batch)
            losses.append(gan.discriminator.backward("bce", pred, target))
            gan.discriminator.step()
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_fixed_seed_reproduces_output(self):
        ds = two_blob_dataset(seed=43)
        minority = ds.features[ds.minority_indices]
        a = Gan(2, epochs=3, seed=9).train(minority).generate(10)
        b = Gan(2, epochs=3, seed=9).train(minority).generate(10)
        assert np.array_equal(a, b)

    def test_zero_request_is_empty(self):
        ds = two_blob_dataset(seed=44)
        gan = Gan(2, epochs=1, seed=0)
        gan.train(ds.features[ds.minority_indices])
        assert gan.generate(0).shape == (0, 2)

    @pytest.mark.parametrize("n", [2.0, True, -1, 2.5])
    def test_non_integer_or_negative_request_rejected(self, n):
        ds = two_blob_dataset(seed=44)
        gan = Gan(2, epochs=1).train(ds.features[ds.minority_indices])
        with pytest.raises(DataError, match="n_synthetic must be an integer >= 0"):
            gan.generate(n)

    def test_generate_before_train(self):
        with pytest.raises(DataError):
            Gan(2).generate(1)


class TestAlphaScaling:
    """Gan.train divides the rows by alpha = 1.1 * largest |x|, or by 1 when
    every value is 0."""

    def test_alpha_for_max_entry_two(self):
        feats = np.array([[2.0, -1.0], [0.5, 0.0]])
        assert Gan(2, epochs=0).train(feats).alpha == pytest.approx(2.2)

    def test_alpha_is_one_only_for_all_zero_rows(self):
        feats = np.array([[0.9, -0.9], [0.1, 0.0]])
        assert Gan(2, epochs=0).train(feats).alpha == pytest.approx(0.99)
        assert Gan(2, epochs=0).train(np.zeros((3, 2))).alpha == 1.0

    def test_tiny_rows_generate_within_their_scale(self):
        feats = np.random.default_rng(5).normal(size=(12, 3)) * 1e-8
        largest = float(np.abs(feats).max())
        gan = Gan(3, epochs=20, seed=1).train(feats)
        rows = gan.generate(50)
        assert gan.alpha <= 1.1 * largest
        assert np.all(np.abs(rows) <= gan.alpha)

    def test_scaled_entries_fit_softsign_range(self):
        feats = np.random.default_rng(4).normal(scale=7.0, size=(30, 5))
        scaled = feats / Gan(5, epochs=0).train(feats).alpha
        # brute-force bound check over every entry
        for value in scaled.reshape(-1):
            assert -1.0 <= value <= 1.0
        assert np.max(np.abs(scaled)) <= 1.0 / 1.1 + 1e-12


class TestSyntheticCsv:
    def test_with_and_without_header(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        assert load_synthetic_csv(plain, 2).shape == (2, 2)
        headed = tmp_path / "headed.csv"
        headed.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        assert load_synthetic_csv(headed, 2).shape == (1, 2)

    def test_numeric_first_line_is_data_not_a_header(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("1,2,3\n4,5,6,7\n8,9,10,11\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"short\.csv:1: expected 4 cells, got 3"):
            load_synthetic_csv(short, 4)

    def test_errors_name_the_files_own_line(self, tmp_path):
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("\n1,2\n\n3,4\n\nx,5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"gappy\.csv:6: non-numeric value 'x' in column '1'"):
            load_synthetic_csv(gappy, 2)
        # the first non-blank line is the one that may be a header
        gappy.write_text("\n\na,b\n1,2\n", encoding="utf-8")
        np.testing.assert_array_equal(load_synthetic_csv(gappy, 2), [[1.0, 2.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1.0,2.0\n{cell},2\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"bad\.csv:2: non-finite value '{cell}' in column '1'"):
            load_synthetic_csv(bad, 2)

    def test_wrong_width_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv:1: expected 2 cells, got 3"):
            load_synthetic_csv(bad, 2)

    def test_quoted_cells_load_as_in_a_dataset(self, tmp_path):
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('"a","b"\n"1.5",2\n3,"-4e2"\n', encoding="utf-8")
        np.testing.assert_array_equal(load_synthetic_csv(quoted, 2), [[1.5, 2.0], [3.0, -400.0]])

    def test_header_names_the_faulty_column(self, tmp_path):
        headed = tmp_path / "headed.csv"
        headed.write_text("a,b\n1,2\n3,inf\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"headed\.csv:3: non-finite value 'inf' in column 'b'"):
            load_synthetic_csv(headed, 2)

    def test_header_of_the_wrong_width_rejected(self, tmp_path):
        headed = tmp_path / "headed.csv"
        headed.write_text("a,b,c\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"headed\.csv:1: expected 2 cells, got 3"):
            load_synthetic_csv(headed, 2)

    @pytest.mark.parametrize("text", ["", "\n\n", "a,b\n"], ids=["empty", "blank", "header-only"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=r"empty\.csv: no synthetic rows"):
            load_synthetic_csv(empty, 2)

import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convgen
from convgen.baselines import Gan
from convgen.data import (DataError, Dataset, load_csv, load_json_object, load_synthetic_csv,
                          open_text, stratified_kfold)
from convgen.rng import MASK64, shuffle, splitmix64

from conftest import reference_shuffle


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

    def test_quoted_numeric_cells(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", 'a,b,y\n"1.5",2,"1"\n3,"-4e2",0\n')
        ds = load_csv(path, "y", "1")
        assert ds.features.tolist() == [[1.5, 2.0], [3.0, -400.0]]
        assert ds.labels.tolist() == [1, 0]

    def test_blank_lines_in_the_middle_are_skipped(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", "a,y\n1,1\n\n\n2,0\n\n3,0\n")
        ds = load_csv(path, "y", "1")
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert ds.labels.tolist() == [1, 0, 0]

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", "a,b,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "y", "1")

    def test_label_column_in_the_middle(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", "a,y,b,c\n1,1,2,3\n4,0,5,6\n7,0,8,x\n")
        with pytest.raises(DataError, match=r"m\.csv:4: non-numeric value 'x' in column 'c'"):
            load_csv(path, "y", "1")
        path = write_csv(tmp_path / "m.csv", "a,y,b,c\n1,1,2,3\n4,0,5,6\n")
        ds = load_csv(path, "y", "1")
        assert ds.features.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert ds.labels.tolist() == [1, 0]

    def test_first_faulty_line_is_named(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,b,y\n1,2,1\n3,oops,0\n5,6,0\n7,0\n8,9,0\n")
        with pytest.raises(DataError, match=r"f\.csv:3: non-numeric value 'oops' in column 'b'"):
            load_csv(path, "y", "1")
        path = write_csv(tmp_path / "f.csv", "a,b,y\n1,2,1\n3,4,0\n5,6,0\n7,0\n8,oops,0\n")
        with pytest.raises(DataError, match=r"f\.csv:5: expected 3 cells, got 2"):
            load_csv(path, "y", "1")
        # a quoted cell holding a newline: rows are named by the line they start on
        path = write_csv(tmp_path / "ml.csv", 'a,b,cls\n"1\n",2,pos\n3,4,neg\n5,x,neg\n')
        with pytest.raises(DataError, match=r"ml\.csv:5: non-numeric value 'x' in column 'b'"):
            load_csv(path, "cls", "pos")
        path = write_csv(tmp_path / "mls.csv", '"1\n",2\n5,x\n')
        with pytest.raises(DataError, match=r"mls\.csv:3: non-numeric value 'x' in column '2'"):
            load_synthetic_csv(path, 2)

    def test_missing_file_names_the_path(self, tmp_path):
        path = str(tmp_path / "nope.csv")
        with pytest.raises(DataError, match="nope.csv: cannot open: No such file or directory"):
            load_csv(path, "y", "1")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path / "n.csv", f"a,b,y\n1,2,1\n3,4,0\n{cell},5,0\n")
        with pytest.raises(DataError, match=rf"n\.csv:4: non-finite value '{cell}' in column 'a'"):
            load_csv(path, "y", "1")

    def test_first_faulty_cell_is_named_whatever_its_fault(self, tmp_path):
        path = write_csv(tmp_path / "n.csv", "a,b,y\n1,nan,1\n3,x,0\n")
        with pytest.raises(DataError, match=r"n\.csv:2: non-finite value 'nan' in column 'b'"):
            load_csv(path, "y", "1")
        path = write_csv(tmp_path / "n.csv", "a,b,y\n1,x,1\n3,nan,0\n")
        with pytest.raises(DataError, match=r"n\.csv:2: non-numeric value 'x' in column 'b'"):
            load_csv(path, "y", "1")


class TestLoadJsonObject:
    def test_object_returned(self, tmp_path):
        path = write_csv(tmp_path / "c.json", '{"a": [1, 2.5], "b": null}')
        assert load_json_object(path, "config") == {"a": [1, 2.5], "b": None}

    @pytest.mark.parametrize("text,message", [
        ("{", "c.json: config is not JSON: Expecting property name"),
        ("[1, 2]", "c.json: config is a JSON list, not an object"),
        ('"x"', "c.json: config is a JSON str, not an object"),
        ("", "c.json: config is not JSON: Expecting value"),
    ], ids=["truncated", "list", "string", "empty"])
    def test_malformed_file_names_the_file_and_what_it_holds(self, tmp_path, text, message):
        path = write_csv(tmp_path / "c.json", text)
        with pytest.raises(DataError, match=message):
            load_json_object(path, "config")

    def test_unreadable_file_names_the_path(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"{tmp_path}: cannot open: Is a directory")):
            load_json_object(tmp_path, "config")
        with pytest.raises(DataError, match="nope.json: cannot open: No such file"):
            load_json_object(tmp_path / "nope.json", "config")
        path = tmp_path / "c.json"
        path.write_bytes(b'{"caf\xe9": 1}')
        with pytest.raises(DataError, match="c.json: not UTF-8 text: cannot decode byte 0xe9"):
            load_json_object(path, "config")


@pytest.mark.parametrize("path", [1, True, b"x.csv", None])
def test_open_text_refuses_a_path_that_is_not_a_str_or_path_like(path):
    # the builtin open would take 1 (and True) as file descriptor 1 and close it
    with pytest.raises(DataError, match=re.escape(f"{path!r}: not a file path")):
        with open_text(path):
            pass
    os.fstat(1)  # stdout is still open


def test_only_data_opens_files_or_makes_directories():
    """Every file convgen reads or writes, and its output directory, go
    through `data`, so one rule decides how an I/O fault reads."""
    calls = []
    for path in sorted(Path(convgen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func in ("open", "os.makedirs"):
                    calls.append((path.name, func))
    assert {name for name, _ in calls} == {"data.py"}, calls
    assert {func for _, func in calls} == {"open", "os.makedirs"}


def _unshift(z: int, k: int) -> int:
    """Inverse of z ^ (z >> k) on 64 bits."""
    x = z
    for _ in range(64 // k):
        x = z ^ (x >> k)
    return x


def _unmix(out: int) -> int:
    """The splitmix64 state whose output is `out` (the output mix inverted)."""
    z = _unshift(out, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    return _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)


class TestShuffle:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 3000), st.integers(0, MASK64))
    def test_matches_the_scalar_loop(self, n, seed):
        items, expected = list(range(n)), list(range(n))
        assert shuffle(items, seed) == reference_shuffle(expected, seed)
        assert items == expected

    def test_rejected_draw_spends_one_state(self):
        # the first draw from this seed is 2**64 - 1, in the incomplete top
        # block for the 3-item shuffle's first index (2**64 mod 3 == 1)
        seed = (_unmix(MASK64) - 0x9E3779B97F4A7C15) & MASK64
        assert splitmix64(seed)[1] == MASK64
        items, expected = ["a", "b", "c"], ["a", "b", "c"]
        state = shuffle(items, seed)
        assert state == reference_shuffle(expected, seed)
        assert items == expected
        assert state == (seed + 3 * 0x9E3779B97F4A7C15) & MASK64  # 1 rejected + 2 kept


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

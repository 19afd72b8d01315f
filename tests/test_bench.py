import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from convgen.bench import (
    SPEC_KEYS,
    BenchmarkConfig,
    DatasetSpec,
    Spec,
    _worker_pool,
    dump_report,
    FoldResult,
    emit_report,
    make_classifier,
    oversample_fold,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
    run_fold,
)
from convgen.classifiers import DiscriminatorClassifier, KNNClassifier
from convgen.data import DataError, Dataset, load_csv, stratified_kfold
from convgen.metrics import cohen_kappa, confusion, f1_minority
from convgen.model import ConvGeNModel
from convgen.rng import derive_seed

from conftest import two_blob_dataset


def write_toy_csv(path, seed=7, n_majority=40, n_minority=8):
    ds = two_blob_dataset(seed=seed, n_majority=n_majority, n_minority=n_minority)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,cls\n")
        for row, label in zip(ds.features, ds.labels):
            tag = "pos" if label == 1 else "neg"
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{tag}\n")
    return ds


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_toy_csv(path)
    return str(path)


def toy_config(csv_path, oversamplers, classifiers, n_folds=2, n_shuffles=2, seed=11,
               dataset_name="toy"):
    return BenchmarkConfig(
        datasets=(DatasetSpec(csv_path, "cls", "pos", dataset_name),),
        oversamplers=tuple(oversamplers),
        classifiers=tuple(classifiers),
        n_folds=n_folds,
        n_shuffles=n_shuffles,
        seed=seed,
    )


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def build_config(monkeypatch, toy_csv):
    """Builds the toy config around one oversampler and one classifier entry;
    loading a dataset or running a fold meanwhile fails the test."""
    import convgen.bench as bench

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(DatasetSpec, "load", no_work)
    monkeypatch.setattr(bench, "run_fold", no_work)
    monkeypatch.setattr(bench, "oversample_fold", no_work)

    def build(oversampler=Spec("rep", "repeater"), classifier=Spec("knn", "knn"),
              dataset_name="toy"):
        return toy_config(toy_csv, [oversampler], [classifier], dataset_name=dataset_name)
    return build


class TestConfig:
    def test_from_json_defaults(self, tmp_path, toy_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datasets": [{"path": toy_csv, "label_column": "cls", "minority_label": "pos"}],
            "oversamplers": [{"kind": "repeater"}, {"kind": "convgen", "preset": "min,maj", "name": "cg"}],
            "classifiers": ["knn", {"kind": "logreg", "name": "lr"}],
        }))
        cfg = BenchmarkConfig.from_json(cfg_path)
        assert cfg.n_folds == 5 and cfg.n_shuffles == 5 and cfg.seed == 0
        assert cfg.datasets[0].name == "toy"
        assert cfg.oversamplers[1].name == "cg"
        assert cfg.oversamplers[1].params == {"preset": "min,maj"}
        assert [c.name for c in cfg.classifiers] == ["knn", "lr"]

    def test_bare_kind_strings_in_both_lists(self, tmp_path, toy_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datasets": [{"path": toy_csv, "label_column": "cls", "minority_label": "pos"}],
            "oversamplers": ["repeater", {"kind": "interpolation", "k": 3}],
            "classifiers": ["knn"],
        }))
        cfg = BenchmarkConfig.from_json(cfg_path)
        assert cfg.oversamplers == (Spec("repeater", "repeater"),
                                    Spec("interpolation", "interpolation", {"k": 3}))
        assert cfg.classifiers == (Spec("knn", "knn"),)

    def test_duplicate_names_rejected(self, toy_csv):
        rep, knn = Spec("rep", "repeater"), Spec("knn", "knn")
        with pytest.raises(DataError, match="unique"):
            toy_config(toy_csv, [rep, Spec("rep", "interpolation")], [knn])
        with pytest.raises(DataError, match="unique"):
            toy_config(toy_csv, [rep], [knn, Spec("knn", "logreg")])

    def test_readme_config_block_passes_the_key_gate(self, tmp_path):
        with open("README.md", encoding="utf-8") as fh:
            readme = fh.read()
        block = re.search(r"### Config format\n\n```json\n(.*?)```", readme, re.S).group(1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(block)
        cfg = BenchmarkConfig.from_json(cfg_path)
        assert {spec.kind for spec in cfg.oversamplers} <= set(SPEC_KEYS["oversamplers"])
        assert {spec.kind for spec in cfg.classifiers} <= set(SPEC_KEYS["classifiers"])

    def test_benchmark_configs_pass_the_gate(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert paths and workloads.WORKLOADS
        for name, workload in workloads.WORKLOADS.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({**workload["config"], "seed": 0}))
        for path in paths:
            cfg = BenchmarkConfig.from_json(path)
            assert cfg.oversamplers and cfg.classifiers, path

    def test_kind_outside_its_list_rejected(self, build_config):
        with pytest.raises(DataError, match=r"knn 'knn' in oversamplers: unknown kind"):
            build_config(oversampler=Spec("knn", "knn"))
        with pytest.raises(DataError, match=r"repeater 'rep' in classifiers: unknown kind"):
            build_config(classifier=Spec("rep", "repeater"))
        with pytest.raises(DataError, match=r"smote 'x' in oversamplers: unknown kind; "
                                            r"choose from \['convgen', "):
            build_config(oversampler=Spec("x", "smote"))
        # from-file rows and external labels are made outside the fold, where
        # the leakage audit cannot see them
        with pytest.raises(DataError, match=re.escape(
                "from-file 'ff' in oversamplers: unknown kind; "
                f"choose from {sorted(SPEC_KEYS['oversamplers'])}")):
            build_config(oversampler=Spec("ff", "from-file", {"path": "rows.csv"}))
        with pytest.raises(DataError, match=re.escape(
                "external 'ext' in classifiers: unknown kind; "
                f"choose from {sorted(SPEC_KEYS['classifiers'])}")):
            build_config(classifier=Spec("ext", "external", {"dir": "preds"}))

    def test_non_string_kind_or_name_rejected(self, build_config):
        with pytest.raises(DataError, match=r"classifiers\[0\] is malformed: "
                                            r"non-string name=\['knn'\], kind=\['knn'\]"):
            build_config(classifier=Spec(["knn"], ["knn"]))
        with pytest.raises(DataError, match=r"oversamplers\[0\] is malformed: non-string name=5"):
            build_config(oversampler=Spec(5, "repeater"))
        with pytest.raises(DataError, match=r"datasets\[0\] is malformed: non-string "
                                            r"name=\['a'\]"):
            build_config(dataset_name=["a"])

    @pytest.mark.parametrize("key,name", [
        ("datasets", "a/b"), ("oversamplers", "b/c"), ("classifiers", "c/knn"),
        ("datasets", "a|b"), ("oversamplers", "b|c"), ("classifiers", "c|knn"),
        ("datasets", "a\rb"), ("oversamplers", "b\nc"), ("classifiers", "c\tknn"),
        ("datasets", "a\x00b"), ("oversamplers", "b\u2028c"),
    ])
    def test_name_that_would_break_a_report_file_rejected(self, build_config, key, name):
        # timings.json keys join names with "/", and report.md cells are split by "|"
        entry = {"datasets": {"dataset_name": name},
                 "oversamplers": {"oversampler": Spec(name, "repeater")},
                 "classifiers": {"classifier": Spec(name, "knn")}}[key]
        with pytest.raises(DataError, match=re.escape(
                f"{key}[0] name {name!r} holds '/', '|' or an unprintable character")):
            build_config(**entry)

    def test_env_seed_override(self, tmp_path, toy_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datasets": [{"path": toy_csv, "label_column": "cls", "minority_label": "pos"}],
            "oversamplers": [{"kind": "repeater"}],
            "classifiers": ["knn"],
            "seed": 3,
        }))
        assert BenchmarkConfig.from_json(cfg_path).seed == 3
        # an explicit override wins over the config
        assert BenchmarkConfig.from_json(cfg_path, seed_override=7).seed == 7
        assert BenchmarkConfig.from_json(cfg_path, seed_override=-7).seed == -7

    @pytest.mark.parametrize("key,value", [
        ("n_folds", 1), ("n_folds", 0), ("n_folds", 2.5), ("n_folds", True),
        ("n_shuffles", 0), ("n_shuffles", -1), ("n_shuffles", 1.0), ("n_shuffles", "2"),
        ("seed", 1.5), ("seed", True), ("seed", None),
    ])
    def test_bad_grid_settings_rejected_on_load(self, tmp_path, toy_csv, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datasets": [{"path": toy_csv, "label_column": "cls", "minority_label": "pos"}],
            "oversamplers": ["repeater"],
            "classifiers": ["knn"],
            key: value,
        }))
        with pytest.raises(DataError, match=f"{key} must be an integer >= "):
            BenchmarkConfig.from_json(cfg_path)

    @pytest.mark.parametrize("raw,pattern", [
        ({"datasets": [{"path": "d.csv", "minority_label": "1"}],
          "oversamplers": ["repeater"], "classifiers": ["knn"]},
         r"datasets\[0\] lacks key 'label_column'"),
        ([{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
         "config is a JSON list, not an object"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
          "oversamplers": ["repeater", {"name": "ip", "k": 3}], "classifiers": ["knn"]},
         r"oversamplers\[1\] lacks key 'kind'"),
        ({"datasets": ["d.csv"], "oversamplers": ["repeater"], "classifiers": ["knn"]},
         r"datasets\[0\] is malformed: 'd.csv'"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
          "oversamplers": ["repeater"], "classifiers": ["knn", 3]},
         r"classifiers\[1\] is malformed: 3"),
        ('{"datasets": [', "config is not JSON: "),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
          "oversamplers": ["repeater"], "classifiers": [{"kind": "knn", "k": 0}]},
         r"knn 'knn' in classifiers: k must be an integer >= 1, got 0"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
          "oversamplers": ["repeater"], "classifiers": [{"kind": ["knn"]}]},
         r"classifiers\[0\] is malformed: non-string name=\['knn'\], kind=\['knn'\]"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1"}],
          "oversamplers": [{"kind": "repeater", "name": 5}], "classifiers": ["knn"]},
         r"oversamplers\[0\] is malformed: non-string name=5"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1",
                        "name": ["a"]}],
          "oversamplers": ["repeater"], "classifiers": ["knn"]},
         r"datasets\[0\] is malformed: non-string name=\['a'\]"),
        ({"datasets": [{"path": "d.csv", "label_column": "label", "minority_label": "1",
                        "sep": ";"}],
          "oversamplers": ["repeater"], "classifiers": ["knn"]},
         r"datasets\[0\] has unknown key\(s\) \['sep'\]"),
        ({"datasets": [], "oversamplers": None, "classifiers": ["knn"]},
         "oversamplers must be a list, got None"),
        ({"datasets": [], "oversamplers": 5, "classifiers": ["knn"]},
         "oversamplers must be a list, got 5"),
        ({"datasets": [], "oversamplers": "repeater", "classifiers": ["knn"]},
         "oversamplers must be a list, got 'repeater'"),
        ({"datasets": [], "oversamplers": {"kind": "repeater"}, "classifiers": ["knn"]},
         r"oversamplers must be a list, got \{'kind': 'repeater'\}"),
    ], ids=["dataset-without-label-column", "top-level-list", "oversampler-without-kind",
            "dataset-not-an-object", "classifier-not-an-object-or-string", "not-json",
            "knn-k-zero", "list-kind", "int-name", "list-dataset-name", "dataset-unknown-key",
            "null-list", "number-list", "string-list", "object-list"])
    def test_malformed_file_rejected_naming_the_file_and_entry(self, tmp_path, raw, pattern):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(DataError, match=re.escape(str(cfg_path)) + ": " + pattern):
            BenchmarkConfig.from_json(cfg_path)

    def test_unreadable_file_rejected_naming_the_file(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"{tmp_path}: cannot open: Is a directory")):
            BenchmarkConfig.from_json(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"caf\xe9": 1}')
        with pytest.raises(DataError, match=r"cfg\.json: not UTF-8 text: cannot decode byte 0xe9"):
            BenchmarkConfig.from_json(cfg_path)

    @pytest.mark.parametrize("key", ["datasets", "oversamplers", "classifiers"])
    def test_empty_list_rejected(self, tmp_path, toy_csv, key):
        raw = {
            "datasets": [{"path": toy_csv, "label_column": "cls", "minority_label": "pos"}],
            "oversamplers": ["repeater"],
            "classifiers": ["knn"],
        }
        raw[key] = []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=f"cfg.json: {key} must list at least one entry"):
            BenchmarkConfig.from_json(cfg_path)
        del raw[key]
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=f"{key} must list at least one entry"):
            BenchmarkConfig.from_json(cfg_path)


class TestOversampleFold:
    def test_repeater_balance_and_provenance(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 2, 1, seed=5)
        train_ids = plan.train_indices(0, 0)
        train = toy_dataset.subset(train_ids)
        n_syn = train.majority_count - train.minority_count
        res = oversample_fold(Spec("rep", "repeater"), train, train_ids, n_syn, 1)
        assert res.synthetic.shape == (n_syn, 2)
        assert set(res.provenance) <= set(train_ids)
        minority_rows = train.features[train.minority_indices]
        np.testing.assert_array_equal(res.synthetic[0], minority_rows[0])

    def test_interpolation_provenance_subset(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 2, 1, seed=5)
        train_ids = plan.train_indices(0, 0)
        train = toy_dataset.subset(train_ids)
        res = oversample_fold(Spec("ip", "interpolation"), train, train_ids, 10, 1)
        minority_ids = train_ids[train.minority_indices]
        assert set(res.provenance) <= set(minority_ids)

    def test_convgen_provenance_and_doc(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 2, 1, seed=5)
        train_ids = plan.train_indices(0, 0)
        train = toy_dataset.subset(train_ids)
        spec = Spec("cg", "convgen", {"preset": "5,maj", "neb_epochs": 2})
        res = oversample_fold(spec, train, train_ids, 12, seed=3)
        assert res.synthetic.shape == (12, 2)
        assert set(res.provenance) <= set(train_ids)
        assert isinstance(res.model, ConvGeNModel)

    @pytest.mark.parametrize("kind,params,key", [
        ("repeater", {"k": 3}, "k"),
        ("interpolation", {"kk": 1}, "kk"),
        ("gan", {"epochs": 2, "lr": 0.1}, "lr"),
        ("interpolation", {"k": 3, "path": "rows.csv"}, "path"),  # from-file's key, now no kind's
        ("convgen", {"neb_epoch": 1}, "neb_epoch"),
        ("convgen", {"preset": "5,maj", "seed": 3}, "seed"),
        ("convgen", {"k_prime": 3}, "k_prime"),
    ])
    def test_unknown_key_rejected(self, build_config, kind, params, key):
        with pytest.raises(DataError, match=f"{kind} 'o' in oversamplers: unknown key.*'{key}'"):
            build_config(oversampler=Spec("o", kind, params))

    @pytest.mark.parametrize("kind,key,value", [
        ("interpolation", "k", "5"),
        ("interpolation", "k", 2.7),
        ("interpolation", "k", 0),
        ("interpolation", "k", True),
        ("gan", "epochs", "300"),
        ("gan", "epochs", 2.0),
        ("gan", "epochs", -1),
        ("gan", "epochs", False),
    ])
    def test_count_value_must_be_positive_int(self, build_config, kind, key, value):
        with pytest.raises(DataError, match=f"{kind} 'o' in oversamplers: "
                                            f"{key} must be an integer >= 1, got {value!r}"):
            build_config(oversampler=Spec("o", kind, {key: value}))

    @pytest.mark.parametrize("key,value", [
        ("maj_proximal", "no"),
        ("disc_train_count", True),
        ("neb_epochs", 2.5),
        ("neb_epochs", "2"),
        ("neb", 5.0),
        ("neb", True),
        ("maj_proximal", 1),
        ("disc_train_count", -1),
        ("k_prime", 0),
        ("k_prime", 1.5),
        ("preset", "6,maj"),
        ("preset", ["5,maj"]),
        ("preset", None),  # a falsy preset is refused, not read as "no preset"
        ("preset", ""),
        ("preset", 0),
        ("preset", False),
        ("preset", []),
    ])
    def test_convgen_value_types_rejected(self, build_config, key, value):
        # k_prime is no longer a setting: any value of it is refused as an unknown key
        pattern = (f"unknown key.*'{key}'" if key == "k_prime"
                   else re.escape(key) + ".*" + re.escape(repr(value)))
        with pytest.raises(DataError, match="convgen 'cg' in oversamplers: .*" + pattern):
            build_config(oversampler=Spec("cg", "convgen", {key: value}))

    @pytest.mark.parametrize("kind", sorted(SPEC_KEYS["oversamplers"]))
    def test_every_kind_returns_auditable_provenance(self, toy_dataset, kind):
        params = {"convgen": {"preset": "5,maj", "neb_epochs": 1}, "gan": {"epochs": 1}}
        plan = stratified_kfold(toy_dataset, 2, 1, seed=5)
        train_ids = plan.train_indices(0, 0)
        train = toy_dataset.subset(train_ids)
        n_syn = train.majority_count - train.minority_count
        res = oversample_fold(Spec("o", kind, params.get(kind, {})), train, train_ids, n_syn, 1)
        assert len(res.synthetic) == n_syn
        assert res.provenance.dtype.kind in "iu" and len(res.provenance)
        assert np.isin(res.provenance, train_ids).all()

    def test_unknown_kind_rejected(self, toy_dataset):
        plan = stratified_kfold(toy_dataset, 2, 1, seed=5)
        train_ids = plan.train_indices(0, 0)
        with pytest.raises(DataError):
            oversample_fold(Spec("x", "smote"),
                            toy_dataset.subset(train_ids), train_ids, 4, 1)


def degenerate_dataset(case):
    """30 majority rows and a minority class that is degenerate in one way."""
    rng = np.random.default_rng(17)
    majority = rng.normal(size=(30, 3))
    minority = rng.normal(2.0, 0.5, size=(8, 3))
    if case == "two-row-minority":
        minority = minority[:2]
    elif case == "identical-minority":
        minority = np.repeat(minority[:1], 6, axis=0)
    features = np.vstack([majority, minority])
    if case == "constant-column":
        features[:, 1] = 4.0
    elif case == "scale-1e12":
        features *= 1e12
    return Dataset(features, np.array([0] * 30 + [1] * len(minority)), case)


class TestDegenerateData:
    @pytest.mark.parametrize("case", [
        "two-row-minority", "identical-minority", "constant-column", "scale-1e12",
    ])
    @pytest.mark.parametrize("spec", [
        Spec("cg", "convgen", {"preset": "5,maj", "neb_epochs": 2}),
        Spec("cg", "convgen", {"preset": "min,prox", "neb_epochs": 2}),
        Spec("gan", "gan", {"epochs": 20}),
    ], ids=["convgen-5-maj", "convgen-min-prox", "gan"])
    def test_trains_to_finite_output(self, case, spec):
        train = degenerate_dataset(case)
        n_syn = train.majority_count - train.minority_count
        res = oversample_fold(spec, train, np.arange(train.n_samples), n_syn, seed=5)
        assert res.synthetic.shape == (n_syn, train.n_features)
        assert np.all(np.isfinite(res.synthetic))
        if res.model is not None:
            doc = DiscriminatorClassifier(res.model).fit(
                np.vstack([train.features, res.synthetic]),
                np.concatenate([train.labels, np.ones(n_syn, dtype=int)]),
            )
            assert np.all(np.isfinite(doc.network.forward(train.features)))
            assert set(doc.predict(train.features)) <= {0, 1}


class TestMakeClassifier:
    def test_allowed_key_is_used(self):
        clf = make_classifier(Spec("knn3", "knn", {"k": 3}), FoldResult(None, None))
        assert clf.k == 3

    @pytest.mark.parametrize("kind,params,keys", [
        ("knn", {"k": 3, "weights": "distance"}, ["weights"]),
        ("logreg", {"lr": 5.0, "iterations": 1}, ["iterations", "lr"]),
        ("doc", {"epochs": 3}, ["epochs"]),
        ("knn", {"k": 3, "dir": "preds"}, ["dir"]),  # external's key, now no kind's
    ])
    def test_unknown_key_rejected(self, build_config, kind, params, keys):
        with pytest.raises(DataError, match=f"{kind} 'c' in classifiers: unknown key") as info:
            build_config(classifier=Spec("c", kind, params))
        assert str(keys) in str(info.value)

    @pytest.mark.parametrize("value", ["5", 2.7, 0, -3, True])
    def test_knn_k_must_be_positive_int(self, build_config, value):
        with pytest.raises(DataError, match=f"knn 'knn' in classifiers: k must be an integer >= 1, "
                                            f"got {value!r}"):
            build_config(classifier=Spec("knn", "knn", {"k": value}))

    def test_numpy_integer_k_accepted(self, build_config):
        spec = Spec("knn", "knn", {"k": np.int64(3)})
        assert build_config(classifier=spec).classifiers == (spec,)
        assert make_classifier(spec, FoldResult(None, None)).k == 3


class TestRunFold:
    def test_matches_hand_driven_pipeline(self, toy_csv):
        cfg = toy_config(toy_csv, [Spec("rep", "repeater")],
                         [Spec("knn", "knn")], n_folds=2, n_shuffles=1)
        dataset = cfg.datasets[0].load()
        plan = stratified_kfold(dataset, 2, 1, derive_seed(cfg.seed, "folds", "toy"))
        scores = run_fold(cfg, dataset, plan, cfg.oversamplers[0], shuffle=0, fold=1)

        # replicate the fold by hand: repeat minority rows up to balance,
        # fit kNN, score the held-out fold
        train_ids = plan.train_indices(0, 1)
        test_ids = plan.test_indices(0, 1)
        train = dataset.subset(train_ids)
        minority = train.features[train.minority_indices]
        n_syn = train.majority_count - train.minority_count
        synthetic = minority[np.arange(n_syn) % len(minority)]
        features = np.vstack([train.features, synthetic])
        labels = np.concatenate([train.labels, np.ones(n_syn, dtype=int)])
        clf = KNNClassifier(k=5).fit(features, labels)
        cm = confusion(dataset.labels[test_ids], clf.predict(dataset.features[test_ids]))

        assert scores["knn"]["f1"] == f1_minority(cm)
        assert scores["knn"]["kappa"] == cohen_kappa(cm)

    def test_leakage_guard_trips(self, toy_csv, monkeypatch):
        import convgen.bench as bench

        cfg = toy_config(toy_csv, [Spec("rep", "repeater")],
                         [Spec("knn", "knn")])
        dataset = cfg.datasets[0].load()
        plan = stratified_kfold(dataset, 2, 1, seed=1)
        test_ids = plan.test_indices(0, 0)

        def leaky(spec, train, train_ids, n_syn, seed):
            res = oversample_fold(spec, train, train_ids, n_syn, seed)
            res.provenance = np.append(res.provenance, test_ids[0])
            return res

        monkeypatch.setattr(bench, "oversample_fold", leaky)
        with pytest.raises(DataError, match="held-out"):
            run_fold(cfg, dataset, plan, cfg.oversamplers[0], 0, 0)

    @pytest.mark.parametrize("extra", [
        lambda ids, n: [-1],
        lambda ids, n: [n, n + 3],
        lambda ids, n: [ids[1]] * 4,
        lambda ids, n: [ids[3], -7, ids[0], 2 * n, ids[3], ids[2], ids[1], -7],
    ], ids=["negative", "beyond-the-dataset", "repeated-held-out", "more-than-five"])
    def test_leak_names_the_sorted_unique_held_out_ids(self, toy_csv, monkeypatch, extra):
        import convgen.bench as bench

        cfg = toy_config(toy_csv, [Spec("rep", "repeater")], [Spec("knn", "knn")])
        dataset = cfg.datasets[0].load()
        plan = stratified_kfold(dataset, 2, 1, seed=1)
        leaked = np.array(extra(plan.test_indices(0, 0), dataset.n_samples))

        def leaky(spec, train, train_ids, n_syn, seed):
            res = oversample_fold(spec, train, train_ids, n_syn, seed)
            res.provenance = np.concatenate([res.provenance[:3], leaked, res.provenance[3:]])
            return res

        monkeypatch.setattr(bench, "oversample_fold", leaky)
        with pytest.raises(DataError) as err:
            run_fold(cfg, dataset, plan, cfg.oversamplers[0], 0, 0)
        assert str(err.value) == f"oversampler touched held-out rows {np.unique(leaked)[:5]}"

    def test_in_fold_provenance_with_duplicates_passes(self, toy_csv, monkeypatch):
        import convgen.bench as bench

        cfg = toy_config(toy_csv, [Spec("rep", "repeater")], [Spec("knn", "knn")])
        dataset = cfg.datasets[0].load()
        plan = stratified_kfold(dataset, 2, 1, seed=1)
        train_ids = plan.train_indices(0, 0)

        def repeated(spec, train, ids, n_syn, seed):
            res = oversample_fold(spec, train, ids, n_syn, seed)
            res.provenance = np.concatenate([train_ids[::-1], train_ids, train_ids[:1].repeat(5)])
            return res

        monkeypatch.setattr(bench, "oversample_fold", repeated)
        assert "f1" in run_fold(cfg, dataset, plan, cfg.oversamplers[0], 0, 0)["knn"]

    def test_doc_without_convgen_fails_per_cell(self, toy_csv):
        cfg = toy_config(toy_csv, [Spec("rep", "repeater")],
                         [Spec("doc", "doc"), Spec("knn", "knn")])
        dataset = cfg.datasets[0].load()
        plan = stratified_kfold(dataset, 2, 1, seed=1)
        scores = run_fold(cfg, dataset, plan, cfg.oversamplers[0], 0, 0)
        assert "error" in scores["doc"]
        assert "f1" in scores["knn"]  # the failure does not poison siblings

    @staticmethod
    def convgen_doc_config(toy_csv):
        return toy_config(toy_csv, [Spec("cg", "convgen", {"preset": "5,maj", "neb_epochs": 1})],
                          [Spec("logreg", "logreg"), Spec("doc", "doc")],
                          n_folds=2, n_shuffles=1)

    def test_convgen_generates_once_per_fold_with_doc(self, toy_csv, monkeypatch):
        calls = []
        generate = ConvGeNModel.generate

        def spy(self, n_synthetic):
            calls.append(n_synthetic)
            return generate(self, n_synthetic)

        monkeypatch.setattr(ConvGeNModel, "generate", spy)
        report, _ = run_benchmark(self.convgen_doc_config(toy_csv))
        assert [cell["status"] for cell in report["cells"]] == ["ok", "ok"]
        assert len(calls) == 2  # two folds, one generate each

    def test_doc_retrains_on_the_fold_balanced_set(self, toy_csv, monkeypatch):
        generated, retrained = [], []
        generate, retrain_doc = ConvGeNModel.generate, ConvGeNModel.retrain_doc

        def spy_generate(self, n_synthetic):
            generated.append(generate(self, n_synthetic))
            return generated[-1]

        def spy_retrain_doc(self, features, labels, **kwargs):
            retrained.append((self.dataset, features, labels))
            return retrain_doc(self, features, labels, **kwargs)

        monkeypatch.setattr(ConvGeNModel, "generate", spy_generate)
        monkeypatch.setattr(ConvGeNModel, "retrain_doc", spy_retrain_doc)
        report, _ = run_benchmark(self.convgen_doc_config(toy_csv))
        assert [cell["status"] for cell in report["cells"]] == ["ok", "ok"]
        assert len(retrained) == 2
        for batches, (train, features, labels) in zip(generated, retrained):
            rows = np.vstack([b.samples for b in batches])
            assert np.array_equal(features, np.vstack([train.features, rows]))
            assert np.array_equal(labels, np.concatenate([train.labels, np.ones(len(rows))]))


class TestRunBenchmark:
    def test_grid_shape_and_means(self, toy_csv):
        cfg = toy_config(
            toy_csv,
            [Spec("rep", "repeater"), Spec("ip", "interpolation")],
            [Spec("knn", "knn"), Spec("lr", "logreg")],
            n_folds=2, n_shuffles=2,
        )
        report, timings = run_benchmark(cfg)
        assert len(report["cells"]) == 1 * 2 * 2
        for cell in report["cells"]:
            assert cell["status"] == "ok"
            assert len(cell["folds"]) == cfg.n_folds * cfg.n_shuffles
            f1s = [e["f1"] for e in cell["folds"]]
            assert cell["f1_mean"] == pytest.approx(np.mean(f1s))
            assert cell["f1_std"] == pytest.approx(np.std(f1s))
            assert "_seconds" not in json.dumps(cell)
        assert len(timings["cells"]) == len(report["cells"])

    def test_minority_label_of_the_larger_class_stops_the_load(self, toy_csv, tmp_path,
                                                                monkeypatch):
        import convgen.bench as bench

        ran = []
        monkeypatch.setattr(bench, "run_fold", lambda *args: ran.append(args))
        cfg = BenchmarkConfig((DatasetSpec(toy_csv, "cls", "neg", "toy"),),
                              (Spec("rep", "repeater"),), (Spec("knn", "knn"),), n_folds=2)
        with pytest.raises(DataError, match=re.escape(
                f"{toy_csv}: minority_label 'neg' names the larger class (40 rows against 8)")):
            run_benchmark(cfg)
        assert not ran
        # library loads take either class; equal classes pass the check
        assert load_csv(toy_csv, "cls", "neg").minority_count == 40
        even = tmp_path / "even.csv"
        write_toy_csv(even, n_majority=8, n_minority=8)
        cfg = replace(cfg, datasets=(DatasetSpec(str(even), "cls", "neg", "even"),))
        assert cfg.load_datasets()["even"].minority_count == 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_given_datasets_give_the_loaded_bytes(self, toy_csv, monkeypatch, jobs):
        cfg = toy_config(toy_csv, [Spec("rep", "repeater"), Spec("ip", "interpolation")],
                         [Spec("knn", "knn")])
        loaded = dump_report(run_benchmark(cfg, jobs=jobs)[0])
        datasets = cfg.load_datasets()
        monkeypatch.setattr(DatasetSpec, "load", lambda spec: pytest.fail("loaded again"))
        assert dump_report(run_benchmark(cfg, jobs=jobs, datasets=datasets)[0]) == loaded

    @pytest.mark.parametrize("given,message", [
        (lambda ds: {"other": ds},
         "datasets must be the config's ['toy'] keyed by name, got {'other': 'toy'}"),
        (lambda ds: {"toy": Dataset(ds.features, ds.labels, "other")},
         "datasets must be the config's ['toy'] keyed by name, got {'toy': 'other'}"),
        (lambda ds: {},
         "datasets must be the config's ['toy'] keyed by name, got {}"),
        (lambda ds: {"toy": Dataset(ds.features, 1 - ds.labels, "toy")},
         "toy.csv: minority_label 'pos' names the larger class (40 rows against 8)"),
        (lambda ds: {"toy": ds.subset(np.append(ds.majority_indices, ds.minority_indices[0]))},
         "toy.csv: minority class (1) smaller than n_folds (2)"),
    ], ids=["wrong-key", "wrong-name", "missing", "larger-minority", "too-few-minority-rows"])
    def test_given_datasets_pass_the_load_checks(self, toy_csv, monkeypatch, given, message):
        import convgen.bench as bench

        monkeypatch.setattr(bench, "run_fold", lambda *args: pytest.fail("a fold ran"))
        cfg = toy_config(toy_csv, [Spec("rep", "repeater")], [Spec("knn", "knn")])
        datasets = given(cfg.load_datasets()["toy"])
        with pytest.raises(DataError, match=re.escape(message)):
            run_benchmark(cfg, datasets=datasets)

    def test_raw_dump_is_deterministic(self, toy_csv):
        cfg = toy_config(toy_csv, [Spec("rep", "repeater")],
                         [Spec("knn", "knn")])
        first = dump_report(run_benchmark(cfg)[0])
        second = dump_report(run_benchmark(cfg)[0])
        assert first == second

    def test_seed_changes_folds(self, toy_csv):
        cfg_a = toy_config(toy_csv, [Spec("rep", "repeater")],
                           [Spec("knn", "knn")], seed=1)
        cfg_b = toy_config(toy_csv, [Spec("rep", "repeater")],
                           [Spec("knn", "knn")], seed=2)
        rep_a = run_benchmark(cfg_a)[0]
        rep_b = run_benchmark(cfg_b)[0]
        assert rep_a["fold_indices"] != rep_b["fold_indices"]

    def test_parallel_matches_serial(self, toy_csv):
        cfg = toy_config(toy_csv, [Spec("rep", "repeater")],
                         [Spec("knn", "knn")])
        serial = dump_report(run_benchmark(cfg, jobs=1)[0])
        parallel = dump_report(run_benchmark(cfg, jobs=2)[0])
        assert serial == parallel

    def test_workers_run_one_blas_thread_and_the_environment_is_restored(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        with _worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, names))
        assert seen == ["1", "1", "1"]
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_importing_bench_loads_no_process_pool(self):
        probe = ("import sys, convgen.bench; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert out.stdout.strip() == "[]"


class TestRendering:
    @pytest.fixture
    def small_report(self, toy_csv):
        cfg = toy_config(
            toy_csv,
            [Spec("rep", "repeater"), Spec("ip", "interpolation")],
            [Spec("knn", "knn")],
        )
        return run_benchmark(cfg)

    def test_csv_rows(self, small_report):
        text = report_to_csv(small_report[0])
        lines = text.strip().split("\n")
        assert lines[0].startswith("dataset,oversampler,classifier,status")
        assert len(lines) == 1 + len(small_report[0]["cells"])

    def test_markdown_flags_best(self, small_report):
        text = report_to_markdown(small_report[0])
        assert "## toy" in text
        assert text.count("**") == 2  # exactly one best cell in the single row

    def test_failed_cell_without_stats_renders(self):
        report = {"cells": [{"dataset": "d", "oversampler": "o", "classifier": "c",
                             "status": "failed"}]}
        assert report_to_csv(report).splitlines()[1] == "d,o,c,failed,,,,"
        assert report_to_markdown(report).splitlines()[4] == "| c | failed |"

    @pytest.mark.parametrize("name", ["abalone, 9-18", 'the "yeast" set'])
    def test_csv_quotes_a_name_with_a_comma_or_quote(self, name):
        cell = {"dataset": name, "oversampler": "o", "classifier": "c", "status": "ok",
                "f1_mean": 0.5, "f1_std": 0.0, "kappa_mean": 0.25, "kappa_std": 0.0}
        header, row = csv.reader(io.StringIO(report_to_csv({"cells": [cell]})))
        assert len(header) == len(row) == 8
        assert row[:2] == [name, "o"] and row[4] == "0.500000"

    def test_emit_report_writes_files(self, small_report, tmp_path):
        report, timings = small_report
        paths = emit_report(report, timings, tmp_path / "out")
        for path in paths.values():
            assert os.path.exists(path)
        reread = json.loads(Path(paths["raw"]).read_text(encoding="utf-8"))
        assert reread["cells"] == report["cells"]

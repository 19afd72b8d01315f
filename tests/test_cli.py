import json
import os
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import convgen.cli as cli
from convgen.cli import main
from convgen.pca import pca_project

from test_bench import write_toy_csv


def make_config(tmp_path, csv_path, oversamplers=None, classifiers=None):
    cfg = {
        "datasets": [{"path": str(csv_path), "label_column": "cls",
                      "minority_label": "pos", "name": "toy"}],
        "oversamplers": oversamplers or [{"kind": "repeater"}],
        "classifiers": classifiers or ["knn"],
        "n_folds": 2,
        "n_shuffles": 1,
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def latin1_header(path):
    """Rewrite the first header cell of the CSV at `path` with a Latin-1 byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"caf\xe9" + data[1:])


def nan_first_cell(path):
    """Rewrite the first feature cell of the CSV at `path` as `nan`."""
    with open(path, encoding="utf-8") as fh:
        header, first, *rest = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([header, "nan" + first[first.index(","):], *rest])


def assert_one_line_usage_error(result, message):
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and errors[0].endswith(message), result.output


class TestRunCommand:
    def test_run_writes_reports(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        out_dir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg_path), "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["cells"]) == 1
        assert report["cells"][0]["status"] == "ok"
        assert (out_dir / "timings.json").exists()
        assert (out_dir / "means.csv").exists()
        assert (out_dir / "report.md").exists()

    def test_run_exits_nonzero_on_failed_cell(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        # the doc classifier cannot run on a repeater fold, so its cell fails
        cfg_path = make_config(tmp_path, csv_path, classifiers=["knn", "doc"])
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert "failed" in result.output

    def test_each_dataset_loads_once(self, tmp_path, monkeypatch):
        import convgen.bench as bench

        loaded = []
        load = bench.DatasetSpec.load
        monkeypatch.setattr(bench.DatasetSpec, "load",
                            lambda spec: loaded.append(spec.name) or load(spec))
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["datasets"].append({**cfg["datasets"][0], "name": "toy2"})
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert result.exit_code == 0, result.output
        assert loaded == ["toy", "toy2"]

    def test_seed_flag_changes_report(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        runner = CliRunner()
        runner.invoke(main, ["run", "--config", str(cfg_path),
                             "--out", str(tmp_path / "a"), "--seed", "1"])
        runner.invoke(main, ["run", "--config", str(cfg_path),
                             "--out", str(tmp_path / "b"), "--seed", "2"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["config"]["seed"] == 1 and b["config"]["seed"] == 2
        assert a["fold_indices"] != b["fold_indices"]

    @pytest.mark.parametrize("flag,expected", [([], len(os.sched_getaffinity(0))),
                                               (["--jobs", "1"], 1)])
    def test_jobs_default_to_the_usable_cpus(self, tmp_path, monkeypatch, flag, expected):
        seen = []

        def no_run(cfg, jobs, progress, datasets):
            seen.append(jobs)
            raise SystemExit(0)

        monkeypatch.setattr(cli, "run_benchmark", no_run)
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        result = CliRunner().invoke(main, ["run", "--config", str(make_config(tmp_path, csv_path))]
                                    + flag)
        assert result.exit_code == 0, result.output
        assert seen == [expected]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, jobs):
        def no_run(cfg, jobs, progress, datasets):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr(cli, "run_benchmark", no_run)
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        result = CliRunner().invoke(main, ["run", "--config", str(make_config(tmp_path, csv_path)),
                                           "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.output and ">=1" in result.output

    @pytest.mark.parametrize("edit,message", [
        (lambda cfg: cfg.update(oversamplers=[]),
         "config.json: oversamplers must list at least one entry"),
        (lambda cfg: cfg.update(classifiers=[{"kind": "knn", "weights": "distance"}]),
         "config.json: knn 'knn' in classifiers: unknown key(s) ['weights']"),
        (lambda cfg: cfg["datasets"][0].update(label_column="label"),
         "toy.csv: label column 'label' not in header"),
        (lambda cfg: cfg["datasets"][0].update(path="no-such-dir/toy.csv"),
         "no-such-dir/toy.csv: cannot open: No such file or directory"),
        (lambda cfg: latin1_header(cfg["datasets"][0]["path"]),
         "toy.csv: not UTF-8 text: cannot decode byte 0xe9"),
        (lambda cfg: nan_first_cell(cfg["datasets"][0]["path"]),
         "toy.csv:2: non-finite value 'nan' in column 'x'"),
        (lambda cfg: cfg.update(n_folds=9),
         "toy.csv: minority class (8) smaller than n_folds (9)"),
    ], ids=["empty-list", "bad-spec-key", "dataset-without-its-label-column",
            "missing-dataset-file", "latin1-dataset-file", "nan-dataset-cell",
            "more-folds-than-minority-rows"])
    def test_bad_config_is_a_one_line_usage_error(self, tmp_path, monkeypatch, edit, message):
        import convgen.bench as bench

        def no_fold(*args):
            raise AssertionError("a fold ran")

        loaded = []
        load = bench.DatasetSpec.load
        monkeypatch.setattr(bench, "run_fold", no_fold)
        monkeypatch.setattr(bench.DatasetSpec, "load",
                            lambda spec: loaded.append(spec.name) or load(spec))
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        cfg = json.loads(cfg_path.read_text())
        edit(cfg)
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and errors[0].endswith(message), result.output
        # only a config that passes the load checks gets as far as its dataset
        assert loaded == (["toy"] if "toy.csv" in message else [])
        assert not (tmp_path / "out").exists()


    def test_config_directory_is_a_one_line_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["run", "--config", str(tmp_path),
                                           "--out", str(tmp_path / "out")])
        assert_one_line_usage_error(result, f"{tmp_path}: cannot open: Is a directory")
        assert not (tmp_path / "out").exists()

    def test_out_under_a_regular_file_is_a_one_line_usage_error(self, tmp_path, monkeypatch):
        import convgen.bench as bench

        ran = []  # `out` is made before the grid runs: no fold's work is thrown away
        monkeypatch.setattr(bench, "run_fold", lambda *args: ran.append(args) or {})
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out_dir = csv_path / "sub"
        result = CliRunner().invoke(main, ["run", "--config", str(make_config(tmp_path, csv_path)),
                                           "--out", str(out_dir), "--jobs", "1"])
        assert_one_line_usage_error(result, f"{out_dir}: cannot create directory: Not a directory")
        assert ran == []


def pca_args(cfg_path, out, dataset="toy", oversampler="repeater"):
    return ["pca", "--config", str(cfg_path), "--dataset", dataset,
            "--oversampler", oversampler, "--out", str(out)]


class TestPcaCommand:
    def test_projection_csv(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        ds = write_toy_csv(csv_path)
        out = tmp_path / "proj.csv"
        result = CliRunner().invoke(main, pca_args(make_config(tmp_path, csv_path), out))
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "set,x,y"
        tags = [line.split(",")[0] for line in lines[1:]]
        # the training fold of two holds half of each class; synthetic rows balance it
        counts = {tag: tags.count(tag) for tag in tags}
        assert counts == {"minority": ds.minority_count // 2, "majority": ds.majority_count // 2,
                          "synthetic": (ds.majority_count - ds.minority_count) // 2}
        assert set(tags[-counts["synthetic"]:]) == {"synthetic"}  # after the training rows
        # every coordinate round-trips through float()
        for line in lines[1:]:
            _, x, y = line.split(",")
            float(x), float(y)

    @pytest.mark.parametrize("oversampler", [
        {"kind": "repeater"}, {"kind": "interpolation"}, {"kind": "gan", "epochs": 2},
        {"kind": "convgen", "neb": 5, "neb_epochs": 1},
    ], ids=lambda entry: entry["kind"])
    def test_synthetic_rows_replay_the_grid_fold(self, tmp_path, monkeypatch, oversampler):
        import convgen.bench as bench

        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path, oversamplers=[oversampler])
        calls = []
        oversample_fold = bench.oversample_fold

        def spy(spec, train, *args):
            calls.append((train, oversample_fold(spec, train, *args)))
            return calls[-1][1]

        monkeypatch.setattr(bench, "oversample_fold", spy)
        bench.run_benchmark(bench.BenchmarkConfig.from_json(cfg_path))
        train, captured = calls[0]  # the grid runs shuffle 0, fold 0 first
        out = tmp_path / "proj.csv"
        result = CliRunner().invoke(main, pca_args(cfg_path, out, oversampler=oversampler["kind"]))
        assert result.exit_code == 0, result.output
        written = [line.split(",", 1)[1] for line in out.read_text().splitlines()
                   if line.startswith("synthetic,")]
        expected = pca_project(train.features, captured.synthetic).synthetic
        assert len(expected) > 0
        assert written == [f"{float(x)!r},{float(y)!r}" for x, y in expected]

    @pytest.mark.parametrize("edit,names,message", [
        (lambda cfg: nan_first_cell(cfg["datasets"][0]["path"]), {},
         "toy.csv:2: non-finite value 'nan' in column 'x'"),
        (lambda cfg: None, {"dataset": "yeast"},
         "config.json: no dataset named 'yeast'; choose from ['toy']"),
        (lambda cfg: None, {"oversampler": "smote"},
         "config.json: no oversampler named 'smote'; choose from ['repeater']"),
        (lambda cfg: cfg["datasets"][0].update(minority_label="neg"), {},
         "toy.csv: minority_label 'neg' names the larger class (40 rows against 8)"),
    ], ids=["nan-dataset-cell", "unknown-dataset", "unknown-oversampler", "larger-class"])
    def test_bad_input_file_is_a_one_line_usage_error(self, tmp_path, edit, names, message):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        cfg = json.loads(cfg_path.read_text())
        edit(cfg)
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "proj.csv"
        result = CliRunner().invoke(main, pca_args(cfg_path, out, **names))
        assert_one_line_usage_error(result, message)
        assert not out.exists()

    def test_out_under_a_regular_file_is_a_one_line_usage_error(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = csv_path / "x.csv"
        result = CliRunner().invoke(main, pca_args(make_config(tmp_path, csv_path), out))
        assert_one_line_usage_error(result, f"{out}: cannot open: Not a directory")


@pytest.mark.parametrize("args,dataset", [
    (["run", "--config", "{nope}"], "{csv}"),
    (pca_args("{nope}", "{out}"), "{csv}"),
    (pca_args("{cfg}", "{out}"), "{nope}"),
], ids=["run-config", "pca-config", "pca-dataset"])
def test_missing_input_file_is_a_one_line_usage_error(tmp_path, args, dataset):
    paths = {"nope": str(tmp_path / "nope.csv"), "csv": str(tmp_path / "toy.csv"),
             "out": str(tmp_path / "p.csv")}
    write_toy_csv(paths["csv"])
    paths["cfg"] = str(make_config(tmp_path, dataset.format(**paths)))
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert_one_line_usage_error(result, f"{paths['nope']}: cannot open: No such file or directory")


def test_readme_runs_only_real_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shell = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)
                for line in re.findall(r"^bench (.*)", shell, re.M)]
    assert sorted({args[0] for args in commands}) == sorted(main.commands)
    for args in commands:  # each line's options parse; nothing runs
        main.commands[args[0]].make_context(args[0], args[1:])

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import convgen.cli as cli
from convgen.cli import main

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

        def no_run(cfg, jobs, progress):
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
        def no_run(cfg, jobs, progress):
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


class TestPcaCommand:
    def test_projection_csv(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        ds = write_toy_csv(csv_path)
        syn = tmp_path / "syn.csv"
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(7, 2))
        syn.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rows) + "\n")
        out = tmp_path / "proj.csv"
        result = CliRunner().invoke(main, [
            "pca", "--dataset", str(csv_path), "--label-col", "cls",
            "--minority-label", "pos", "--synthetic", str(syn), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "set,x,y"
        assert len(lines) == 1 + ds.n_samples + 7
        tags = {line.split(",")[0] for line in lines[1:]}
        assert tags == {"real", "synthetic"}
        # every coordinate round-trips through float()
        for line in lines[1:]:
            _, x, y = line.split(",")
            float(x), float(y)

    @pytest.mark.parametrize("edit,synthetic,message", [
        (nan_first_cell, "1,2\n", "toy.csv:2: non-finite value 'nan' in column 'x'"),
        (lambda path: None, "a,b\n1,2\n3,4,5\n", "syn.csv:3: expected 2 cells, got 3"),
    ], ids=["nan-dataset-cell", "wrong-width-synthetic-row"])
    def test_bad_input_file_is_a_one_line_usage_error(self, tmp_path, edit, synthetic, message):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        edit(csv_path)
        syn = tmp_path / "syn.csv"
        syn.write_text(synthetic, encoding="utf-8")
        out = tmp_path / "proj.csv"
        result = CliRunner().invoke(main, [
            "pca", "--dataset", str(csv_path), "--label-col", "cls",
            "--minority-label", "pos", "--synthetic", str(syn), "--out", str(out),
        ])
        assert_one_line_usage_error(result, message)
        assert not out.exists()

    def test_out_under_a_regular_file_is_a_one_line_usage_error(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        syn = tmp_path / "syn.csv"
        syn.write_text("1,2\n", encoding="utf-8")
        out = csv_path / "x.csv"
        result = CliRunner().invoke(main, [
            "pca", "--dataset", str(csv_path), "--label-col", "cls",
            "--minority-label", "pos", "--synthetic", str(syn), "--out", str(out),
        ])
        assert_one_line_usage_error(result, f"{out}: cannot open: Not a directory")


@pytest.mark.parametrize("args", [
    ["run", "--config", "{nope}"],
    ["pca", "--dataset", "{nope}", "--synthetic", "{csv}"],
    ["pca", "--dataset", "{csv}", "--synthetic", "{nope}"],
], ids=["run-config", "pca-dataset", "pca-synthetic"])
def test_missing_input_file_is_a_one_line_usage_error(tmp_path, args):
    paths = {"nope": str(tmp_path / "nope.csv"), "csv": str(tmp_path / "toy.csv")}
    write_toy_csv(paths["csv"])
    if args[0] == "pca":
        args = args + ["--label-col", "cls", "--minority-label", "pos",
                       "--out", str(tmp_path / "p.csv")]
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert_one_line_usage_error(result, f"{paths['nope']}: cannot open: No such file or directory")


def test_readme_runs_only_real_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shell = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    assert sorted(set(re.findall(r"^bench (\S+)", shell, re.M))) == sorted(main.commands)

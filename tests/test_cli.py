import json
import os

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
    ], ids=["empty-list", "bad-spec-key", "dataset-without-its-label-column",
            "missing-dataset-file", "latin1-dataset-file"])
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


class TestReportCommand:
    def test_rerender_markdown_and_csv(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        cfg_path = make_config(tmp_path, csv_path)
        out_dir = tmp_path / "out"
        runner = CliRunner()
        runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out_dir)])
        raw = str(out_dir / "report.json")

        md = runner.invoke(main, ["report", "--raw", raw])
        assert md.exit_code == 0
        assert md.output == (out_dir / "report.md").read_text()

        csv_out = runner.invoke(main, ["report", "--raw", raw, "--format", "csv"])
        assert csv_out.exit_code == 0
        assert csv_out.output == (out_dir / "means.csv").read_text()

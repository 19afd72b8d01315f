import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STUB = """import sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {failing}:
    sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
    sys.exit(1)
if seed in {silent}:
    print("report digest abc; no JSON follows")
    sys.exit(0)
print("report digest abc; 1 folds")
results = {results!r}
print(results.get(seed, results[None]))
"""


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root, name, value, failing=(), silent=(), metrics=None, by_seed=None):
    """A checkout whose perfbench run prints folds_per_s = value and `metrics`,
    overridden for seed s by `by_seed[s]`."""
    def result(overrides):
        values = {"folds_per_s": value, **(metrics or {}), **overrides}
        return json.dumps({"correct": True,
                           "metrics": {k: {"value": v} for k, v in values.items()}})

    results = {None: result({}), **{s: result(m) for s, m in (by_seed or {}).items()}}
    os.makedirs(root / name / "perfbench")
    (root / name / "perfbench" / "run.py").write_text(
        STUB.format(results=results, failing=set(failing) or "()", silent=set(silent) or "()"),
        encoding="utf-8")
    return str(root / name)


def test_failed_runs_are_recorded_and_the_series_goes_on(tmp_path, capsys, perf_pairs):
    parent = checkout(tmp_path, "parent", 1.0)
    change = checkout(tmp_path, "change", 2.0, failing=[2], silent=[3])
    status = perf_pairs.main([parent, change, "--workload", "w", "--seeds", "1-4",
                              "--seconds", "1"])
    out = capsys.readouterr().out
    assert status == 1
    assert "RuntimeError: boom" in out
    assert "pair 4 seed 4" in out
    assert "change wins 2, parent wins 0 of 2 pairs" in out
    assert "runs not correct: seed 2 change, seed 3 change" in out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["runs"]["change"] == [{"folds_per_s": 2.0}, {}, {}, {"folds_per_s": 2.0}]


def test_no_completed_pair_still_prints_a_summary(tmp_path, capsys, perf_pairs):
    parent = checkout(tmp_path, "parent", 1.0, failing=[1])
    change = checkout(tmp_path, "change", 1.0)
    assert perf_pairs.main([parent, change, "--workload", "w", "--seeds", "1",
                            "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    assert "no pair completed; gain not shown" in out
    assert "runs not correct: seed 1 parent" in out


def test_metrics_worse_beyond_their_bound_are_flagged(tmp_path, capsys, perf_pairs):
    # BENCHMARK.json bounds: 0.25 for the timings and rates, 0.1 for peak_rss_mb,
    # 0.15 for the scores, each a fraction of the parent median
    parent = checkout(tmp_path, "parent", 100.0, metrics={
        "setup_s": 0.2, "fold_s.p50": 0.004, "fold_s.tail": 0.01, "peak_rss_mb": 50.0,
        "f1_mean": 0.5, "kappa_mean": 0.4})
    change = checkout(tmp_path, "change", 70.0, metrics={
        "setup_s": 0.26, "fold_s.p50": 0.0049, "fold_s.tail": 0.005, "peak_rss_mb": 56.0,
        "f1_mean": 0.5, "kappa_mean": 0.35})
    assert perf_pairs.main([parent, change, "--workload", "w", "--seeds", "1-3",
                            "--seconds", "1", "--metric", "fold_s.p50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split()[0]: line for line in lines if line.split()
            and line.split()[0] in ("folds_per_s", "setup_s", "fold_s.p50", "fold_s.tail",
                                    "peak_rss_mb", "f1_mean", "kappa_mean")}
    flagged = sorted(name for name, row in rows.items() if "WORSE" in row)
    # 30% fewer folds/s, 30% more set-up time and 12% more memory are beyond their
    # bounds; 22.5% more p50 time and 12.5% less kappa are within theirs, and a
    # faster tail is better, not worse
    assert flagged == ["folds_per_s", "peak_rss_mb", "setup_s"]
    assert "WORSE by 30.0%" in rows["folds_per_s"]
    assert "worse than the parent beyond the bound: folds_per_s, setup_s, peak_rss_mb" in lines
    summary = json.loads(lines[-1])
    assert summary["regressions"] == ["folds_per_s", "setup_s", "peak_rss_mb"]


def test_no_regression_lists_none(tmp_path, capsys, perf_pairs):
    parent = checkout(tmp_path, "parent", 1.0)
    change = checkout(tmp_path, "change", 0.8)
    perf_pairs.main([parent, change, "--workload", "w", "--seeds", "1", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert "worse than the parent beyond the bound: none" in lines
    assert "parent spread wider than the bound: none" in lines
    assert json.loads(lines[-1])["regressions"] == json.loads(lines[-1])["unresolved"] == []


def test_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys, perf_pairs):
    # setup_s in two host-dependent modes, ~0.13 and ~0.21 s, on both sides: the
    # parent's IQR is 61.5% of its median, beyond the 0.25 bound. fold_s.p50 is as
    # wide, but every change run beats every parent run; folds_per_s is tight.
    parent = checkout(tmp_path, "parent", 100.0, by_seed={
        seed: {"setup_s": 0.21 if seed > 6 else 0.13, "fold_s.p50": 0.004 * (1 + seed % 2)}
        for seed in range(1, 11)})
    change = checkout(tmp_path, "change", 100.0, by_seed={
        seed: {"setup_s": 0.21 if seed > 4 else 0.13, "fold_s.p50": 0.003}
        for seed in range(1, 11)})
    assert perf_pairs.main([parent, change, "--workload", "w", "--seeds", "1-10",
                            "--seconds", "1", "--metric", "setup_s"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split()[0]: line for line in lines
            if line.split() and line.split()[0] in ("folds_per_s", "setup_s", "fold_s.p50")}
    assert rows["setup_s"].endswith("WORSE by 61.5%; UNRESOLVED: parent IQR 61.5% of its median")
    assert "UNRESOLVED" not in rows["fold_s.p50"] and "UNRESOLVED" not in rows["folds_per_s"]
    assert "parent spread wider than the bound: setup_s" in lines
    summary = json.loads(lines[-1])
    assert summary["unresolved"] == ["setup_s"] and summary["regressions"] == ["setup_s"]

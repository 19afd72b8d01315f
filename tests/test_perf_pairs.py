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
print('{{"correct": true, "metrics": {{"folds_per_s": {{"value": {value}}}}}}}')
"""


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root, name, value, failing=(), silent=()):
    os.makedirs(root / name / "perfbench")
    (root / name / "perfbench" / "run.py").write_text(
        STUB.format(value=value, failing=set(failing) or "()", silent=set(silent) or "()"),
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

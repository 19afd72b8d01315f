#!/usr/bin/env python3
"""convgen benchmark: one workload through the public harness API.

    python3 perfbench/run.py --workload convgen-cv --seed 0 --seconds 30 --trace 0

A run is a closed loop with one caller in one process, like
`bench run --jobs 1`. A workload is `grids` configs; grid k gets master seed
`seed * grids + k`. A pass runs `run_benchmark` + `emit_report` on each
grid in turn, and passes repeat until the next one would end after
`--seconds` (at least one pass). Every pass of one seed must write the same
`report.json` bytes.

`--trace 0` prints the end-to-end metrics listed in BENCHMARK.json; only
`bench.run_fold` and `bench.oversample_fold` are wrapped, for per-fold times.
`--trace 1` first runs one such untraced pass, then traced passes that
record a span for every call into the convgen layers (see spans.py), and
prints the per-layer metrics, each per pass. `--workload all` runs every
workload, each in its own process.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, where
attempted/failed count report fold entries (failed_frac = failed/attempted).
Outputs of the last run of each workload, seed and mode are kept under
.perfbench_runs/ in the checkout.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The workload seed is the master seed; an inherited override must not win.
os.environ.pop("CONVGEN_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
from workloads import COMMON_LAYERS, DATASETS, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = ".perfbench_runs"
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 11
# Share of the traced wall time that may fall outside every per-layer time:
# the pass loop, run_benchmark's own body and spans no metric reports.
UNATTRIBUTED_MAX = 0.02

# Per-layer metric -> how it is derived from the trace. "self": self time of
# a span name; "total": time of its outermost spans; "count": a work counter.
PER_LAYER_SOURCES = {
    "nn.adam.self_s": ("self", "nn.adam"),
    "nn.adam.calls": ("calls", "nn.adam"),
    "nn.adam.call_us.p50": ("call_us", "nn.adam", False),
    "nn.adam.call_us.tail": ("call_us", "nn.adam", True),
    "nn.adam.param_updates": ("count", "nn.adam.param_updates"),
    "nn.adam.bytes_computed": ("count", "nn.adam.bytes_computed"),
    "nn.dense.fwd.self_s": ("self", "nn.dense.fwd"),
    "nn.dense.bwd.self_s": ("self", "nn.dense.bwd"),
    "nn.dense.madds": ("count", "nn.dense.madds"),
    "nn.conv1d.fwd.self_s": ("self", "nn.conv1d.fwd"),
    "nn.conv1d.bwd.self_s": ("self", "nn.conv1d.bwd"),
    "nn.conv1d.madds": ("count", "nn.conv1d.madds"),
    "nn.network.self_s": ("self", "nn.network"),
    "nn.errors": ("count", "nn.errors"),
    "model.fit.self_s": ("self", "model.fit"),
    "model.generator.self_s": ("self", "model.generator"),
    "model.d_steps": ("count", "model.d_steps"),
    "model.generate.self_s": ("self", "model.generate"),
    "model.generate.rows": ("count", "model.generate.rows"),
    "model.doc_retrain_s": ("total", "model.doc_retrain"),
    "model.dead_column_frac": ("ratio", "model.dead_columns", "model.columns"),
    "neighborhood.knn_minority_s": ("total", "neighborhood.knn_minority"),
    "neighborhood.majority_neighborhoods_s": ("total", "neighborhood.majority_neighborhoods"),
    "neighborhood.calls": ("count", "neighborhood.calls"),
    "baselines.repeater_s": ("total", "baselines.repeater"),
    "baselines.interpolation_s": ("total", "baselines.interpolation"),
    "baselines.gan.train.self_s": ("self", "baselines.gan.train"),
    "baselines.gan.generate_s": ("total", "baselines.gan.generate"),
    "classifiers.logreg.fit_s": ("total", "classifiers.logreg.fit"),
    "classifiers.logreg.iters": ("count", "classifiers.logreg.iters"),
    "classifiers.knn.predict_s": ("total", "classifiers.knn.predict"),
    "classifiers.knn.predict_rows": ("count", "classifiers.knn.predict_rows"),
    "classifiers.doc.predict_s": ("total", "classifiers.doc.predict"),
    "metrics.score_s": ("total", "metrics.score"),
    "data.load_csv_s": ("total", "data.load_csv"),
    "data.stratified_kfold_s": ("total", "data.stratified_kfold"),
    "data.subset_s": ("total", "data.subset"),
    "rng.derive_seed.calls": ("count", "rng.derive_seed.calls"),
    "rng.derive_seed_s": ("total", "rng.derive_seed"),
    "bench.run_fold.self_s": ("self", "bench.run_fold"),
    "bench.oversample_fold_s": ("total", "bench.oversample_fold"),
    "bench.emit_report_s": ("total", "bench.emit_report"),
    "bench.fold_errors": ("fold_errors",),
    "trace.folds_per_s": ("folds_per_s",),
    "trace.folds_per_s_delta": ("folds_per_s_delta",),
}
# Metrics that may be 0 on a workload that exercises their layer.
MAY_BE_ZERO = {"nn.errors", "bench.fold_errors", "model.dead_column_frac"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(n: int) -> float:
    """Highest percentile with >= 10 of n samples beyond it, never below 50."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def environment() -> dict:
    """What the bytes of a report may depend on besides the code and seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(k for k, v in features.items() if v),
    }


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def write_json(path, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def setup_sample(config_paths: list[str]) -> float:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *config_paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Measurement:
    """The passes of one loop: wall times, report digests and the spans."""

    tracer: object
    walls: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # per grid, from the first pass
    attempted: int = 0
    failed: int = 0


def grid_dir(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"grid{k}")


def measure(bench, spans, cfgs, out_dir: str, budget: float, tracer) -> Measurement:
    """Repeat passes while the next one, at the mean pass time so far, would
    end within `budget` seconds; always at least one."""
    m = Measurement(tracer)
    with tracer.install():
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            reports = []
            with tracer.span(spans.PASS):
                for k, cfg in enumerate(cfgs):
                    report, timings = bench.run_benchmark(cfg)
                    bench.emit_report(report, timings, grid_dir(out_dir, k))
                    reports.append(report)
            m.walls.append(time.perf_counter() - t0)
            digest = hashlib.sha256()
            for k in range(len(cfgs)):
                with open(os.path.join(grid_dir(out_dir, k), "report.json"), "rb") as fh:
                    digest.update(fh.read())
            m.digests.append(digest.hexdigest())
            entries = [e for r in reports for cell in r["cells"] for e in cell["folds"]]
            m.attempted += len(entries)
            m.failed += sum("error" in e for e in entries)
            m.reports = m.reports or reports
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(m.walls) > budget:
                return m


def check_reports(m: Measurement, cfgs, out_dir: str, n_rows: dict) -> list[str]:
    problems = []
    if m.failed:
        problems.append(f"{m.failed} of {m.attempted} fold entries failed")
    if len(set(m.digests)) != 1:
        problems.append(f"report.json differs between passes of one seed: {m.digests}")
    for k, (cfg, report) in enumerate(zip(cfgs, m.reports)):
        problems += [f"grid {k}: {p}" for p in
                     check_report(report, cfg, grid_dir(out_dir, k), n_rows)]
    return problems


def check_report(report: dict, cfg, out_dir: str, n_rows: dict) -> list[str]:
    """Protocol and consistency checks on one grid's outputs."""
    problems = []
    n_cells = len(cfg.datasets) * len(cfg.oversamplers) * len(cfg.classifiers)
    if len(report["cells"]) != n_cells:
        problems.append(f"{len(report['cells'])} cells, expected {n_cells}")
    for cell in report["cells"]:
        where = f"{cell['dataset']}/{cell['oversampler']}/{cell['classifier']}"
        if cell["status"] != "ok":
            problems.append(f"{where}: status {cell['status']}")
        if len(cell["folds"]) != cfg.n_folds * cfg.n_shuffles:
            problems.append(f"{where}: {len(cell['folds'])} fold entries")
        ok = [e for e in cell["folds"] if "error" not in e]
        if not all(0.0 <= e["f1"] <= 1.0 and -1.0 <= e["kappa"] <= 1.0 for e in ok):
            problems.append(f"{where}: score out of range")
        if ok and abs(statistics.fmean(e["f1"] for e in ok) - cell["f1_mean"]) > 1e-12:
            problems.append(f"{where}: f1_mean is not the mean of its folds")
    for name, shuffles in report["fold_indices"].items():
        for s, folds in shuffles.items():
            rows = sorted(i for idx in folds.values() for i in idx)
            if rows != list(range(n_rows[name])):
                problems.append(f"{name} shuffle {s}: test folds do not partition the rows")
    with open(os.path.join(out_dir, "means.csv"), encoding="utf-8") as fh:
        if len(fh.read().splitlines()) != n_cells + 1:
            problems.append("means.csv row count does not match the report")
    timings = load_json(os.path.join(out_dir, "timings.json"), {})
    if len(timings.get("cells", {})) != n_cells:
        problems.append("timings.json cell count does not match the report")
    return problems


def check_digest(workload: str, seed: int, digest: str) -> list[str]:
    """Compare with the first run of this seed in this checkout, and print the
    comparison with the checked-in reference (whose environment must match to
    apply). A later change may alter report bytes on purpose, so only the
    first comparison can fail the run; reference.json is updated by hand from
    the printed digests."""
    problems = []
    first_path = os.path.join(RUNS_DIR, "first_digests.json")
    first = load_json(first_path, {})
    seen = first.setdefault(workload, {}).setdefault(str(seed), digest)
    if seen != digest:
        problems.append(f"report.json digest {digest} != first run's {seen}")
    write_json(first_path, first)

    env = environment()
    ref = load_json(REFERENCE, {"environment": env, "report_sha256": {}})
    expected = ref["report_sha256"].get(workload, {}).get(str(seed))
    if ref["environment"] != env:
        print("reference digest: not comparable (numpy, BLAS or CPU differ from the reference)")
    elif expected is None:
        print(f"reference digest: none recorded for {workload} seed {seed}")
    elif expected == digest:
        print("reference digest: match")
    else:
        print(f"reference digest: DIFFERS (recorded {expected}): report bytes changed")
    return problems


def fold_table(m: Measurement) -> list[dict]:
    """One record per fold: harness wall time, oversampler time and whether
    every classifier scored it."""
    tr = m.tracer
    t = tr.table()
    fold_nid = tr.name_id("bench.run_fold")
    ovs = t["name"] == tr.name_id("bench.oversample_fold")
    ovs_s = np.bincount(t["fold"][ovs], weights=t["dur"][ovs], minlength=len(tr.fold_labels))
    records = []
    for i in np.flatnonzero(t["name"] == fold_nid):
        fid = int(t["fold"][i])
        dataset, oversampler, shuffle, fold = tr.fold_labels[fid]
        records.append({"dataset": dataset, "oversampler": oversampler, "shuffle": shuffle,
                        "fold": fold, "fold_s": float(t["dur"][i]),
                        "oversample_s": float(ovs_s[fid]), "ok": tr.fold_ok[fid]})
    return records


def print_fold_summary(records: list[dict]) -> None:
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r["dataset"], r["oversampler"]), []).append(r)
    for (dataset, oversampler), rs in groups.items():
        fold_s = statistics.median(r["fold_s"] for r in rs)
        ovs_s = statistics.median(r["oversample_s"] for r in rs)
        print(f"  {dataset}/{oversampler}: {len(rs)} folds, median fold {fold_s:.4f} s, "
              f"oversampler {ovs_s:.4f} s ({100 * ovs_s / fold_s:.1f}%)")


def end_to_end(m: Measurement, setup: list[float], records: list[dict], passes: int) -> dict:
    fold_s = np.array([r["fold_s"] for r in records])
    q = tail_percentile(len(fold_s) // passes)
    ok = [c for r in m.reports for c in r["cells"] if c["status"] == "ok"]
    print(f"setup samples: {len(setup)}, fold samples: {len(fold_s)} over {passes} pass(es), "
          f"fold_s.tail is p{q:.1f}")
    return {
        "setup_s": statistics.median(setup),
        "folds_per_s": sum(r["ok"] for r in records) / sum(m.walls),
        "fold_s.p50": float(np.percentile(fold_s, 50)),
        "fold_s.tail": float(np.percentile(fold_s, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f1_mean": statistics.fmean(c["f1_mean"] for c in ok) if ok else 0.0,
        "kappa_mean": statistics.fmean(c["kappa_mean"] for c in ok) if ok else 0.0,
    }


def per_layer(m: Measurement, plain_fps: float, workload: str) -> tuple[dict, list[str]]:
    tr = m.tracer
    t = tr.table()
    passes = len(m.walls)
    problems = []

    # Each span's self time belongs to its name. The names behind the per-layer
    # times must cover the traced wall time; what they leave is the harness
    # loop, run_benchmark's own body and spans no metric reports. A wrapper
    # that records nothing shows as a zero below, not here.
    wall = sum(m.walls)
    reported = {tr.name_id(src[1]) for src in PER_LAYER_SOURCES.values()
                if src[0] in ("self", "total")}
    rest = {name: float(t["self"][t["name"] == nid].sum())
            for nid, name in enumerate(tr.names) if nid not in reported}
    unattributed = sum(rest.values())
    print(f"spans: {len(t['dur'])} over {passes} traced pass(es); per-layer self times cover "
          f"{wall - unattributed:.6f} s of {wall:.6f} s traced wall; the rest: "
          + ", ".join(f"{name} {sec:.6f} s" for name, sec in rest.items()))
    if unattributed > UNATTRIBUTED_MAX * wall:
        problems.append(f"{unattributed:.4f} s of {wall:.4f} s traced wall is in no per-layer "
                        f"time (limit {UNATTRIBUTED_MAX:.0%})")

    def by_name(span_name, kind):
        mask = t["name"] == tr.name_id(span_name)
        if kind == "total":
            mask &= t["outermost"]
        return t["self" if kind == "self" else "dur"][mask]

    traced_fps = sum(tr.fold_ok) / wall
    values = {}
    for name, src in PER_LAYER_SOURCES.items():
        kind = src[0]
        if kind in ("self", "total"):
            values[name] = float(by_name(src[1], kind).sum()) / passes
        elif kind == "calls":
            values[name] = len(by_name(src[1], "dur")) / passes
        elif kind == "call_us":
            us = by_name(src[1], "dur") * 1e6
            if len(us) == 0:
                values[name] = 0.0
                continue
            q = tail_percentile(len(us) // passes) if src[2] else 50.0
            values[name] = float(np.percentile(us, q))
        elif kind == "count":
            values[name] = tr.counts[src[1]] / passes
        elif kind == "ratio":
            values[name] = tr.counts[src[1]] / max(1, tr.counts[src[2]])
        elif kind == "fold_errors":
            values[name] = m.failed / passes
        elif kind == "folds_per_s":
            values[name] = traced_fps
        elif kind == "folds_per_s_delta":
            values[name] = traced_fps - plain_fps
    print(f"tracing overhead: {traced_fps:.4f} traced vs {plain_fps:.4f} untraced folds/s "
          f"({100 * (1 - traced_fps / plain_fps):.1f}% slower)")

    prefixes = WORKLOADS[workload]["exercises"] + COMMON_LAYERS
    for name, value in values.items():
        if name.startswith(prefixes) and name not in MAY_BE_ZERO and not value > 0:
            problems.append(f"{name} is {value} on {workload}, which exercises it")
    return values, problems


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    needed = ["src/convgen/bench.py", "BENCHMARK.json", *(d["path"] for d in DATASETS)]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a convgen checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    spec = load_json("BENCHMARK.json", {})
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, args.workload, f"seed{args.seed}-trace{args.trace}")
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(run_dir, exist_ok=True)
    grids = workload["grids"]
    config_paths = [os.path.join(run_dir, f"config{k}.json") for k in range(grids)]
    for k, path in enumerate(config_paths):
        write_json(path, {**workload["config"], "seed": args.seed * grids + k})

    setup = [] if args.trace else [setup_sample(config_paths) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from convgen import bench

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; nproc {os.cpu_count()}, "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    cfgs = [bench.BenchmarkConfig.from_json(path) for path in config_paths]
    n_rows = {d.name: d.load().n_samples for d in cfgs[0].datasets}

    plain = measure(bench, spans, cfgs, out_dir, 0 if args.trace else args.seconds,
                    spans.Tracer(spans.FOLD_SPANS))
    problems = check_reports(plain, cfgs, out_dir, n_rows)
    records = fold_table(plain)
    write_json(os.path.join(run_dir, "folds.json"), records)
    print("per fold (untraced):")
    print_fold_summary(records)
    problems += check_digest(args.workload, args.seed, plain.digests[0])
    measured = plain

    if args.trace:
        measured = measure(bench, spans, cfgs, out_dir, args.seconds, spans.Tracer())
        problems += check_reports(measured, cfgs, out_dir, n_rows)
        if measured.digests[0] != plain.digests[0]:
            problems.append("tracing changed report.json")
        plain_fps = sum(r["ok"] for r in records) / sum(plain.walls)
        values, layer_problems = per_layer(measured, plain_fps, args.workload)
        problems += layer_problems
        section = "per_layer"
    else:
        values = end_to_end(plain, setup, records, len(plain.walls))
        section = "end_to_end"
    print(f"report digest {plain.digests[0]}; failed_frac {measured.failed / measured.attempted} "
          f"({measured.failed} of {measured.attempted} fold entries)")

    metrics = {}
    for m in spec.get(section, []):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

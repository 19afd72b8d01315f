"""Alternating parent/change pairs of perfbench runs, summarised.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload convgen-cv \
        --seeds 71-80 --seconds 35 [--metric folds_per_s]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. For each
seed, `perfbench/run.py --trace 0` runs once in each checkout, one after the
other; the side that runs first flips on every pair, the parent going first
on the first. For every end-to-end metric the runs print, the summary gives
each side's median and quartiles; for `--metric` it also gives the per-pair
ratios (change / parent) and the wins, ties counting for neither side.

A gain in `--metric` holds when at least ten pairs ran, the change wins at
least nine tenths of them, and the medians differ, in the metric's better
direction (read from BENCHMARK.json), by more than the distance between
the parent's quartiles.

Every end-to-end metric whose change median is worse than the parent
median by more than the metric's BENCHMARK.json bound (a fraction of the
parent median, read in the metric's better direction) is marked WORSE in
the summary, and listed under "regressions" in the final JSON line.
Every end-to-end metric whose parent runs spread wider than its bound (the
distance between the parent's quartiles, as a fraction of the parent
median) is marked UNRESOLVED and listed under "unresolved", unless every
change run is better than every parent run: at that spread, a median
difference within the bound cannot be told from noise.

Each pair also prints whether both sides wrote the same report.json bytes
(the `report digest` line of each run), and the summary lists the seeds
whose digests differ. A run that does not end with `correct: true`, or
prints no digest, is named in the summary, the gain is then not shown,
and the tool exits with status 1. A run that exits non-zero or prints no
JSON last line has no metrics: its stderr tail is printed, its pair drops
out of the ratios, and the series goes on. The last line printed is one
JSON object with every run's metrics and report digest.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    """'71-74,91' -> [71, 72, 73, 74, 91]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """The final JSON line and the report digest (None if not printed) of
    one untraced perfbench run in `checkout`. A run that exits non-zero or
    whose last line is not JSON gives {"correct": False, "metrics": {},
    "stderr": the tail of its stderr}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    digest = re.search(r"^report digest ([0-9a-f]+);", proc.stdout, re.MULTILINE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    return result, digest.group(1) if digest else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--metric", default="folds_per_s")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if args.metric not in end_to_end:
        p.error(f"--metric must be one of {sorted(end_to_end)}")
    higher = end_to_end[args.metric]["better"] == "higher"

    runs = {"parent": [], "change": []}
    digests = {"parent": [], "change": []}
    incorrect = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, digest = run_once(getattr(args, side), args.workload, seed, args.seconds)
            if not result["correct"] or digest is None:
                incorrect.append(f"seed {seed} {side}")
            if "stderr" in result:
                print(f"seed {seed} {side} failed; stderr ends:\n{result['stderr']}", flush=True)
            runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
            digests[side].append(digest)
        par, chg = runs["parent"][-1].get(args.metric), runs["change"][-1].get(args.metric)
        same = digests["parent"][-1] == digests["change"][-1]
        values = (f"parent {par:.4g} change {chg:.4g} ratio {chg / par:.3f}"
                  if par is not None and chg is not None else "no pair: a run failed")
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {values}; report digest "
              f"{'same' if same else 'DIFFERS'} ({str(digests['change'][-1])[:12]})", flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs at --seconds {args.seconds:g}")
    print(f"{'metric':<14}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}  flags")
    regressions, unresolved = [], []
    for name in dict.fromkeys(k for side in runs.values() for r in side for k in r):
        parent, change = ([r[name] for r in runs[side] if name in r] for side in runs)
        cells = [" / ".join(f"{q:.4g}" for q in quartiles(v)) if v else "-"
                 for v in (parent, change)]
        flags = []
        if name in end_to_end and parent and change:
            bound = end_to_end[name]["bound"]
            worse_sign = -1 if end_to_end[name]["better"] == "higher" else 1
            q1, parent_median, q3 = quartiles(parent)
            scale = abs(parent_median)
            worse = worse_sign * (statistics.median(change) - parent_median)
            if worse > bound * scale:
                regressions.append(name)
                flags.append(f"WORSE by {worse / scale:.1%}" if scale else "WORSE")
            separated = (max(worse_sign * v for v in change)
                         < min(worse_sign * v for v in parent))
            if q3 - q1 > bound * scale and not separated:
                unresolved.append(name)
                flags.append(f"UNRESOLVED: parent IQR {(q3 - q1) / scale:.1%} of its median"
                             if scale else "UNRESOLVED")
        print(f"{name:<14}{cells[0]:>34}{cells[1]:>34}  {'; '.join(flags)}".rstrip())

    pairs = [(p_run[args.metric], c_run[args.metric])
             for p_run, c_run in zip(runs["parent"], runs["change"])
             if args.metric in p_run and args.metric in c_run]
    if pairs:
        par, chg = (list(side) for side in zip(*pairs))
        wins = sum(c > p if higher else c < p for p, c in pairs)
        losses = sum(c < p if higher else c > p for p, c in pairs)
        q1, median_parent, q3 = quartiles(par)
        gap = statistics.median(chg) - median_parent
        holds = (not incorrect and len(par) >= 10 and wins >= 0.9 * len(par)
                 and (gap if higher else -gap) > q3 - q1)
        print(f"\n{args.metric}: change wins {wins}, parent wins {losses} of {len(par)} pairs; "
              f"ratios {' '.join(f'{c / p:.3f}' for p, c in pairs)}")
        print(f"median gap {gap:+.4g} ({gap / median_parent:+.1%}), parent IQR {q3 - q1:.4g}; "
              f"gain {'holds' if holds else 'not shown'}")
    else:
        print(f"\n{args.metric}: no pair completed; gain not shown")
    differ = [seed for seed, a, b in zip(args.seeds, digests["parent"], digests["change"])
              if a != b]
    print(f"report bytes: {'same on every seed' if not differ else f'DIFFER on seeds {differ}'}")
    print(f"worse than the parent beyond the bound: {', '.join(regressions) or 'none'}")
    print(f"parent spread wider than the bound: {', '.join(unresolved) or 'none'}")
    if incorrect:
        print(f"runs not correct: {', '.join(incorrect)}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "runs": runs,
                      "digests": digests, "regressions": regressions,
                      "unresolved": unresolved}))
    return 1 if incorrect else 0

if __name__ == "__main__":
    sys.exit(main())

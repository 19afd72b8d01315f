"""Cross-validated benchmark harness: oversample, train, score, report.

For every (dataset, oversampler, classifier) cell, runs n_shuffles x
n_folds stratified cross-validation. Oversamplers see only the training
fold; synthetic rows top the minority class up to exact balance; scores
are minority F1 and Cohen's kappa per fold.

The raw report is fully deterministic under the master seed (cell timings
live in a separate structure so raw dumps stay bit-identical between
runs).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .baselines import Gan, interpolation_sample, repeater_sample
from .classifiers import (
    DiscriminatorClassifier,
    ExternalPredictions,
    KNNClassifier,
    LogisticRegressionClassifier,
)
from .data import (DataError, Dataset, FoldPlan, load_csv, load_json_object, load_synthetic_csv,
                   make_dir, open_text, require_int, stratified_kfold)
from .metrics import cohen_kappa, confusion, f1_minority
from .model import ConvGeNConfig, ConvGeNModel
from .rng import derive_seed


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    label_column: str
    minority_label: str
    name: str

    def load(self) -> Dataset:
        ds = load_csv(self.path, self.label_column, self.minority_label, name=self.name)
        if ds.minority_count > ds.majority_count:
            raise DataError(f"{self.path}: minority_label {self.minority_label!r} names the "
                            f"larger class ({ds.minority_count} rows against {ds.majority_count})")
        return ds


@dataclass(frozen=True)
class Spec:
    """One oversampler or classifier entry; `params` are its other keys."""

    name: str
    kind: str  # a kind in SPEC_KEYS
    params: dict = field(default_factory=dict)


# The kinds each config list takes, and the keys each kind reads from its spec.
SPEC_KEYS = {
    "oversamplers": {
        "repeater": (), "interpolation": ("k",), "gan": ("epochs",), "from-file": ("path",),
        "convgen": ("preset", *(f.name for f in fields(ConvGeNConfig) if f.name != "seed")),
    },
    "classifiers": {"knn": ("k",), "logreg": (), "doc": (), "external": ("dir",)},
}


def _check_spec(kinds: dict, spec: Spec) -> None:
    """Refuse an entry whose kind is not in `kinds` or cannot run its keys."""
    if spec.kind not in kinds:
        raise DataError(f"unknown kind; choose from {sorted(kinds)}")
    unknown = sorted(set(spec.params) - set(kinds[spec.kind]))
    if unknown:
        raise DataError(f"unknown key(s) {unknown}")
    for key, what in (("path", "a synthetic rows file"), ("dir", "a predictions directory")):
        if key in kinds[spec.kind] and not isinstance(spec.params.get(key), str):
            got = f" as a string, got {spec.params[key]!r}" if key in spec.params else ""
            raise DataError(f"needs {what}, key {key!r}{got}")
    for key in sorted({"k", "epochs"}.intersection(spec.params)):
        require_int(key, spec.params[key], 1)
    if spec.kind == "convgen":
        _convgen_config(spec.params, seed=0)


def _convgen_config(params: dict, seed: int) -> ConvGeNConfig:
    """A convgen spec's settings: its preset (the defaults without one) under its knobs."""
    knobs = {key: value for key, value in params.items() if key != "preset"}
    base = ConvGeNConfig.preset(params["preset"]) if "preset" in params else ConvGeNConfig()
    return replace(base, seed=seed, **knobs)


def _spec(entry) -> Spec:
    """A config list entry: a bare kind string, or {"kind", "name"?, **params}."""
    if isinstance(entry, str):
        return Spec(entry, entry)
    params = {k: v for k, v in entry.items() if k not in ("name", "kind")}
    return Spec(entry.get("name", entry["kind"]), entry["kind"], params)


def _dataset_spec(d) -> DatasetSpec:
    name = d.get("name", os.path.splitext(os.path.basename(d["path"]))[0])
    return DatasetSpec(d["path"], d["label_column"], str(d["minority_label"]), name)


def _entries(raw: dict, key: str, parse) -> tuple:
    """raw[key] (none if absent) parsed entry by entry; a missing key names the entry."""
    parsed = []
    for i, entry in enumerate(raw.get(key, ())):
        try:
            parsed.append(parse(entry))
        except KeyError as exc:
            raise DataError(f"{key}[{i}] lacks key {exc}") from None
        except (AttributeError, TypeError):
            raise DataError(f"{key}[{i}] is malformed: {entry!r}") from None
    return tuple(parsed)


@dataclass(frozen=True)
class BenchmarkConfig:
    datasets: tuple[DatasetSpec, ...]
    oversamplers: tuple[Spec, ...]
    classifiers: tuple[Spec, ...]
    n_folds: int = 5
    n_shuffles: int = 5
    seed: int = 0

    def __post_init__(self):
        require_int("n_folds", self.n_folds, 2)
        require_int("n_shuffles", self.n_shuffles, 1)
        require_int("seed", self.seed, float("-inf"))
        for key in ("datasets", "oversamplers", "classifiers"):
            # every field annotated `str` (the annotations are strings here)
            # must hold one: names key the report, kinds pick the code
            for i, spec in enumerate(getattr(self, key)):
                bad = [f"{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)
                       if f.type == "str" and not isinstance(getattr(spec, f.name), str)]
                if bad:
                    raise DataError(f"{key}[{i}] is malformed: non-string {', '.join(bad)}")
            # report cells and per-fold scores are keyed by these names
            names = [spec.name for spec in getattr(self, key)]
            if not names:
                raise DataError(f"{key} must list at least one entry")
            if len(set(names)) != len(names):
                raise DataError(f"names must be unique within a config list, got {names}")
        for key in ("oversamplers", "classifiers"):
            for spec in getattr(self, key):
                try:
                    _check_spec(SPEC_KEYS[key], spec)
                except DataError as exc:
                    raise DataError(f"{spec.kind} {spec.name!r} in {key}: {exc}") from None

    @staticmethod
    def from_json(path, seed_override: int | None = None) -> "BenchmarkConfig":
        raw = load_json_object(path, "config")
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        try:
            return BenchmarkConfig(
                datasets=_entries(raw, "datasets", _dataset_spec),
                oversamplers=_entries(raw, "oversamplers", _spec),
                classifiers=_entries(raw, "classifiers", _spec),
                n_folds=raw.get("n_folds", 5),
                n_shuffles=raw.get("n_shuffles", 5),
                seed=seed,
            )
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


@dataclass
class FoldResult:
    """Everything produced while oversampling one training fold."""

    synthetic: np.ndarray
    provenance: np.ndarray | None  # original-dataset row ids, or None
    model: ConvGeNModel | None = None  # the fitted ConvGeN model, for DoC


def oversample_fold(spec: Spec, train: Dataset, train_ids: np.ndarray,
                    n_synthetic: int, seed: int) -> FoldResult:
    """Train the configured oversampler on the fold and emit synthetic rows.

    `train_ids` maps the fold-local rows back to original dataset row ids
    so provenance can be audited against the held-out fold.
    """
    minority_rows = train.features[train.minority_indices]
    minority_ids = train_ids[train.minority_indices]

    if spec.kind == "repeater":
        synthetic = repeater_sample(minority_rows, n_synthetic)
        provenance = minority_ids[np.arange(n_synthetic) % len(minority_rows)]
        return FoldResult(synthetic, provenance)

    if spec.kind == "interpolation":
        rng = np.random.default_rng(seed)
        synthetic, pairs = interpolation_sample(
            minority_rows, spec.params.get("k", 5), n_synthetic, rng
        )
        return FoldResult(synthetic, minority_ids[pairs.ravel()])

    if spec.kind == "gan":
        gan = Gan(train.n_features, spec.params.get("epochs", 300), seed).train(minority_rows)
        return FoldResult(gan.generate(n_synthetic), minority_ids.copy())

    if spec.kind == "convgen":
        model = ConvGeNModel(_convgen_config(spec.params, seed)).fit(train)
        batches = model.generate(n_synthetic)
        if batches:
            synthetic = np.vstack([b.samples for b in batches])
            provenance = np.concatenate([train_ids[b.source_neighborhood] for b in batches])
        else:
            synthetic = np.empty((0, train.n_features))
            provenance = minority_ids[:0]
        return FoldResult(synthetic, provenance, model)

    if spec.kind == "from-file":
        rows = load_synthetic_csv(spec.params["path"], train.n_features)
        return FoldResult(repeater_sample(rows, n_synthetic), None)

    raise DataError(f"unknown oversampler kind {spec.kind!r}")


def make_classifier(spec: Spec, fold_result: FoldResult, fold_name: str):
    if spec.kind == "knn":
        return KNNClassifier(k=spec.params.get("k", 5))
    if spec.kind == "logreg":
        return LogisticRegressionClassifier()
    if spec.kind == "doc":
        if fold_result.model is None:
            raise DataError("the doc classifier requires the convgen oversampler")
        return DiscriminatorClassifier(fold_result.model)
    if spec.kind == "external":
        return ExternalPredictions(os.path.join(spec.params["dir"], f"{fold_name}.csv"))
    raise DataError(f"unknown classifier kind {spec.kind!r}")


def run_fold(cfg: BenchmarkConfig, dataset: Dataset, plan: FoldPlan,
             oversampler: Spec, shuffle: int, fold: int) -> dict:
    """One (oversampler, shuffle, fold) unit: returns per-classifier scores.

    Also performs the protocol checks: provenance stays inside the training
    fold and the rebalanced training set has exactly equal classes.
    """
    train_ids = plan.train_indices(shuffle, fold)
    test_ids = plan.test_indices(shuffle, fold)
    train = dataset.subset(train_ids)
    n_synthetic = train.majority_count - train.minority_count
    seed = derive_seed(cfg.seed, dataset.name, oversampler.name, shuffle, fold)

    result = oversample_fold(oversampler, train, train_ids, n_synthetic, seed)
    if result.provenance is not None:
        # one mask lookup per id; an id outside [0, n_samples), negative ones
        # included, would wrap or fail as an index, and is held out anyway
        ids = result.provenance
        in_train = np.zeros(dataset.n_samples, dtype=bool)
        in_train[train_ids] = True
        inside = (ids >= 0) & (ids < dataset.n_samples)
        inside[inside] = in_train[ids[inside]]
        if not inside.all():
            leaked = np.unique(ids[~inside])
            raise DataError(f"oversampler touched held-out rows {leaked[:5]}")
    if len(result.synthetic) != n_synthetic:
        raise DataError(
            f"expected {n_synthetic} synthetic rows, got {len(result.synthetic)}"
        )

    full_features = np.vstack([train.features, result.synthetic])
    full_labels = np.concatenate([train.labels, np.ones(n_synthetic, dtype=int)])
    test_features = dataset.features[test_ids]
    test_labels = dataset.labels[test_ids]

    scores = {}
    for clf_spec in cfg.classifiers:
        started = time.perf_counter()
        try:
            clf = make_classifier(clf_spec, result, f"{dataset.name}_s{shuffle}_f{fold}")
            clf.fit(full_features, full_labels)
            cm = confusion(test_labels, clf.predict(test_features))
            scores[clf_spec.name] = {
                "shuffle": shuffle,
                "fold": fold,
                "f1": f1_minority(cm),
                "kappa": cohen_kappa(cm),
                "_seconds": time.perf_counter() - started,
            }
        except Exception as exc:  # per-cell failure, run continues
            scores[clf_spec.name] = _failed_entry(shuffle, fold, exc,
                                                  time.perf_counter() - started)
    return scores


def _failed_entry(shuffle: int, fold: int, exc: Exception, seconds: float) -> dict:
    return {"shuffle": shuffle, "fold": fold, "error": f"{type(exc).__name__}: {exc}",
            "_seconds": seconds}


def _run_unit(args):
    cfg, dataset, plan, oversampler, shuffle = args
    started = time.perf_counter()
    out = []
    for fold in range(cfg.n_folds):
        try:
            scores = run_fold(cfg, dataset, plan, oversampler, shuffle, fold)
        except Exception as exc:
            scores = {clf.name: _failed_entry(shuffle, fold, exc, 0.0) for clf in cfg.classifiers}
        out.append(scores)
    return dataset.name, oversampler.name, shuffle, out, time.perf_counter() - started


# A worker's BLAS gets one thread: jobs workers that each start a BLAS
# thread per core oversubscribe the cores (measured on a 2-core box, `bench
# run` on configs/benchmark.json took 271 s with two such workers, 61 s with
# one BLAS thread each, 96 s serially).
_WORKER_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


@contextmanager
def _worker_pool(jobs: int):
    """A pool of `jobs` spawned worker processes whose BLAS runs one thread.

    BLAS reads its thread count when numpy is imported, and a forked worker
    keeps the parent's, so the workers are spawned with the settings in
    their environment; the parent's environment is restored afterwards.
    """
    # Imported here: only jobs > 1 needs a pool, and the imports cost a
    # serial run ~20 ms of start-up and ~1 MB of memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {var: os.environ.get(var) for var in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_benchmark(cfg: BenchmarkConfig, jobs: int = 1,
                  progress=None) -> tuple[dict, dict]:
    """Run the full grid; returns (report, timings).

    The report is deterministic under cfg.seed; timings are wall-clock
    seconds and vary run to run. jobs > 1 runs the (dataset, oversampler,
    shuffle) units in that many worker processes (see _worker_pool), with
    the same report bytes as a serial run.
    """
    datasets = {spec.name: spec.load() for spec in cfg.datasets}
    plans = {
        name: stratified_kfold(ds, cfg.n_folds, cfg.n_shuffles,
                               derive_seed(cfg.seed, "folds", name))
        for name, ds in datasets.items()
    }
    fold_indices = {
        name: {
            str(s): {
                str(k): plans[name].test_indices(s, k).tolist()
                for k in range(cfg.n_folds)
            }
            for s in range(cfg.n_shuffles)
        }
        for name in datasets
    }

    units = [(cfg, datasets[d.name], plans[d.name], ovs, shuffle) for d in cfg.datasets
             for ovs in cfg.oversamplers for shuffle in range(cfg.n_shuffles)]
    # Cell entries keyed in config order; units run (and map returns them) in
    # (dataset, oversampler, shuffle) order, so each list ends up in
    # (shuffle, fold) order.
    folds = {(d.name, o.name, c.name): [] for d in cfg.datasets
             for o in cfg.oversamplers for c in cfg.classifiers}
    unit_seconds = {}
    with _worker_pool(jobs) if jobs > 1 else nullcontext() as pool:
        for res in (pool.map if pool else map)(_run_unit, units):
            ds_name, ovs_name, shuffle, fold_list, seconds = res
            unit_seconds[f"{ds_name}/{ovs_name}/s{shuffle}"] = seconds
            for scores in fold_list:
                for clf_name, entry in scores.items():
                    folds[(ds_name, ovs_name, clf_name)].append(entry)
            if progress:
                progress(res)

    cells = []
    timings = {}
    for (ds_name, ovs_name, clf_name), entries in folds.items():
        timings[f"{ds_name}/{ovs_name}/{clf_name}"] = sum(e.pop("_seconds") for e in entries)
        ok = [e for e in entries if "error" not in e]
        cell = {
            "dataset": ds_name,
            "oversampler": ovs_name,
            "classifier": clf_name,
            "status": "ok" if len(ok) == len(entries) else "failed",
            "folds": entries,
        }
        if ok:
            f1s = np.array([e["f1"] for e in ok])
            kappas = np.array([e["kappa"] for e in ok])
            cell.update(f1_mean=float(f1s.mean()), f1_std=float(f1s.std(ddof=0)),
                        kappa_mean=float(kappas.mean()), kappa_std=float(kappas.std(ddof=0)))
        cells.append(cell)

    report = {"config": asdict(cfg), "fold_indices": fold_indices, "cells": cells}
    return report, {"cells": timings, "units": unit_seconds}


def dump_report(report: dict) -> str:
    """Canonical raw JSON text (stable key order, repr floats)."""
    return json.dumps(report, sort_keys=True, indent=1)


CELL_NAMES = ("dataset", "oversampler", "classifier", "status")
CELL_STATS = ("f1_mean", "f1_std", "kappa_mean", "kappa_std")


def load_report(path) -> dict:
    """The raw report at `path`, if each cell holds what the renderers read: its
    CELL_NAMES as strings and, unless all its folds failed, its CELL_STATS."""
    cells = (raw := load_json_object(path, "report")).get("cells")
    if not isinstance(cells, list) or not all(
            isinstance(c, dict) and all(isinstance(c.get(k), str) for k in CELL_NAMES)
            and (all(isinstance(c.get(k), (int, float)) for k in CELL_STATS)
                 or c.keys().isdisjoint(CELL_STATS)) for c in cells):
        raise DataError(f"{path}: report cells must be objects holding string "
                        f"{', '.join(CELL_NAMES)} and all or none of {', '.join(CELL_STATS)}")
    return raw


def report_to_csv(report: dict) -> str:
    lines = [",".join(CELL_NAMES + CELL_STATS)]
    for cell in report["cells"]:
        values = [f"{cell[key]:.6f}" if key in cell else "" for key in CELL_STATS]
        lines.append(",".join([cell[key] for key in CELL_NAMES] + values))
    return "\n".join(lines) + "\n"


def report_to_markdown(report: dict) -> str:
    """Per-dataset tables of `F1 / kappa` per oversampler and classifier.

    The best F1 cell in each classifier row is flagged with a `*`.
    """
    by_dataset: dict[str, list] = {}
    for cell in report["cells"]:
        by_dataset.setdefault(cell["dataset"], []).append(cell)

    out = []
    for ds_name, cells in by_dataset.items():
        oversamplers = list(dict.fromkeys(c["oversampler"] for c in cells))
        classifiers = list(dict.fromkeys(c["classifier"] for c in cells))
        out.append(f"## {ds_name}\n")
        out.append("| classifier | " + " | ".join(oversamplers) + " |")
        out.append("|" + "---|" * (len(oversamplers) + 1))
        lookup = {(c["oversampler"], c["classifier"]): c for c in cells}
        for clf in classifiers:
            row_cells = [lookup.get((ovs, clf)) for ovs in oversamplers]
            scored = [c for c in row_cells if c and "f1_mean" in c]
            best = max(scored, key=lambda c: c["f1_mean"], default=None)
            rendered = []
            for c in row_cells:
                if c is None or "f1_mean" not in c:
                    rendered.append("failed" if c else "-")
                    continue
                text = f"{c['f1_mean']:.3f} / {c['kappa_mean']:.3f}"
                rendered.append(f"**{text}**\\*" if c is best else text)
            out.append(f"| {clf} | " + " | ".join(rendered) + " |")
        out.append("")
    return "\n".join(out) + "\n"


def emit_report(report: dict, timings: dict, out_dir) -> dict:
    """Write report.json, timings.json, means.csv and report.md; returns paths."""
    files = {
        "raw": ("report.json", dump_report(report)),
        "timings": ("timings.json", dump_report(timings)),
        "csv": ("means.csv", report_to_csv(report)),
        "markdown": ("report.md", report_to_markdown(report)),
    }
    make_dir(out_dir)
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = os.path.join(out_dir, name)
        with open_text(paths[key], "w") as fh:
            fh.write(text)
    return paths

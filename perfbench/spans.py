"""In-memory span tracer that times convgen's layers from outside.

`Tracer.install()` replaces public functions and methods of the convgen
modules with wrappers that record one span per call: name, start, end,
parent span and fold id. A function that another module imported by name
(`from .rng import derive_seed`) is replaced under every name that refers
to it, because a caller looks it up in its own namespace. Work counts are
computed from argument and result shapes at the same boundaries.

Nothing under `src/` is changed; `install()` undoes every patch on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Adam reads param, grad, m and v and writes param, m and v: 7 float64 per
# parameter and step.
ADAM_BYTES_PER_PARAM = 7 * 8


def _adam(counts, args, out):
    n = sum(p.size for layer in args[0].layers for _, p, _ in layer.params())
    counts["nn.adam.param_updates"] += n
    counts["nn.adam.bytes_computed"] += n * ADAM_BYTES_PER_PARAM


def _dense_fwd(counts, args, out):
    counts["nn.dense.madds"] += args[1].shape[0] * args[0].w.size


def _dense_bwd(counts, args, out):
    # weight gradient and input gradient: two products of the forward's size
    counts["nn.dense.madds"] += 2 * args[1].shape[0] * args[0].w.size


def _conv_fwd(counts, args, out):
    layer = args[0]
    counts["nn.conv1d.madds"] += layer.rows_out * layer.kernel_rows * layer.features


def _conv_bwd(counts, args, out):
    layer = args[0]
    counts["nn.conv1d.madds"] += 2 * layer.rows_out * layer.kernel_rows * layer.features


def _generator_fwd(counts, args, out):
    k = out[0]
    # a column whose logits were all <= 0 falls back to exactly 1/neb
    counts["model.dead_columns"] += int(np.count_nonzero((k == 1.0 / k.shape[0]).all(axis=0)))
    counts["model.columns"] += k.shape[1]


def _d_step(counts, args, out):
    counts["model.d_steps"] += 1


def _generate(counts, args, out):
    counts["model.generate.rows"] += sum(len(b.samples) for b in out)


def _neighborhood(counts, args, out):
    counts["neighborhood.calls"] += 1


def _logreg_fit(counts, args, out):
    counts["classifiers.logreg.iters"] += len(args[0].loss_trace)


def _knn_predict(counts, args, out):
    counts["classifiers.knn.predict_rows"] += len(args[1])


def _derive_seed(counts, args, out):
    counts["rng.derive_seed.calls"] += 1


# (span name, module under convgen, function or Class.method, count hook)
TARGETS = (
    ("nn.adam", "nn", "Network.step", _adam),
    ("nn.network", "nn", "Network.forward", None),
    ("nn.network", "nn", "Network.backward", None),
    ("nn.network", "nn", "Network.backward_from", None),
    ("nn.network", "nn", "Network.zero_grad", None),
    ("nn.network", "nn", "Network.clone", None),
    ("nn.dense.fwd", "nn", "Dense.forward", _dense_fwd),
    ("nn.dense.bwd", "nn", "Dense.backward", _dense_bwd),
    ("nn.conv1d.fwd", "nn", "Conv1D.forward", _conv_fwd),
    ("nn.conv1d.bwd", "nn", "Conv1D.backward", _conv_bwd),
    ("model.fit", "model", "ConvGeNModel.fit", None),
    ("model.fit", "model", "ConvGeNModel.discriminator_step", _d_step),
    ("model.generator", "model", "Generator.forward", _generator_fwd),
    ("model.generator", "model", "Generator.backward_from_dk", None),
    ("model.generator", "model", "Generator.step", None),
    ("model.generate", "model", "ConvGeNModel.generate", _generate),
    ("model.generate", "model", "ConvGeNModel.synthetic_rows", None),
    ("model.doc_retrain", "model", "ConvGeNModel.retrain_doc", None),
    ("neighborhood.knn_minority", "neighborhood", "knn_minority", _neighborhood),
    ("neighborhood.majority_neighborhoods", "neighborhood", "majority_neighborhoods",
     _neighborhood),
    ("baselines.repeater", "baselines", "repeater_sample", None),
    ("baselines.interpolation", "baselines", "interpolation_sample", None),
    ("baselines.gan.train", "baselines", "Gan.train", None),
    ("baselines.gan.generate", "baselines", "Gan.generate", None),
    ("classifiers.logreg.fit", "classifiers", "LogisticRegressionClassifier.fit", _logreg_fit),
    ("classifiers.logreg.predict", "classifiers", "LogisticRegressionClassifier.predict", None),
    ("classifiers.knn.fit", "classifiers", "KNNClassifier.fit", None),
    ("classifiers.knn.predict", "classifiers", "KNNClassifier.predict", _knn_predict),
    ("classifiers.doc.predict", "classifiers", "DiscriminatorClassifier.predict", None),
    ("metrics.score", "metrics", "confusion", None),
    ("metrics.score", "metrics", "f1_minority", None),
    ("metrics.score", "metrics", "cohen_kappa", None),
    ("data.load_csv", "data", "load_csv", None),
    ("data.stratified_kfold", "data", "stratified_kfold", None),
    ("data.subset", "data", "Dataset.subset", None),
    ("rng.derive_seed", "rng", "derive_seed", _derive_seed),
    ("bench.run_benchmark", "bench", "run_benchmark", None),
    ("bench.run_fold", "bench", "run_fold", None),
    ("bench.oversample_fold", "bench", "oversample_fold", None),
    ("bench.emit_report", "bench", "emit_report", None),
)

# The only spans an untraced run records: per-fold wall and oversampler time.
FOLD_SPANS = ("bench.run_fold", "bench.oversample_fold")

PASS = "perfbench.pass"


class Tracer:
    """Spans in flat arrays: index i is the i-th span opened."""

    def __init__(self, span_names=None) -> None:
        self.span_names = span_names  # None: every target
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.fold = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.fold_labels: list[tuple] = []  # per fold id: (dataset, oversampler, shuffle, fold)
        self.fold_ok: list[bool] = []  # per fold id: returned with every classifier scored
        self._fold_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.fold.append(self._fold_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, span_name: str, hook):
        nid = self.name_id(span_name)
        layer = span_name.split(".", 1)[0]
        tracer = self
        is_fold = span_name == "bench.run_fold"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_fold:
                # run_fold(cfg, dataset, plan, oversampler, shuffle, fold)
                fid = tracer._fold_id = len(tracer.fold_labels)
                tracer.fold_labels.append((args[1].name, args[3].name, args[4], args[5]))
                tracer.fold_ok.append(False)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                parent = tracer.parent[idx]
                if parent < 0 or not tracer.names[tracer.name[parent]].startswith(layer + "."):
                    tracer.counts[layer + ".errors"] += 1  # counted where it leaves the layer
                raise
            finally:
                tracer.close(idx)
                if is_fold:
                    tracer._fold_id = -1
            if is_fold:
                tracer.fold_ok[fid] = all("error" not in e for e in out.values())
            if hook is not None:
                hook(tracer.counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch the targets under every name that refers to them; undo on exit."""
        modules = [m for n, m in sys.modules.items() if n == "convgen" or n.startswith("convgen.")]
        undo = []
        try:
            for span_name, module, attr, hook in TARGETS:
                if self.span_names is not None and span_name not in self.span_names:
                    continue
                owner = importlib.import_module("convgen." + module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, span_name, hook))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, span_name, hook)
                for mod in modules:
                    for name in [k for k, v in vars(mod).items() if v is orig]:
                        undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)
            yield self
        finally:
            for obj, name, orig in reversed(undo):
                setattr(obj, name, orig)

    def table(self) -> dict:
        """Per span: duration, self time, name id, outermost flag and fold id."""
        n = len(self.end)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        dur = (end - start) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        # a span whose parent has the same name is not counted again in totals
        outermost = ~nested | (name[np.maximum(parent, 0)] != name)
        return {"dur": dur, "self": dur - covered, "name": name, "outermost": outermost,
                "fold": np.frombuffer(self.fold, dtype=np.int32, count=n)}

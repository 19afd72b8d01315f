"""The traced benchmark patches convgen from outside; its hooks must resolve.

`perfbench/spans.py` is loaded read-only from the source tree, so renaming
a patched method or a parameter attribute fails here rather than only in a
traced benchmark run.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from convgen.model import ConvGeNConfig, ConvGeNModel, Generator
from convgen.nn import Conv1D, Dense, dense_network
from conftest import two_blob_dataset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for span_name, module, attr, _ in spans.TARGETS:
        owner = importlib.import_module("convgen." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{span_name}: {attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{span_name}: {attr}"


@pytest.mark.parametrize("build", [
    lambda: dense_network([3, 5, 2], ["relu", "softmax"], seed=0),
    lambda: Generator(neb=5, n_features=3, seed=0).net,
], ids=["dense", "generator"])
def test_adam_hook_counts_every_parameter(spans, build):
    net = build()
    counts = Counter()
    spans._adam(counts, (net,), None)
    assert counts["nn.adam.param_updates"] == net.params.size > 0
    assert counts["nn.adam.bytes_computed"] == net.params.size * spans.ADAM_BYTES_PER_PARAM


def test_fit_runs_generator_stacks_through_the_layer_hooks(monkeypatch):
    """The D-only passes reach Conv1D.forward and Dense.forward, the methods
    spans.py times, with (S, neb, f) and (S, 1, k'f) stacks."""
    shapes = []
    for cls in (Conv1D, Dense):
        def spy(self, x, original=cls.forward):
            shapes.append((type(self), x.shape))
            return original(self, x)

        monkeypatch.setattr(cls, "forward", spy)
    ds = two_blob_dataset(seed=15)
    ConvGeNModel(ConvGeNConfig(neb=5, neb_epochs=1, disc_train_count=2)).fit(ds)
    stacks = {(cls, shape) for cls, shape in shapes if len(shape) == 3}
    assert (Conv1D, (ds.minority_count, 5, 2)) in stacks
    assert (Dense, (ds.minority_count, 1, 3 * 2)) in stacks


def test_dense_hook_counts_every_input_of_a_stack(spans):
    layer = Dense(6, 4, "identity", np.random.default_rng(0))
    counts = Counter()
    spans._dense_fwd(counts, (layer, np.zeros((5, 1, 6))), None)
    assert counts["nn.dense.madds"] == 5 * layer.w.size

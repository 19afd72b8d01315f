"""One set-up sample, run in a fresh interpreter: import convgen, parse each
config, then load every dataset and build its fold plan as `run_benchmark`
does. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <config.json>...
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from convgen.bench import BenchmarkConfig  # noqa: E402
from convgen.data import stratified_kfold  # noqa: E402
from convgen.rng import derive_seed  # noqa: E402

for path in sys.argv[1:]:
    cfg = BenchmarkConfig.from_json(path)
    for spec in cfg.datasets:
        stratified_kfold(spec.load(), cfg.n_folds, cfg.n_shuffles,
                         derive_seed(cfg.seed, "folds", spec.name))
print(repr(time.perf_counter() - STARTED))

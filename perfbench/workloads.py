"""The benchmark's workloads: a `bench run` config (without its seed), the
number of grids a pass runs with it, and the layer prefixes the workload
must exercise in a traced run.

A pass runs the config once per grid, each with its own master seed, so
every (dataset, oversampler) group recurs throughout the pass instead of
filling one stretch of it: on a box whose speed drifts over seconds, the
fold-time percentiles then do not measure a single stretch. Sizes are
chosen so one pass takes roughly 20-35 s serially with one BLAS thread on a
2-core x86-64 box.
"""

DATASETS = [
    {"path": "datasets/abalone9-18.csv", "label_column": "label",
     "minority_label": "1", "name": "abalone9-18"},
    {"path": "datasets/yeast6.csv", "label_column": "label",
     "minority_label": "1", "name": "yeast6"},
]

# Every workload scores with logreg and runs the whole harness.
COMMON_LAYERS = ("classifiers.logreg.", "metrics.", "data.", "rng.", "bench.")

WORKLOADS = {
    # ConvGeN with the paper's training settings (10 neighbourhood epochs,
    # 5 discriminator passes). 2 folds instead of the paper's 5 keep a pass
    # near 20-25 s (5 folds take ~80 s); training folds hold 21 (abalone)
    # and 17-18 (yeast) minority rows, so min,maj trains a 26k-39k parameter
    # generator bound by Adam and Dense, while 5,prox is bound by per-call
    # overhead and runs majority_neighborhoods.
    "convgen-cv": {
        "config": {
            "datasets": DATASETS,
            "oversamplers": [
                {"kind": "convgen", "name": "convgen-min-maj", "preset": "min,maj"},
                {"kind": "convgen", "name": "convgen-5-prox", "preset": "5,prox"},
            ],
            "classifiers": ["logreg", "doc"],
            "n_folds": 2,
            "n_shuffles": 1,
        },
        "grids": 1,
        "exercises": ("nn.", "model.", "neighborhood.", "classifiers.doc."),
    },
    # A 5x5 protocol with the cheap oversamplers: nn is idle, logreg fit and
    # kNN predict dominate, and folds are short enough that harness overhead
    # shows.
    "baseline-cv": {
        "config": {
            "datasets": DATASETS,
            "oversamplers": [
                {"kind": "repeater", "name": "repeater"},
                {"kind": "interpolation", "name": "interpolation", "k": 5},
            ],
            "classifiers": ["knn", "logreg"],
            "n_folds": 5,
            "n_shuffles": 1,
        },
        "grids": 5,
        "exercises": ("baselines.repeater", "baselines.interpolation",
                      "classifiers.knn."),
    },
    # The vanilla GAN: nn runs two Dense-only MLPs stepping alternately on
    # batches of <= 32 rows, with no Conv1D and no simplex step.
    "gan-cv": {
        "config": {
            "datasets": DATASETS,
            "oversamplers": [{"kind": "gan", "name": "gan", "epochs": 100}],
            "classifiers": ["knn", "logreg"],
            "n_folds": 5,
            "n_shuffles": 1,
        },
        "grids": 3,
        "exercises": ("nn.adam.", "nn.dense.", "nn.network.", "baselines.gan.",
                      "classifiers.knn."),
    },
}

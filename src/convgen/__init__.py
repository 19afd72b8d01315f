"""Convex-space generative oversampling for small imbalanced tabular data."""

from .data import Dataset, FoldPlan, ScaleInfo, compute_alpha, load_csv, scale, stratified_kfold, unscale
from .model import ConvGeNConfig, ConvGeNModel, SyntheticBatch
from .metrics import ConfusionMatrix, cohen_kappa, confusion, f1_minority

__all__ = [
    "ConfusionMatrix",
    "ConvGeNConfig",
    "ConvGeNModel",
    "Dataset",
    "FoldPlan",
    "ScaleInfo",
    "SyntheticBatch",
    "cohen_kappa",
    "compute_alpha",
    "confusion",
    "f1_minority",
    "load_csv",
    "scale",
    "stratified_kfold",
    "unscale",
]

__version__ = "0.1.0"

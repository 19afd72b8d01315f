"""Convex-space generative oversampling for small imbalanced tabular data."""

from .data import Dataset, FoldPlan, load_csv, stratified_kfold
from .model import ConvGeNConfig, ConvGeNModel, SyntheticBatch
from .metrics import ConfusionMatrix, cohen_kappa, confusion, f1_minority

__all__ = [
    "ConfusionMatrix",
    "ConvGeNConfig",
    "ConvGeNModel",
    "Dataset",
    "FoldPlan",
    "SyntheticBatch",
    "cohen_kappa",
    "confusion",
    "f1_minority",
    "load_csv",
    "stratified_kfold",
]

__version__ = "0.1.0"

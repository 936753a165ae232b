"""From-scratch random forest: bagged CART trees with Gini splits.

Everything is numpy; the per-node split search is `splitter.scan_sorted`.
"""

from .model import (
    DecisionTree,
    ForestModel,
    TreeParams,
    fit_forest,
    fit_tree,
    load_forest,
    predict,
    predict_tree,
    save_forest,
)
from .splitter import backend_name

__all__ = [
    "DecisionTree",
    "ForestModel",
    "TreeParams",
    "backend_name",
    "fit_forest",
    "fit_tree",
    "load_forest",
    "predict",
    "predict_tree",
    "save_forest",
]

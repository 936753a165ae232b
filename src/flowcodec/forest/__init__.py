"""From-scratch random forest: bagged CART trees with Gini splits.

Everything is numpy. `fit_tree` sorts each feature column once per tree
and partitions those orders stably at every split, so a node's columns are
always sorted; `splitter.scan_sorted` then scores all of a node's candidate
columns in one pass. Equal scores keep the lowest feature index, then the
earliest boundary.
"""

from .model import (
    DEFAULT_N_TREES,
    DecisionTree,
    ForestModel,
    TreeParams,
    fit_forest,
    fit_tree,
    predict,
    predict_tree,
)
from .splitter import backend_name

__all__ = [
    "DEFAULT_N_TREES",
    "DecisionTree",
    "ForestModel",
    "TreeParams",
    "backend_name",
    "fit_forest",
    "fit_tree",
    "predict",
    "predict_tree",
]

"""From-scratch random forest: bagged CART trees with Gini splits.

Everything is numpy. At each node `fit_tree` sorts only the node's
candidate columns, over the node's rows, and `splitter.scan_sorted` scores
all of them in one pass. Equal scores keep the lowest feature index, then the
earliest boundary.
"""

from .model import (
    DEFAULT_N_TREES,
    DecisionTree,
    ForestModel,
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
    "backend_name",
    "fit_forest",
    "fit_tree",
    "predict",
    "predict_tree",
]

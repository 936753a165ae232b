"""CART trees and bagging.

Trees are stored as flat preorder arrays rather than node objects: children
always carry a higher index than their parent, so the vectorized traversal
in `predict_tree` only moves forward and always ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from . import splitter

DEFAULT_N_TREES = 100


@dataclass
class DecisionTree:
    """Flat preorder node arrays. feature == -1 marks a leaf; left/right are
    child node ids for internal nodes and -1 for leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_counts: np.ndarray
    leaf_class: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.leaf_class = np.argmax(self.class_counts, axis=1).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


def _checked_inputs(X: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """X as contiguous float64 and y as int64, or DataError if X has no row
    or no column, the shapes disagree, a label lies outside [0, n_classes)
    or X holds a non-finite value."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"X must be a 2-D matrix with at least one row and one column, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DataError(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if n_classes < 1 or y.min() < 0 or y.max() >= n_classes:
        raise DataError("labels must lie in [0, n_classes)")
    if not np.all(np.isfinite(X)):
        raise DataError("X contains non-finite values")
    return X, y


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    seed: int | np.random.SeedSequence = 0,
) -> DecisionTree:
    """Grow one CART tree on (X, y) with Gini-equivalent score splits, until
    every node is pure or has no split.

    Each node draws k = ceil(sqrt(n_features)) candidate features uniformly
    without replacement; with one or two features k is all of them, and no
    draw is made. Tie-breaks are deterministic: equal split scores keep the
    lowest feature index and earliest boundary, equal leaf counts keep the
    lowest class id.

    Each node sorts only its k candidate columns: it gathers them from the
    node's rows, argsorts each, and scores them all in one `scan_sorted`
    call. The sort need not be stable: a boundary only falls between
    distinct values, so the rows on each side, the score and the threshold
    do not depend on how equal values are ordered.
    """
    X, y = _checked_inputs(X, y, n_classes)
    scan = splitter.scan_sorted
    n, n_features = X.shape
    root = math.isqrt(n_features)
    k = root if root * root == n_features else root + 1
    rng = np.random.default_rng(seed)
    # The narrowest label type lets the scan's sort by label run as a radix sort.
    y_small = y.astype(np.min_scalar_type(n_classes - 1))
    all_features = np.arange(n_features)
    # Flat takes gather a node's candidate columns; 2-D fancy indexing of X
    # was about twice as slow.
    flat = X.ravel()

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    # Explicit stack keeps preorder ids without recursion-depth limits:
    # push right before left so the left subtree is numbered first. Each
    # entry holds the row ids of its node; the entries are disjoint.
    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(n), -1, False)]
    while stack:
        rows, parent, is_left = stack.pop()
        m = rows.shape[0]
        node = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        node_counts = np.bincount(y[rows], minlength=n_classes)
        counts.append(node_counts)

        if int(node_counts.max()) == m:
            continue

        if k < n_features:
            candidates = np.sort(rng.choice(n_features, size=k, replace=False))
        else:
            candidates = all_features
        columns = candidates[:, np.newaxis]
        # [k, m] row ids, each candidate's in ascending order of its values.
        by_value = rows[flat.take(rows * n_features + columns).argsort(axis=1)]
        values = flat.take(by_value * n_features + columns)
        best = scan(values, y_small[by_value], n_classes)
        if best is None:
            continue
        _, row, n_left, threshold[node] = best
        feature[node] = int(candidates[row])

        # The winning column is sorted, so its first n_left rows go left.
        # Copies, so that a pending child does not keep its parent's
        # [k, m] array alive.
        stack.append((by_value[row, n_left:].copy(), node, False))
        stack.append((by_value[row, :n_left].copy(), node, True))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        class_counts=np.asarray(counts, dtype=np.int64),
    )


def predict_tree(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Class ids from one tree, all rows walked level-by-level."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be 2-D")
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        active = np.nonzero(tree.feature[node] >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.leaf_class[node]


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    n_features: int
    n_classes: int


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int = DEFAULT_N_TREES,
    seed: int = 0,
) -> ForestModel:
    """Bagging: each tree is a `fit_tree` tree on n rows drawn with
    replacement.

    Tree i derives its bootstrap and split randomness from
    SeedSequence([seed, i]), so any single tree can be rebuilt without
    replaying the stream for the ones before it.
    """
    if n_trees < 1:
        raise DataError(f"n_trees must be >= 1, got {n_trees}")
    # Checked on the full inputs: a bad row that no bootstrap draws would
    # otherwise pass unnoticed.
    X, y = _checked_inputs(X, y, n_classes)

    n = X.shape[0]
    trees = []
    for i in range(n_trees):
        boot_seed, tree_seed = np.random.SeedSequence([seed, i]).spawn(2)
        rows = np.random.default_rng(boot_seed).integers(0, n, size=n)
        trees.append(fit_tree(X[rows], y[rows], n_classes, tree_seed))
    return ForestModel(trees=trees, n_features=X.shape[1], n_classes=n_classes)


def predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over trees; vote ties resolve to the lowest class id."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} feature columns, got shape {X.shape}")
    votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        votes[rows, predict_tree(tree, X)] += 1
    return np.argmax(votes, axis=1).astype(np.int64)


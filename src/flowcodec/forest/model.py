"""CART trees and bagging.

Trees are stored as flat preorder arrays rather than node objects: children
always carry a higher index than their parent, which serialization and the
vectorized traversal both rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .._fsutil import field as json_field
from .._fsutil import read_json, write_json
from ..errors import DataError, ModelFormatError
from . import splitter

FOREST_FORMAT_VERSION = 1
DEFAULT_N_TREES = 100


@dataclass(frozen=True)
class TreeParams:
    """Growth limits shared by every tree in a forest.

    max_features: "sqrt" (ceil of sqrt(n_features)), "all", or an explicit
    count clamped to [1, n_features].
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: str | int = "sqrt"

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise DataError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise DataError(f"max_features must be 'sqrt', 'all' or an int, got {self.max_features!r}")
        elif self.max_features < 1:
            raise DataError(f"max_features must be >= 1, got {self.max_features}")

    def features_per_split(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            root = math.isqrt(n_features)
            return root if root * root == n_features else root + 1
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        """Omitted keys keep their defaults; a key that is not a field is a DataError."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise DataError(f"unknown key(s) {unknown}")
        return cls(**d)


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

    @property
    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            if self.feature[node] >= 0:
                depths[self.left[node]] = depths[node] + 1
                depths[self.right[node]] = depths[node] + 1
        return int(depths.max())


def _checked_inputs(X: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """X as contiguous float64 and y as int64, or DataError if the shapes
    disagree, a label lies outside [0, n_classes) or X holds a non-finite
    value."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("X must be a non-empty 2-D matrix")
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
    params: TreeParams = TreeParams(),
    seed: int | np.random.SeedSequence = 0,
) -> DecisionTree:
    """Grow one CART tree on (X, y) with Gini-equivalent score splits.

    Candidate features are a fresh uniform draw without replacement at every
    node (only when the subset is proper, so "all" consumes no randomness).
    Tie-breaks are deterministic: equal split scores keep the lowest feature
    index and earliest boundary, equal leaf counts keep the lowest class id.

    Each feature column is sorted once per tree. A node holds its rows as
    one such order per feature, and a split partitions every order stably,
    so each node's columns arrive sorted and the node's candidates are
    scored in one `scan_sorted` call. The sort need not be stable: a
    boundary only falls between distinct values, so the rows on each side,
    the score and the threshold do not depend on how equal values are
    ordered.
    """
    X, y = _checked_inputs(X, y, n_classes)
    scan = splitter.scan_sorted
    n, n_features = X.shape
    k = params.features_per_split(n_features)
    rng = np.random.default_rng(seed)
    # The narrowest label type lets the scan's sort by label run as a radix sort.
    y_small = y.astype(np.min_scalar_type(n_classes - 1))
    all_features = np.arange(n_features)
    goes_left = np.zeros(n, dtype=bool)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    # Explicit stack keeps preorder ids without recursion-depth limits:
    # push right before left so the left subtree is numbered first. Each
    # entry's order is [n_features, rows in node]: row ids by feature value.
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.argsort(X.T, axis=1), 0, -1, False)
    ]
    while stack:
        order, depth, parent, is_left = stack.pop()
        m = order.shape[1]
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
        node_counts = np.bincount(y[order[0]], minlength=n_classes)
        counts.append(node_counts)

        pure = int(node_counts.max()) == m
        too_small = m < params.min_samples_split
        too_deep = params.max_depth is not None and depth >= params.max_depth
        if pure or too_small or too_deep:
            continue

        if k < n_features:
            candidates = np.sort(rng.choice(n_features, size=k, replace=False))
        else:
            candidates = all_features
        rows = order[candidates]
        best = scan(X[rows, candidates[:, np.newaxis]], y_small[rows], n_classes)
        if best is None:
            continue
        _, row, n_left, threshold[node] = best
        feature[node] = int(candidates[row])

        # The winning column is sorted, so its first n_left rows go left.
        left_rows = rows[row, :n_left]
        goes_left[left_rows] = True
        mask = goes_left[order]
        goes_left[left_rows] = False
        stack.append((order[~mask].reshape(n_features, m - n_left), depth + 1, node, False))
        stack.append((order[mask].reshape(n_features, n_left), depth + 1, node, True))

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
    params: TreeParams
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int = DEFAULT_N_TREES,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> ForestModel:
    """Bagging: each tree trains on n rows drawn with replacement.

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
        trees.append(fit_tree(X[rows], y[rows], n_classes, params, tree_seed))
    return ForestModel(
        trees=trees, n_features=X.shape[1], n_classes=n_classes, params=params, seed=seed
    )


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


def save_forest(model: ForestModel, path: str | Path) -> None:
    """JSON container; leaf counts only, since internal counts are the sums
    of their children. Written atomically."""
    trees = []
    for tree in model.trees:
        leaf_rows = tree.class_counts[tree.feature < 0]
        trees.append(
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "leaf_counts": leaf_rows.tolist(),
            }
        )
    doc = {
        "format_version": FOREST_FORMAT_VERSION,
        "n_features": model.n_features,
        "n_classes": model.n_classes,
        "n_trees": model.n_trees,
        "seed": model.seed,
        "params": model.params.to_dict(),
        "trees": trees,
    }
    write_json(path, doc, sort_keys=True)


def load_forest(path: str | Path) -> ForestModel:
    """Read a forest back, checking the preorder layout predict relies on:
    every child id lies in (node, n_nodes), every split feature in
    [0, n_features), every threshold is finite and no leaf count is
    negative."""
    doc = read_json(path, "forest file")
    if doc.get("format_version") != FOREST_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported forest file version in {path}")
    n_features = json_field(doc, "n_features", int, path)
    n_classes = json_field(doc, "n_classes", int, path)
    seed = json_field(doc, "seed", int, path)
    if n_features < 1 or n_classes < 1:
        raise ModelFormatError(f"{path}: implausible forest shape ({n_features}, {n_classes})")
    try:
        params = TreeParams.from_dict(json_field(doc, "params", dict, path))
    except (DataError, TypeError) as exc:
        raise ModelFormatError(f"{path}: bad tree params: {exc}") from exc
    trees = []
    for i, t in enumerate(json_field(doc, "trees", list[dict], path)):
        where = f"{path}: tree {i}"
        feature, left, right = (json_field(t, k, np.int64, where) for k in ("feature", "left", "right"))
        threshold = json_field(t, "threshold", np.float64, where)
        n_nodes = feature.shape[0]
        if n_nodes == 0 or not left.shape == right.shape == threshold.shape == feature.shape:
            raise ModelFormatError(f"{where}: node arrays are empty or disagree in length")
        internal = feature >= 0
        parent = np.arange(n_nodes)[internal]
        for child in (left[internal], right[internal]):
            if (child <= parent).any() or (child >= n_nodes).any():
                raise ModelFormatError(f"{where}: child ids break the preorder layout")
        if (feature >= n_features).any() or (feature < -1).any():
            raise ModelFormatError(f"{where}: split feature outside [0, {n_features})")
        if not np.isfinite(threshold).all():
            raise ModelFormatError(f"{where}: non-finite threshold")
        counts = np.zeros((n_nodes, n_classes), dtype=np.int64)
        leaf_rows = json_field(t, "leaf_counts", np.int64, where, ndim=2)
        if leaf_rows.shape != (n_nodes - int(internal.sum()), n_classes):
            raise ModelFormatError(f"leaf count block malformed in {path}")
        if (leaf_rows < 0).any():
            raise ModelFormatError(f"{where}: negative leaf count")
        counts[~internal] = leaf_rows
        # Children have higher preorder ids, so one reverse sweep fills
        # internal counts bottom-up.
        for node in range(n_nodes - 1, -1, -1):
            if internal[node]:
                counts[node] = counts[left[node]] + counts[right[node]]
        trees.append(
            DecisionTree(feature=feature, threshold=threshold, left=left, right=right, class_counts=counts)
        )
    return ForestModel(
        trees=trees, n_features=n_features, n_classes=n_classes, params=params, seed=seed
    )

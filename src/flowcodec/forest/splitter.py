"""The forest's split scan: one numpy pass over a node's candidate columns.

`fit_tree` sorts each of a node's k candidate columns over the node's m
rows and hands them to this module as one `[k, m]` block, so the scan
scores every boundary of every candidate in one pass.

Scores are sums of squared integer class counts divided by float64
partition sizes, left term plus right term. The sums come from integer
prefix sums, so each term is exact up to its division. Ties go to the
lowest candidate row, then the earliest boundary, so a tree is a pure
function of its inputs and seed. `fit_tree` looks `scan_sorted` up on this
module at call time, so a caller may wrap it (to count or time calls, say)
without touching the tree code.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the split kernel; recorded with benchmark results."""
    return "node-sort"


def scan_sorted(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[float, int, int, float] | None:
    """Best binary split over k candidate columns, each sorted ascending.

    values: float64[k, m], each row sorted ascending; labels: integer[k, m]
    aligned with values, every row a permutation of the same m labels (the
    node's rows, ordered by that row's feature). Candidate boundaries sit
    between consecutive distinct values of a row; the split score is
    sum_c(left_c^2)/n_left + sum_c(right_c^2)/n_right, which ranks splits
    identically to weighted Gini impurity but needs no subtraction.

    Returns None when no row has two distinct values, else
    (score, row, n_left, threshold): the winning row of `values`, the size
    of its left side, and the threshold, the midpoint of the boundary pair
    nudged down to the lower value if rounding lands it on the upper one, so
    `value <= threshold` sends exactly the first n_left entries left. Equal
    scores keep the lowest row, then the earliest boundary.
    """
    k, m = values.shape
    if m < 2:
        return None

    # Every row holds the same labels, so the class totals are shared.
    # sum_c(left_c^2) grows by 2*occ + 1 at each entry, where occ counts the
    # earlier entries of that entry's class: a stable sort by label puts each
    # class in one run, in which occ is the offset from the run's start.
    # The [k, m] work arrays are updated in place, so that a large node
    # holds few of them at once.
    total = np.bincount(labels[0], minlength=n_classes)
    by_class = np.argsort(labels, axis=1, kind="stable")
    occ = np.arange(m) - np.repeat(np.cumsum(total) - total, total)
    left_sq = np.empty((k, m), dtype=np.int64)
    left_sq[np.arange(k)[:, np.newaxis], by_class] = 2 * occ + 1
    del by_class
    np.cumsum(left_sq, axis=1, out=left_sq)
    # sum_c(right_c^2) = sum_c(total_c^2) - 2*sum_c(total_c*left_c) + sum_c(left_c^2)
    right_sq = total[labels]
    np.cumsum(right_sq, axis=1, out=right_sq)
    right_sq *= -2
    right_sq += left_sq
    right_sq += int(total @ total)

    n_left = np.arange(1, m, dtype=np.float64)
    n_right = np.float64(m) - n_left
    score = left_sq[:, :-1] / n_left
    del left_sq
    score += right_sq[:, :-1] / n_right
    score[values[:, 1:] == values[:, :-1]] = -np.inf

    row, b = divmod(int(np.argmax(score)), m - 1)
    best = score[row, b]
    if best == -np.inf:
        return None
    lo, hi = values[row, b], values[row, b + 1]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:
        threshold = lo
    return float(best), row, b + 1, float(threshold)

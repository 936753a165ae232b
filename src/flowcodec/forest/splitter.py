"""The forest's split scan: one numpy pass per sorted feature column.

Scores are sums of squared integer class counts divided by float64
partition sizes, left term plus right term, and the first boundary that
attains the maximum wins, so a tree is a pure function of its inputs and
seed. `fit_tree` looks `scan_sorted` up on this module at call time, so a
caller may wrap it (to count or time calls, say) without touching the tree
code.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the split kernel; recorded with benchmark results."""
    return "python"


def scan_sorted(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[float, float, bool]:
    """Best binary split of a column already sorted ascending.

    values: float64[n] sorted ascending; labels: int64[n] aligned with values.
    Candidate boundaries sit between consecutive distinct values; the split
    score is sum_k(count_left_k^2)/n_left + sum_k(count_right_k^2)/n_right,
    which ranks splits identically to weighted Gini impurity but needs no
    subtraction. Returns (score, threshold, found); threshold is the midpoint
    of the boundary pair, nudged down to the lower value if rounding lands it
    on the upper one so `value <= threshold` always sends the lower side left.
    """
    n = values.shape[0]
    if n < 2 or values[0] == values[n - 1]:
        return 0.0, 0.0, False

    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), labels] = 1
    left_counts = np.cumsum(onehot, axis=0)
    total = left_counts[-1]
    left_counts = left_counts[:-1]
    right_counts = total[np.newaxis, :] - left_counts

    n_left = np.arange(1, n, dtype=np.float64)
    n_right = np.float64(n) - n_left
    score = (
        np.sum(left_counts * left_counts, axis=1) / n_left
        + np.sum(right_counts * right_counts, axis=1) / n_right
    )
    score = np.where(values[1:] != values[:-1], score, -np.inf)

    best = int(np.argmax(score))
    threshold = 0.5 * (values[best] + values[best + 1])
    if threshold >= values[best + 1]:
        threshold = values[best]
    return float(score[best]), float(threshold), True

import numpy as np
import pytest

from flowcodec.errors import DataError
from flowcodec.flow_data import default_class_specs, generate_synthetic
from flowcodec.forest import (
    DecisionTree,
    ForestModel,
    backend_name,
    fit_forest,
    fit_tree,
    predict,
    predict_tree,
)
from flowcodec.forest.splitter import scan_sorted


def brute_force_scan(values, labels, n_classes):
    """Direct per-boundary evaluation of the split score, written from the
    definition: sum of squared class counts over size, left plus right."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    n = len(v)
    best_score, best_thr, found = 0.0, 0.0, False
    for i in range(n - 1):
        if v[i] == v[i + 1]:
            continue
        left = np.bincount(y[: i + 1], minlength=n_classes).astype(np.int64)
        right = np.bincount(y[i + 1 :], minlength=n_classes).astype(np.int64)
        score = float(np.sum(left * left)) / float(i + 1) + float(np.sum(right * right)) / float(
            n - i - 1
        )
        if not found or score > best_score:
            thr = 0.5 * (v[i] + v[i + 1])
            if thr >= v[i + 1]:
                thr = v[i]
            best_score, best_thr, found = score, thr, True
    return best_score, best_thr, found


def brute_force_batch(values, labels, n_classes):
    """The batched scan's answer from the per-column oracle: the first row
    with the highest score wins, and n_left counts the values at or below
    the threshold."""
    best = None
    for row in range(values.shape[0]):
        score, thr, found = brute_force_scan(values[row], labels[row], n_classes)
        if found and (best is None or score > best[0]):
            best = (score, row, int(np.sum(values[row] <= thr)), thr)
    return best


def sorted_block(X, y, candidates):
    """The [k, m] values and labels fit_tree hands the scan: each candidate
    column of X with the labels, ordered by that column (stable)."""
    order = np.argsort(X[:, candidates].T, axis=1, kind="stable")
    return np.take_along_axis(X[:, candidates].T, order, axis=1), y[order]


def random_block(rng):
    m = int(rng.integers(1, 40))
    n_features = int(rng.integers(1, 6))
    n_classes = int(rng.integers(2, 5))
    if rng.random() < 0.3:
        # Heavy ties exercise the distinct-boundary rule.
        X = rng.integers(0, 4, size=(m, n_features)).astype(np.float64)
    else:
        X = rng.normal(size=(m, n_features))
    y = rng.integers(0, n_classes, size=m).astype(np.int64)
    k = int(rng.integers(1, n_features + 1))
    candidates = np.sort(rng.choice(n_features, size=k, replace=False))
    return (*sorted_block(X, y, candidates), n_classes)


# ---------------------------------------------------------------- scan


def test_scan_matches_brute_force_exactly():
    assert backend_name() == "node-sort"
    rng = np.random.default_rng(100)
    for _ in range(300):
        values, labels, k = random_block(rng)
        want = brute_force_batch(values, labels, k)
        # fit_tree hands the scan its labels in the narrowest integer type.
        for dtype in (np.int64, np.uint8):
            got = scan_sorted(values, labels.astype(dtype), k)
            assert got == want, f"{got} != {want} on {values!r} {labels!r}"


def test_scan_tie_across_rows_keeps_the_lowest_row():
    rng = np.random.default_rng(102)
    for _ in range(100):
        m = int(rng.integers(2, 30))
        col = rng.integers(0, 5, size=m).astype(np.float64)
        y = rng.integers(0, 3, size=m).astype(np.int64)
        # The same column twice, and an increasing affine copy of it: every
        # boundary scores the same in all three rows, at other thresholds.
        X = np.column_stack([2.0 * col + 1.0, col, col])
        for candidates in ([0, 1, 2], [1, 2], [1, 0]):
            values, labels = sorted_block(X, y, candidates)
            got = scan_sorted(values, labels, 3)
            assert got == brute_force_batch(values, labels, 3)
            if got is not None:
                assert got[1] == 0


def test_scan_tie_across_rows_at_different_boundaries():
    # Row 0 splits the labels {0} | {0, 1, 1}, row 1 splits {0, 0, 1} | {1}:
    # both score 1/1 + 5/3. The first row wins wherever its boundary lies.
    values = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    labels = np.array([[0, 0, 1, 1], [0, 0, 1, 1]], dtype=np.int64)
    got = scan_sorted(values, labels, 2)
    assert got == brute_force_batch(values, labels, 2)
    assert got[1:3] == (0, 1)
    got = scan_sorted(values[::-1].copy(), labels[::-1].copy(), 2)
    assert got == brute_force_batch(values[::-1], labels[::-1], 2)
    assert got[1:3] == (0, 3)


def test_scan_constant_column_finds_nothing():
    y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    constant = np.full(6, 2.5)
    assert scan_sorted(constant[np.newaxis], y[np.newaxis], 2) is None
    assert scan_sorted(np.array([[1.0]]), np.array([[0]], dtype=np.int64), 2) is None
    assert scan_sorted(np.array([[1.0], [2.0]]), np.array([[0], [0]], dtype=np.int64), 2) is None
    # A constant row before a varying one does not win with its -inf scores.
    varying = np.arange(6.0)
    got = scan_sorted(np.stack([constant, varying]), np.stack([y, y]), 2)
    assert got == brute_force_batch(np.stack([constant, varying]), np.stack([y, y]), 2)
    assert got[1] == 1


def test_scan_threshold_snaps_below_upper_neighbor():
    lo = 1.0
    hi = np.nextafter(1.0, 2.0)
    # The exact midpoint of adjacent doubles rounds to one of them; the
    # threshold must never equal the upper value or the split sends both
    # sides left.
    score, row, n_left, thr = scan_sorted(
        np.array([[lo, hi]]), np.array([[0, 1]], dtype=np.int64), 2
    )
    assert (row, n_left) == (0, 1)
    assert thr < hi
    assert lo <= thr


# ---------------------------------------------------------------- single tree


def test_tree_perfectly_fits_consistent_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 6))
    X += np.arange(300)[:, None] * 1e-9  # guarantee duplicate-free rows
    y = ((X[:, 0] > 0).astype(np.int64) + (X[:, 1] > 0.5).astype(np.int64))
    tree = fit_tree(X, y, n_classes=3, seed=1)
    assert np.array_equal(predict_tree(tree, X), y)


def test_tree_pure_input_is_single_leaf():
    X = np.random.default_rng(8).normal(size=(20, 3))
    y = np.zeros(20, dtype=np.int64)
    tree = fit_tree(X, y, n_classes=2, seed=0)
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert np.array_equal(tree.class_counts[0], [20, 0])


def test_tree_constant_features_become_leaf():
    X = np.ones((10, 3))
    y = np.array([0, 1] * 5, dtype=np.int64)
    tree = fit_tree(X, y, n_classes=2, seed=0)
    assert tree.n_nodes == 1
    assert tree.leaf_class[0] == 0  # tied counts resolve to the lowest id


def test_tree_node_counts_partition():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 5))
    y = rng.integers(0, 3, size=150).astype(np.int64)
    tree = fit_tree(X, y, n_classes=3, seed=2)
    # Every internal node's counts must equal the sum of its children's.
    for node in range(tree.n_nodes):
        if tree.feature[node] >= 0:
            left, right = tree.left[node], tree.right[node]
            assert np.array_equal(
                tree.class_counts[node], tree.class_counts[left] + tree.class_counts[right]
            )
    assert np.array_equal(tree.class_counts[0], np.bincount(y, minlength=3))


def test_predict_tree_matches_manual_walk():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 3, size=120).astype(np.int64)
    tree = fit_tree(X, y, n_classes=3, seed=3)
    probe = rng.normal(size=(40, 4))
    got = predict_tree(tree, probe)
    for i in range(probe.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            if probe[i, tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        assert got[i] == np.argmax(tree.class_counts[node])


def test_fit_tree_validation():
    X = np.ones((5, 2))
    with pytest.raises(DataError):
        fit_tree(X, np.array([0, 0, 0, 0, 5], dtype=np.int64), n_classes=2, seed=0)
    with pytest.raises(DataError):
        fit_tree(X, np.zeros(4, dtype=np.int64), n_classes=2, seed=0)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        fit_tree(bad, np.zeros(5, dtype=np.int64), n_classes=2, seed=0)
    with pytest.raises(DataError, match=r"got shape \(5, 0\)"):
        fit_tree(np.zeros((5, 0)), np.array([0, 1, 0, 1, 0]), n_classes=2, seed=0)


# ---------------------------------------------------------------- reference loop
#
# The tree builder written plainly: every node argsorts each candidate column
# of its rows (stable), scans it alone with class counts from a one-hot
# cumulative sum, and splits its rows by comparing against the threshold.
# The RNG is shared with the library.


def _ref_scan(values, labels, n_classes):
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


def _ref_fit_tree(X, y, n_classes, seed):
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    n_features = X.shape[1]
    k = int(np.ceil(np.sqrt(n_features)))
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(np.arange(X.shape[0], dtype=np.int64), -1, False)]
    while stack:
        rows, parent, is_left = stack.pop()
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
        if int(node_counts.max()) == rows.shape[0]:  # pure
            continue
        if k < n_features:
            candidates = np.sort(rng.choice(n_features, size=k, replace=False))
        else:
            candidates = np.arange(n_features)
        best_score, best_feature, best_threshold = -np.inf, -1, 0.0
        labels = y[rows]
        for f in candidates:
            col = X[rows, f]
            order = np.argsort(col, kind="stable")
            score, thr, found = _ref_scan(col[order], labels[order], n_classes)
            if found and score > best_score:
                best_score, best_feature, best_threshold = score, int(f), thr
        if best_feature < 0:
            continue
        feature[node] = best_feature
        threshold[node] = best_threshold
        go_left = X[rows, best_feature] <= best_threshold
        stack.append((rows[~go_left], node, False))
        stack.append((rows[go_left], node, True))
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        class_counts=np.asarray(counts, dtype=np.int64),
    )


def _reference_problems():
    rng = np.random.default_rng(20)
    yield np.array([[3.0, -1.0]]), np.array([1]), 2  # one row
    yield np.ones((12, 4)), np.array([0, 1] * 6), 2  # every column constant
    yield rng.normal(size=(30, 3)), np.zeros(30, dtype=np.int64), 1  # one class
    signed_zeros = np.where(rng.random((40, 3)) < 0.5, 0.0, -0.0)
    signed_zeros[::7, 1] = 1.0
    yield signed_zeros, rng.integers(0, 2, size=40), 2
    # Long runs of equal values, so that the order the library's unstable
    # per-node sort leaves within a run differs from row order.
    runs = rng.integers(-1, 2, size=(400, 5)) * np.where(rng.random((400, 5)) < 0.5, 1.0, -1.0)
    yield runs, rng.integers(0, 3, size=400), 3
    dup = rng.normal(size=(60, 2))
    yield np.column_stack([dup, dup, 3.0 * dup[:, 0]]), rng.integers(0, 3, size=60), 3
    for _ in range(6):
        n = int(rng.integers(2, 160))
        n_features = int(rng.integers(1, 10))
        n_classes = int(rng.integers(2, 6))
        X = rng.normal(size=(n, n_features))
        ties = rng.random(n_features) < 0.5  # heavy ties in about half the columns
        X[:, ties] = rng.integers(0, 3, size=(n, int(ties.sum())))
        yield X, rng.integers(0, n_classes, size=n), n_classes
    # A bootstrap of a hard synthetic mix at a realistic size: deeper trees
    # with many small nodes, and ties from the bootstrap's repeated rows and
    # the integer-valued packet columns.
    ds = generate_synthetic(200, default_class_specs(0.9), seed=5)
    boot = rng.integers(0, len(ds), size=len(ds))
    yield ds.features[boot], ds.label_ids[boot], len(ds.class_names)


def test_fit_tree_matches_reference_loop_bit_for_bit():
    for i, (X, y, n_classes) in enumerate(_reference_problems()):
        for seed in (0, 1, 2):
            got = fit_tree(X, y, n_classes, seed)
            want = _ref_fit_tree(X, y, n_classes, seed)
            for name in ("feature", "threshold", "left", "right", "class_counts"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (i, seed, name)
                assert getattr(got, name).dtype == getattr(want, name).dtype


def test_fit_tree_does_not_depend_on_row_order():
    # Each node sorts its candidate columns with an unstable sort, so equal
    # values can come out in any order; the tree must not see that order.
    rng = np.random.default_rng(23)
    for i, (X, y, n_classes) in enumerate(_reference_problems()):
        for seed in (0, 1, 2):
            want = fit_tree(X, y, n_classes, seed=seed)
            for _ in range(3):
                p = rng.permutation(len(y))
                got = fit_tree(X[p], y[p], n_classes, seed=seed)
                for name in ("feature", "threshold", "left", "right", "class_counts"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (i, seed, name)


# ---------------------------------------------------------------- forest


def test_forest_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(200, 5))
    y = (X[:, 0] + X[:, 2] > 0).astype(np.int64)
    a = fit_forest(X, y, n_classes=2, n_trees=5, seed=21)
    b = fit_forest(X, y, n_classes=2, n_trees=5, seed=21)
    c = fit_forest(X, y, n_classes=2, n_trees=5, seed=22)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
    assert any(
        not np.array_equal(ta.threshold, tc.threshold) for ta, tc in zip(a.trees, c.trees)
    )


def test_forest_tree_seeding_is_per_tree():
    # Tree i depends only on (seed, i), so any single tree can be rebuilt
    # in isolation.
    rng = np.random.default_rng(15)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 3, size=120).astype(np.int64)
    forest = fit_forest(X, y, n_classes=3, n_trees=3, seed=77)
    for i in (0, 2):
        boot_seed, tree_seed = np.random.SeedSequence([77, i]).spawn(2)
        rows = np.random.default_rng(boot_seed).integers(0, 120, size=120)
        solo = fit_tree(X[rows], y[rows], n_classes=3, seed=tree_seed)
        assert np.array_equal(solo.feature, forest.trees[i].feature)
        assert np.array_equal(solo.threshold, forest.trees[i].threshold)


def test_fit_forest_checks_every_row_before_bagging():
    # With 50 rows and one tree, a bootstrap misses a given row in about a
    # third of the seeds; the bad row must be refused for every seed.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50).astype(np.int64)
    nan_X = X.copy()
    nan_X[17, 1] = np.nan
    inf_X = X.copy()
    inf_X[3, 0] = -np.inf
    bad_y = y.copy()
    bad_y[31] = 2
    missed = 0
    for seed in range(40):
        boot_seed, _ = np.random.SeedSequence([seed, 0]).spawn(2)
        rows = np.random.default_rng(boot_seed).integers(0, 50, size=50)
        missed += 17 not in rows
        for bad_X, labels in ((nan_X, y), (inf_X, y), (X, bad_y), (X, -bad_y)):
            with pytest.raises(DataError):
                fit_forest(bad_X, labels, n_classes=2, n_trees=1, seed=seed)
    assert missed > 0  # some seeds do miss the bad row
    with pytest.raises(DataError):
        fit_forest(X, y[:-1], n_classes=2, n_trees=1)
    with pytest.raises(DataError):
        fit_forest(X[0], y, n_classes=2, n_trees=1)
    with pytest.raises(DataError, match=r"got shape \(50, 0\)"):
        fit_forest(X[:, :0], y, n_classes=2, n_trees=1)


def test_forest_majority_vote_tie_breaks_low_id():
    def stump(cls, k):
        counts = np.zeros((1, k), dtype=np.int64)
        counts[0, cls] = 1
        return DecisionTree(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([-1]), right=np.array([-1]), class_counts=counts,
        )

    model = ForestModel(trees=[stump(2, 3), stump(1, 3)], n_features=2, n_classes=3)
    # One vote each for classes 1 and 2: the tie resolves to class 1.
    assert predict(model, np.zeros((4, 2))).tolist() == [1, 1, 1, 1]
    with pytest.raises(DataError):
        predict(model, np.zeros((4, 3)))


def test_forest_improves_over_noisy_labels():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(400, 6))
    y = (X[:, 0] > 0).astype(np.int64)
    model = fit_forest(X[:300], y[:300], n_classes=2, n_trees=25, seed=5)
    acc = float(np.mean(predict(model, X[300:]) == y[300:]))
    assert acc > 0.9


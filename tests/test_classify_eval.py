import json
import math

import numpy as np
import pytest

from flowcodec.classify_eval import ClassificationReport, compare, score
from flowcodec.errors import DataError

NAMES3 = ["bulk", "video", "web"]


def small_report():
    # Confusion (rows true, cols predicted):
    #        bulk video web
    # bulk      3     1   0
    # video     0     4   1
    # web       1     0   2
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2], dtype=np.int64)
    p = np.array([0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 0], dtype=np.int64)
    return score(y, p, NAMES3)


def test_confusion_and_accuracy_hand_values():
    r = small_report()
    assert np.array_equal(r.confusion, [[3, 1, 0], [0, 4, 1], [1, 0, 2]])
    assert r.total == 12
    assert r.accuracy == pytest.approx(9 / 12)
    assert r.total_misclassified == 3


def test_per_class_hand_values():
    r = small_report()
    bulk, video, web = r.per_class
    # bulk: tp 3, predicted 4, support 4
    assert bulk.support == 4 and bulk.true_positives == 3
    assert bulk.precision == pytest.approx(3 / 4)
    assert bulk.recall == pytest.approx(3 / 4)
    assert bulk.f1 == pytest.approx(3 / 4)
    # video: tp 4, predicted 5, support 5
    assert video.precision == pytest.approx(4 / 5)
    assert video.recall == pytest.approx(4 / 5)
    # web: tp 2, predicted 3, support 3
    assert web.precision == pytest.approx(2 / 3)
    assert web.recall == pytest.approx(2 / 3)
    assert web.f1 == pytest.approx(2 / 3)
    assert bulk.misclassified == 1 and video.misclassified == 1 and web.misclassified == 1


def test_macro_and_weighted_averages():
    r = small_report()
    precisions = [c.precision for c in r.per_class]
    recalls = [c.recall for c in r.per_class]
    f1s = [c.f1 for c in r.per_class]
    assert r.macro_precision == pytest.approx(float(np.mean(precisions)))
    assert r.macro_recall == pytest.approx(float(np.mean(recalls)))
    assert r.macro_f1 == pytest.approx(float(np.mean(f1s)))
    supports = np.array([c.support for c in r.per_class], dtype=np.float64)
    assert r.weighted_f1 == pytest.approx(float(np.sum(supports * f1s) / supports.sum()))
    # Weighted recall is accuracy by identity: sum(n_c * tp_c/n_c) / N.
    assert r.weighted_recall == pytest.approx(r.accuracy)


def test_weighted_recall_equals_accuracy_randomized():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(20, 200))
        y = rng.integers(0, k, size=n).astype(np.int64)
        y[:k] = np.arange(k)  # every class has support
        p = rng.integers(0, k, size=n).astype(np.int64)
        r = score(y, p, [f"c{i}" for i in range(k)])
        assert r.weighted_recall == pytest.approx(r.accuracy, abs=1e-12)
        assert r.accuracy == pytest.approx(np.trace(r.confusion) / n)


def test_zero_support_class_excluded_from_macro():
    y = np.array([0, 0, 2, 2], dtype=np.int64)
    p = np.array([0, 0, 2, 0], dtype=np.int64)
    r = score(y, p, NAMES3)
    assert list(r.zero_support_classes) == ["video"]
    video = r.per_class[1]
    assert video.support == 0
    assert video.recall_undefined
    assert video.recall == 0.0
    # Macro averages only the two populated classes.
    assert r.macro_recall == pytest.approx((1.0 + 0.5) / 2)


def test_zero_prediction_class_flagged():
    y = np.array([0, 1, 0, 1], dtype=np.int64)
    p = np.array([0, 0, 0, 0], dtype=np.int64)
    r = score(y, p, ["a", "b"])
    assert r.per_class[1].precision_undefined
    assert r.per_class[1].precision == 0.0
    assert not r.per_class[0].precision_undefined


def test_confusion_normalized_rows():
    r = small_report()
    norm = r.confusion_normalized()
    assert np.allclose(norm.sum(axis=1), 1.0)
    assert norm[0, 0] == pytest.approx(3 / 4)
    empty = score(np.array([0, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64), ["a", "b"])
    norm = empty.confusion_normalized()
    assert np.all(np.isnan(norm[1]))
    assert norm[0].tolist() == [0.5, 0.5]


def test_normalized_confusion_csv_leaves_a_zero_support_row_empty(tmp_path):
    r = score(np.array([0, 0, 0, 2, 2]), np.array([0, 1, 1, 2, 0]), NAMES3)
    path = tmp_path / "confusion_normalized.csv"
    r.save_confusion_csv(path, normalized=True)
    assert path.read_bytes() == (
        b"true\\predicted,bulk,video,web\r\n"
        b"bulk,0.3333333333333333,0.6666666666666666,0.0\r\n"
        b"video,,,\r\n"
        b"web,0.5,0.0,0.5\r\n"
    )


def test_misclassification_ranking():
    y = np.array([0] * 10 + [1] * 10 + [2] * 10, dtype=np.int64)
    p = y.copy()
    p[0:3] = 1   # bulk: 3 wrong
    p[10:13] = 2  # video: 3 wrong
    p[20:21] = 0  # web: 1 wrong
    r = score(y, p, NAMES3)
    ranking = r.misclassification_ranking()
    # Counts tie between bulk and video: names break the tie alphabetically.
    assert ranking == [("bulk", 3), ("video", 3), ("web", 1)]
    perfect = score(y, y, NAMES3)
    assert perfect.misclassification_ranking() == []


def test_report_json_and_csv(tmp_path):
    r = small_report()
    doc = r.to_json_dict()
    assert doc["accuracy"] == pytest.approx(0.75)
    assert [c["name"] for c in doc["per_class"]] == NAMES3
    assert doc["confusion"] == [[3, 1, 0], [0, 4, 1], [1, 0, 2]]
    jp = tmp_path / "report.json"
    r.save_json(jp)
    assert json.loads(jp.read_text())["accuracy"] == doc["accuracy"]
    cp = tmp_path / "confusion.csv"
    r.save_confusion_csv(cp)
    lines = cp.read_text().splitlines()
    assert lines[0] == "true\\predicted,bulk,video,web"
    assert lines[1] == "bulk,3,1,0"
    text = r.text_table()
    assert "bulk" in text and "accuracy" in text


def test_score_validation():
    y = np.array([0, 1], dtype=np.int64)
    with pytest.raises(DataError):
        score(y, np.array([0], dtype=np.int64), ["a", "b"])
    with pytest.raises(DataError):
        score(y, np.array([0, 2], dtype=np.int64), ["a", "b"])
    with pytest.raises(DataError):
        score(np.array([], dtype=np.int64), np.array([], dtype=np.int64), ["a", "b"])


# ---------------------------------------------------------------- comparison


def two_arm_reports(orig_wrong, comp_wrong, n=6000):
    y = np.arange(n, dtype=np.int64) % 3
    orig = y.copy()
    orig[:orig_wrong] = (y[:orig_wrong] + 1) % 3
    comp = y.copy()
    comp[:comp_wrong] = (y[:comp_wrong] + 1) % 3
    names = NAMES3
    return score(y, orig, names), score(y, comp, names)


def test_compare_deltas_and_ratio():
    ro, rc = two_arm_reports(orig_wrong=1446, comp_wrong=4955)
    cmp_report = compare(ro, rc)
    assert cmp_report.accuracy_delta == pytest.approx(rc.accuracy - ro.accuracy)
    assert cmp_report.misclassification_ratio == pytest.approx(4955 / 1446)
    assert round(cmp_report.misclassification_ratio, 2) == 3.43
    assert cmp_report.macro_f1_delta == pytest.approx(rc.macro_f1 - ro.macro_f1)


def test_compare_ratio_edge_cases():
    ro, rc = two_arm_reports(0, 0)
    assert compare(ro, rc).misclassification_ratio == 1.0
    ro, rc = two_arm_reports(0, 30)
    assert compare(ro, rc).misclassification_ratio is None


def test_compare_rejects_mismatched_reports():
    ro, _ = two_arm_reports(10, 20)
    other = score(
        np.array([0, 1], dtype=np.int64), np.array([0, 1], dtype=np.int64), ["x", "y"]
    )
    with pytest.raises(DataError):
        compare(ro, other)


def test_compare_json_and_text(tmp_path):
    ro, rc = two_arm_reports(100, 300)
    cmp_report = compare(ro, rc)
    doc = cmp_report.to_json_dict()
    assert doc["original"]["accuracy"] == pytest.approx(ro.accuracy)
    assert doc["compressed"]["accuracy"] == pytest.approx(rc.accuracy)
    assert doc["deltas"]["accuracy"] == pytest.approx(cmp_report.accuracy_delta)
    assert math.isclose(doc["misclassification_ratio"], 3.0)
    path = tmp_path / "comparison.json"
    cmp_report.save_json(path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(doc))
    text = cmp_report.text_table()
    assert "accuracy" in text and "original" in text and "compressed" in text

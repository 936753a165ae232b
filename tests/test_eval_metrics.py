import csv
import io
import json
import math

import numpy as np
import pytest

from flowcodec.errors import DataError
from flowcodec.eval_metrics import (
    build_report,
    compression_ratio,
    correlation_difference,
    global_errors,
    kl_divergence,
    median_percent_error,
    save_row_percent_errors,
)


# ---------------------------------------------------------------- global errors


def test_global_errors_identical_and_hand_values():
    m = np.random.default_rng(0).normal(size=(10, 3))
    g = global_errors(m, m)
    assert g.mse == 0.0 and g.rmse == 0.0 and g.mape_percent == 0.0

    g = global_errors(np.array([[2.0]]), np.array([[1.0]]))
    assert g.mse == 1.0 and g.rmse == 1.0
    assert g.mape_percent == pytest.approx(50.0)

    g = global_errors(np.array([0.0, 4.0]), np.array([1.0, 4.0]))
    assert g.mse == pytest.approx(0.5)
    assert g.mape_percent == 0.0
    assert g.mape_excluded_zeros == 1


def test_rmse_is_sqrt_of_mse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.normal(size=(50, 4)) * rng.uniform(0.1, 100)
        yhat = y + rng.normal(size=y.shape)
        g = global_errors(y, yhat)
        assert g.rmse == pytest.approx(math.sqrt(g.mse), rel=1e-12)


def test_global_errors_shape_mismatch():
    with pytest.raises(DataError):
        global_errors(np.ones((2, 2)), np.ones((2, 3)))


# ---------------------------------------------------------------- median % error


def test_median_percent_error_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    v, excl = median_percent_error(y, y * 1.01)
    assert v == pytest.approx(1.0)
    assert excl == 0

    # Half exact, half at 2%: the median of {0, 0, 2, 2} per pairing below.
    y = np.array([10.0, 10.0, 10.0, 10.0])
    yhat = np.array([10.0, 10.0, 10.2, 10.2])
    v, _ = median_percent_error(y, yhat)
    assert v == pytest.approx(1.0)

    v, excl = median_percent_error(np.zeros(4), np.ones(4))
    assert v is None and excl == 4


def test_median_percent_error_ignores_zero_rows():
    y = np.array([0.0, 100.0])
    yhat = np.array([55.0, 101.0])
    v, excl = median_percent_error(y, yhat)
    assert v == pytest.approx(1.0)
    assert excl == 1


# ---------------------------------------------------------------- KL


def test_kl_identical_and_degenerate_are_zero():
    col = np.random.default_rng(2).normal(size=500)
    assert kl_divergence(col, col.copy()) == 0.0
    assert kl_divergence(np.full(10, 3.0), np.full(10, 3.0)) == 0.0


def test_kl_two_bin_hand_oracle():
    orig = np.array([0.0, 0.0, 1.0, 1.0])
    recon = np.array([0.0, 1.0, 1.0, 1.0])
    got = kl_divergence(orig, recon, bins=2)
    # p = (1/2, 1/2), q = (1/4, 3/4) before negligible smoothing.
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert got == pytest.approx(expected, abs=1e-6)


def test_kl_shifted_normal_exceeds_one_and_matches_direct_formula():
    rng = np.random.default_rng(3)
    draws = rng.standard_normal(1000)
    shifted = draws + 5.0
    got = kl_divergence(draws, shifted, bins=50)
    assert got > 1.0

    # Independent recomputation straight from the definition.
    lo = min(draws.min(), shifted.min())
    hi = max(draws.max(), shifted.max())
    p, _ = np.histogram(draws, bins=50, range=(lo, hi))
    q, _ = np.histogram(shifted, bins=50, range=(lo, hi))
    p = p / p.sum() + 1e-10
    q = q / q.sum() + 1e-10
    p, q = p / p.sum(), q / q.sum()
    assert got == pytest.approx(float(np.sum(p * np.log(p / q))), rel=1e-12)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=200)
        b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=200)
        assert kl_divergence(a, b) >= 0.0


def test_kl_log_base_and_validation():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=300), rng.normal(1.0, 2.0, size=300)
    nat = kl_divergence(a, b)
    bits = kl_divergence(a, b, log_base=2.0)
    assert bits == pytest.approx(nat / math.log(2.0), rel=1e-12)
    with pytest.raises(DataError):
        kl_divergence(np.array([1.0]), b)
    with pytest.raises(DataError):
        kl_divergence(a, b, bins=0)


# ---------------------------------------------------------------- correlation


def test_correlation_difference_identical_is_zero():
    m = np.random.default_rng(6).normal(size=(100, 5))
    d = correlation_difference(m, m)
    assert np.allclose(d, 0.0, atol=1e-15)


def test_correlation_difference_affine_invariance():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(200, 4))
    scaled = m * np.array([2.0, 0.5, 10.0, 1.0]) + np.array([7.0, -3.0, 0.0, 100.0])
    d = correlation_difference(m, scaled)
    assert np.abs(d).max() < 1e-12


def test_correlation_difference_diagonal_and_symmetry():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(150, 6))
    b = a + rng.normal(scale=0.5, size=a.shape)
    d = correlation_difference(a, b)
    assert np.abs(np.diag(d)).max() < 1e-12
    assert np.abs(d - d.T).max() < 1e-12


def test_correlation_matches_numpy_reference():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(300, 5))
    b = rng.normal(size=(300, 5))
    d = correlation_difference(a, b)
    ref = np.corrcoef(a, rowvar=False) - np.corrcoef(b, rowvar=False)
    assert np.allclose(d, ref, atol=1e-10)


def test_correlation_difference_marks_degenerate_columns():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(50, 3))
    b = a.copy()
    b[:, 1] = 42.0
    d = correlation_difference(a, b)
    assert np.isnan(d[1, :]).all() and np.isnan(d[:, 1]).all()
    assert not np.isnan(d[0, 0]) and not np.isnan(d[2, 0])
    with pytest.raises(DataError):
        correlation_difference(a[:2], b[:2])


# ---------------------------------------------------------------- ratio


def test_compression_ratio_values():
    assert compression_ratio(21, 16, 8, 4) == 2.625
    assert compression_ratio(21, 16, 8, 8) == 1.3125
    assert compression_ratio(21, 16, 4, 4) == 1.3125
    with pytest.raises(DataError):
        compression_ratio(0, 16, 8, 4)


# ---------------------------------------------------------------- report


def test_build_report_structure_and_json(tmp_path):
    rng = np.random.default_rng(11)
    y = rng.lognormal(2.0, 1.0, size=(400, 4))
    yhat = y * rng.uniform(0.98, 1.02, size=y.shape)
    names = ("a", "b", "c", "d")
    report = build_report(y, yhat, names, latent_dim=2, latent_width_bytes=4, warnings=["note"])

    assert report.rmse == pytest.approx(math.sqrt(report.mse), rel=1e-12)
    assert len(report.kl_divergence) == 4
    assert all(k >= 0 for k in report.kl_divergence)
    assert report.compression_ratio == pytest.approx((4 * 8) / (2 * 4))
    assert report.bytes_original == 400 * 4 * 8
    assert report.bytes_compressed == 400 * 2 * 4
    assert report.warnings == ["note"]

    json_path = tmp_path / "report.json"
    report.save_json(json_path)
    doc = json.loads(json_path.read_text())
    assert doc["global"]["rmse"] == report.rmse
    assert [row["feature"] for row in doc["per_feature"]] == list(names)
    assert doc["per_feature"][0]["excluded_zero_rows"] == 0

    report.save_feature_csv(tmp_path / "features.csv")
    report.save_correlation_csv(tmp_path / "corr.csv")
    lines = (tmp_path / "features.csv").read_text().strip().splitlines()
    assert lines[0] == "feature,median_percent_error,excluded_zero_rows,kl_divergence"
    assert len(lines) == 5


def test_build_report_json_replaces_nan_with_null(tmp_path):
    y = np.random.default_rng(12).normal(size=(50, 3))
    yhat = y.copy()
    yhat[:, 2] = 5.0
    report = build_report(y, yhat, ("a", "b", "c"), latent_dim=1, latent_width_bytes=4)
    payload = json.dumps(report.to_json_dict(), allow_nan=False)
    assert "NaN" not in payload


def test_row_percent_errors_csv(tmp_path):
    y = np.array([[1.0, 2.0], [0.0, 0.0]])
    yhat = np.array([[1.1, 2.2], [1.0, 1.0]])
    path = tmp_path / "rows.csv"
    save_row_percent_errors(y, yhat, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,mean_abs_percent_error,excluded_zero_features"
    row0 = lines[1].split(",")
    assert float(row0[1]) == pytest.approx(10.0)
    row1 = lines[2].split(",")
    assert row1[1] == "" and row1[2] == "2"


def _reference_save_row_percent_errors(y: np.ndarray, yhat: np.ndarray) -> bytes:
    """save_row_percent_errors' earlier per-row loop, through csv.writer."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["row", "mean_abs_percent_error", "excluded_zero_features"])
    for i in range(y.shape[0]):
        nonzero = y[i] != 0.0
        excl = int(y.shape[1] - np.count_nonzero(nonzero))
        if np.any(nonzero):
            val = repr(float(100.0 * np.mean(np.abs((y[i][nonzero] - yhat[i][nonzero]) / y[i][nonzero]))))
        else:
            val = ""
        writer.writerow([i, val, excl])
    return out.getvalue().encode("utf-8")


def test_row_percent_errors_match_the_per_row_reference(tmp_path):
    rng = np.random.default_rng(21)
    y = rng.lognormal(2.0, 3.0, (400, 21)) * rng.choice([-1.0, 1.0], (400, 21))
    yhat = y * rng.normal(1.0, 0.3, y.shape) + rng.normal(0.0, 1e-3, y.shape)
    y[rng.random(y.shape) < 0.03] = 0.0  # scattered zeros: many one-row patterns
    y[100:160, 17] = 0.0  # patterns shared by many rows, as unanswered flows or
    y[200:260, 3:9] = 0.0  # single-packet directions would give
    y[[5, 77, 399]] = 0.0  # all-zero rows
    patterns, counts = np.unique(y != 0.0, axis=0, return_counts=True)
    assert len(patterns) > 50 and (counts > 1).sum() >= 3
    cases = ((y, yhat), (y[:1], yhat[:1]), (y[[5]], yhat[[5]]), (y[:0], yhat[:0]), (y[:, :0], yhat[:, :0]))
    for rows, recon in cases:
        path = tmp_path / "rows.csv"
        save_row_percent_errors(rows, recon, path)
        assert path.read_bytes() == _reference_save_row_percent_errors(rows, recon)

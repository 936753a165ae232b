import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from flowcodec import eval_metrics
from flowcodec.errors import DataError
from flowcodec.eval_metrics import (
    DEFAULT_KL_BINS,
    KL_EPSILON,
    ReconstructionReport,
    build_report,
    compression_ratio,
    correlation_difference,
    kl_divergences,
    percent_errors,
    save_row_percent_errors,
)


def _save_rows(y, yhat, path):
    errors = percent_errors(y, yhat)
    save_row_percent_errors(errors.row_percent_errors, errors.row_excluded_zero_features, path)


# ---------------------------------------------------------------- global errors


def test_global_errors_identical_and_hand_values():
    m = np.random.default_rng(0).normal(size=(10, 3))
    g = percent_errors(m, m)
    assert g.mse == 0.0 and g.rmse == 0.0 and g.mape_percent == 0.0

    g = percent_errors(np.array([[2.0]]), np.array([[1.0]]))
    assert g.mse == 1.0 and g.rmse == 1.0
    assert g.mape_percent == pytest.approx(50.0)

    g = percent_errors(np.array([0.0, 4.0]), np.array([1.0, 4.0]))
    assert g.mse == pytest.approx(0.5)
    assert g.mape_percent == 0.0
    assert g.mape_excluded_zeros == 1


def test_rmse_is_sqrt_of_mse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.normal(size=(50, 4)) * rng.uniform(0.1, 100)
        yhat = y + rng.normal(size=y.shape)
        g = percent_errors(y, yhat)
        assert g.rmse == pytest.approx(math.sqrt(g.mse), rel=1e-12)


def test_global_errors_shape_mismatch():
    with pytest.raises(DataError):
        percent_errors(np.ones((2, 2)), np.ones((2, 3)))


# ---------------------------------------------------------------- median % error


def _median_percent_error(y, yhat):
    """One feature's median percent error and excluded count."""
    errors = percent_errors(y, yhat)
    return errors.median_percent_error[0], errors.median_pe_excluded_zeros[0]


def test_median_percent_error_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    v, excl = _median_percent_error(y, y * 1.01)
    assert v == pytest.approx(1.0)
    assert excl == 0

    # Half exact, half at 2%: the median of {0, 0, 2, 2} per pairing below.
    y = np.array([10.0, 10.0, 10.0, 10.0])
    yhat = np.array([10.0, 10.0, 10.2, 10.2])
    v, _ = _median_percent_error(y, yhat)
    assert v == pytest.approx(1.0)

    v, excl = _median_percent_error(np.zeros(4), np.ones(4))
    assert v is None and excl == 4


def test_median_percent_error_ignores_zero_rows():
    y = np.array([0.0, 100.0])
    yhat = np.array([55.0, 101.0])
    v, excl = _median_percent_error(y, yhat)
    assert v == pytest.approx(1.0)
    assert excl == 1


# ---------------------------------------------------------------- KL


def _kl(original, reconstructed, bins=DEFAULT_KL_BINS):
    """One feature's KL divergence."""
    return float(kl_divergences(original, reconstructed, bins)[0])


def test_kl_identical_and_degenerate_are_zero():
    col = np.random.default_rng(2).normal(size=500)
    assert _kl(col, col.copy()) == 0.0
    assert _kl(np.full(10, 3.0), np.full(10, 3.0)) == 0.0


def test_kl_two_bin_hand_oracle():
    orig = np.array([0.0, 0.0, 1.0, 1.0])
    recon = np.array([0.0, 1.0, 1.0, 1.0])
    got = _kl(orig, recon, bins=2)
    # p = (1/2, 1/2), q = (1/4, 3/4) before negligible smoothing.
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert got == pytest.approx(expected, abs=1e-6)


def test_kl_shifted_normal_exceeds_one_and_matches_direct_formula():
    rng = np.random.default_rng(3)
    draws = rng.standard_normal(1000)
    shifted = draws + 5.0
    got = _kl(draws, shifted, bins=50)
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
        assert _kl(a, b) >= 0.0


def test_kl_validation():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=300), rng.normal(1.0, 2.0, size=300)
    with pytest.raises(DataError, match="at least 2 values"):
        kl_divergences(np.array([1.0]), np.array([2.0]))
    with pytest.raises(DataError):
        kl_divergences(a, b, bins=0)
    with pytest.raises(DataError, match="shape mismatch"):
        kl_divergences(a[:1], b)


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
    report = build_report(y, yhat, names)

    assert report.rmse == pytest.approx(math.sqrt(report.mse), rel=1e-12)
    assert len(report.kl_divergence) == 4
    assert all(k >= 0 for k in report.kl_divergence)

    json_path = tmp_path / "report.json"
    report.save_json(json_path)
    doc = json.loads(json_path.read_text())
    assert set(doc) == {"n_rows", "feature_names", "global", "per_feature", "correlation_difference"}
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
    report = build_report(y, yhat, ("a", "b", "c"))
    payload = json.dumps(report.to_json_dict(), allow_nan=False)
    assert "NaN" not in payload


def test_row_percent_errors_csv(tmp_path):
    y = np.array([[1.0, 2.0], [0.0, 0.0]])
    yhat = np.array([[1.1, 2.2], [1.0, 1.0]])
    path = tmp_path / "rows.csv"
    _save_rows(y, yhat, path)
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
    path = tmp_path / "rows.csv"
    for rows, recon in ((y, yhat), (y[:1], yhat[:1]), (y[[5]], yhat[[5]])):
        _save_rows(rows, recon, path)
        assert path.read_bytes() == _reference_save_row_percent_errors(rows, recon)
    # A matrix with no rows or no features has nothing to score; the writer
    # still writes the header of an empty table.
    for rows, recon in ((y[:0], yhat[:0]), (y[:, :0], yhat[:, :0])):
        with pytest.raises(DataError, match="at least one row and one feature"):
            percent_errors(rows, recon)
    save_row_percent_errors(np.empty(0), np.empty(0, dtype=int), path)
    assert path.read_bytes() == _reference_save_row_percent_errors(y[:0], yhat[:0])


def test_row_percent_errors_match_csv_writer_on_integral_and_exponent_means(tmp_path, monkeypatch):
    # Means that are integral (csv.writer writes 100.0, not 100), that repr
    # writes with an exponent, and rows with no mean, across format blocks.
    monkeypatch.setattr(eval_metrics, "_FORMAT_ROWS", 97)
    rng = np.random.default_rng(22)
    y = rng.lognormal(0.0, 2.0, (1000, 4))
    yhat = y * rng.normal(1.0, 0.2, y.shape)
    yhat[0::7] = 0.0  # every error 100%: a mean of exactly 100.0
    yhat[1::7] = 3.0 * y[1::7]  # 200.0
    yhat[2::7] = y[2::7]  # 0.0
    yhat[3::7] = y[3::7] * (1.0 + 2.0**-40)  # about 9.1e-11
    yhat[4::7] = y[4::7] * 1e17  # about 1e+19
    y[5::7] = 0.0  # no mean: an empty cell
    y[6::7, 1:] = 0.0  # one kept feature
    path = tmp_path / "rows.csv"
    _save_rows(y, yhat, path)
    got = path.read_bytes()
    assert got == _reference_save_row_percent_errors(y, yhat)
    cells = [line.split(b",")[1] for line in got.split(b"\r\n")[1:-1]]
    for cell in (b"100.0", b"200.0", b"0.0", b""):
        assert cell in cells
    assert any(b"e-" in c for c in cells) and any(b"e+" in c for c in cells)


def test_row_percent_errors_match_the_reference_for_every_kept_count(tmp_path, monkeypatch):
    # Rows are grouped by how many features they keep; row i keeps i % 22,
    # each at its own scattered positions, so every group from 0 to 21 shows,
    # and a group spans more than one block of rows.
    monkeypatch.setattr(eval_metrics, "_BLOCK_ROWS", 4)
    rng = np.random.default_rng(5)
    y = rng.lognormal(1.0, 2.0, (220, 21))
    yhat = y * rng.normal(1.0, 0.2, y.shape)
    for i in range(len(y)):
        y[i, rng.permutation(21)[: 21 - i % 22]] = 0.0
    path = tmp_path / "rows.csv"
    _save_rows(y, yhat, path)
    assert path.read_bytes() == _reference_save_row_percent_errors(y, yhat)


# ---------------------------------------------------------------- oracle


def _oracle_pair(original, reconstructed):
    y = np.asarray(original, dtype=np.float64)
    yhat = np.asarray(reconstructed, dtype=np.float64)
    assert y.shape == yhat.shape
    return y, yhat


def _oracle_global_errors(y, yhat):
    diff = y - yhat
    mse = float(np.mean(diff * diff))
    nonzero = y != 0.0
    excluded = int(y.size - np.count_nonzero(nonzero))
    mape = float(100.0 * np.mean(np.abs(diff[nonzero] / y[nonzero]))) if np.any(nonzero) else 0.0
    return mse, float(np.sqrt(mse)), mape, excluded


def _oracle_median_percent_error(y, yhat):
    nonzero = y != 0.0
    excluded = int(y.size - np.count_nonzero(nonzero))
    if not np.any(nonzero):
        return None, excluded
    pct = 100.0 * np.abs((y[nonzero] - yhat[nonzero]) / y[nonzero])
    return float(np.median(pct)), excluded


def _oracle_kl_divergence(p_vals, q_vals, bins):
    lo = min(p_vals.min(), q_vals.min())
    hi = max(p_vals.max(), q_vals.max())
    if lo == hi:
        return 0.0
    p_counts, _ = np.histogram(p_vals, bins=bins, range=(lo, hi))
    q_counts, _ = np.histogram(q_vals, bins=bins, range=(lo, hi))
    p = p_counts / p_counts.sum() + KL_EPSILON
    q = q_counts / q_counts.sum() + KL_EPSILON
    p = p / p.sum()
    q = q / q.sum()
    return max(float(np.sum(p * np.log(p / q))), 0.0)


def _oracle_pearson(m):
    centered = m - m.mean(axis=0)
    std = centered.std(axis=0)
    degenerate = std == 0.0
    safe_std = np.where(degenerate, 1.0, std)
    z = centered / safe_std
    corr = (z.T @ z) / m.shape[0]
    corr[degenerate, :] = np.nan
    corr[:, degenerate] = np.nan
    np.fill_diagonal(corr, np.where(degenerate, np.nan, 1.0))
    return corr


def _oracle_build_report(original, reconstructed, feature_names, kl_bins=50):
    """build_report as it was before the whole-matrix kernels: one np.median
    and two np.histogram calls per feature. The per-row means are left out;
    `_reference_save_row_percent_errors` is their oracle."""
    y, yhat = _oracle_pair(original, reconstructed)
    mse, rmse, mape, excluded = _oracle_global_errors(y, yhat)
    med, med_excl, kls = [], [], []
    for j in range(y.shape[1]):
        v, excl = _oracle_median_percent_error(y[:, j], yhat[:, j])
        med.append(v)
        med_excl.append(excl)
        kls.append(_oracle_kl_divergence(y[:, j], yhat[:, j], kl_bins))
    return ReconstructionReport(
        feature_names=tuple(feature_names),
        mse=mse,
        rmse=rmse,
        mape_percent=mape,
        mape_excluded_zeros=excluded,
        median_percent_error=med,
        median_pe_excluded_zeros=med_excl,
        kl_divergence=kls,
        correlation_difference=_oracle_pearson(y) - _oracle_pearson(yhat),
        n_rows=y.shape[0],
        row_percent_errors=np.empty(0),
        row_excluded_zero_features=np.empty(0, dtype=int),
    )


def _four_reports(report, out, rows: bytes | None = None) -> list[bytes]:
    """The bytes of evaluate's four report files for ``report``; the per-row
    file is ``rows`` when given."""
    out.mkdir()
    report.save_json(out / "reconstruction_report.json")
    report.save_feature_csv(out / "feature_reconstruction.csv")
    report.save_correlation_csv(out / "correlation_difference.csv")
    if rows is None:
        save_row_percent_errors(report.row_percent_errors, report.row_excluded_zero_features, out / "rows.csv")
        rows = (out / "rows.csv").read_bytes()
    return [
        (out / name).read_bytes()
        for name in ("reconstruction_report.json", "feature_reconstruction.csv", "correlation_difference.csv")
    ] + [rows]


def _equivalence_cases():
    rng = np.random.default_rng(2024)
    cases = {}
    y = rng.lognormal(2.0, 3.0, (600, 21)) * rng.choice([-1.0, 1.0], (600, 21))
    yhat = y * rng.normal(1.0, 0.3, y.shape) + rng.normal(0.0, 1e-3, y.shape)
    cases["plain"] = (y, yhat)
    z = y.copy()
    z[rng.random(z.shape) < 0.08] = 0.0  # scattered zero cells
    z[[3, 250, 599]] = 0.0  # whole zero rows
    z[:, 6] = 0.0  # a whole zero feature
    cases["zeros"] = (z, yhat)
    ties = np.round(y / 40.0) * 4.0  # heavy ties, negative values, zeros
    ties[:, 2] = 5.0  # a constant feature, on both sides
    recon = np.round(yhat / 40.0) * 4.0
    recon[:, 2] = 5.0
    recon[:, 9] = -2.0  # constant on the reconstructed side only
    cases["ties"] = (ties, recon)
    cases["3 rows"] = (y[:3], yhat[:3])
    cases["3 rows with zeros"] = (z[:3], yhat[:3])
    # Every histogram edge of a feature's range, and one ulp either side of
    # each, against values spread over the same range: where the estimate
    # (x - lo)/(hi - lo)*bins lands a bin off, only one side moves. Each of
    # these ranges needs both corrections.
    ranges = [(-3.0, 11.0), (-0.46042657247225943, 0.2739233746429086),
              (-0.9669447289429418, 0.6265404784005448), (213271551.53435978, 825511154.5554434)]
    on_edges, spread = [], []
    for lo, hi in ranges:
        edges = np.linspace(lo, hi, DEFAULT_KL_BINS + 1)
        col = np.concatenate([edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)])
        on_edges.append(rng.permutation(col))
        spread.append(rng.uniform(lo, hi, col.size))
    cases["edges"] = (np.stack(on_edges, axis=1), np.stack(spread, axis=1))
    return cases


@pytest.mark.parametrize("case", list(_equivalence_cases()))
def test_reports_match_the_per_feature_oracle_byte_for_byte(tmp_path, case):
    y, yhat = _equivalence_cases()[case]
    names = tuple(f"f{j}" for j in range(y.shape[1]))
    got = _four_reports(build_report(y, yhat, names), tmp_path / "new")
    want = _four_reports(
        _oracle_build_report(y, yhat, names),
        tmp_path / "oracle",
        _reference_save_row_percent_errors(y, yhat),
    )
    for name, a, b in zip(("json", "features", "correlation", "rows"), got, want):
        assert a == b, name


@pytest.mark.parametrize(
    "value, metric",
    [(1e308, "mse"), (-1e308, "mse"), (5e-324, "mape_percent")],
)
def test_a_metric_that_overflows_is_refused_naming_it_and_the_feature(value, metric):
    rng = np.random.default_rng(8)
    y = rng.lognormal(3.0, 1.0, (60, 4))
    yhat = y * rng.normal(1.0, 0.05, y.shape)
    y[5, 2] = value
    with pytest.raises(DataError, match=f"^{metric} is not finite \\(feature 'c'\\)"):
        build_report(y, yhat, ("a", "b", "c", "d"))


def test_each_overflowing_metric_names_its_feature():
    rng = np.random.default_rng(9)
    y = rng.lognormal(3.0, 1.0, (60, 3))
    names = ("a", "b", "c")
    # Over an original of 1e-300, a relative error of 1e307: a row mean of
    # three such cells overflows, while MAPE, over 180 cells, does not.
    yhat = y.copy()
    y[7, 1], yhat[7, 1] = 1e-300, 1e7
    with pytest.raises(DataError, match=r"^mean_abs_percent_error is not finite \(row 7, feature 'b'\)"):
        build_report(y, yhat, names)
    # Relative errors of 5e306 in 31 of a feature's 60 rows: MAPE and every
    # row mean stay finite, the median percent error does not.
    y = rng.lognormal(3.0, 1.0, (60, 3))
    yhat = y.copy()
    y[:31, 0], yhat[:31, 0] = 1e-300, 5e6
    with pytest.raises(DataError, match=r"^median_percent_error is not finite \(feature 'a'\)"):
        build_report(y, yhat, names)
    # A range of ±1e308 cannot be binned; a variance of 1e200**2 overflows.
    y = rng.lognormal(3.0, 1.0, (60, 3))
    wide = y.copy()
    wide[0, 2], wide[1, 2] = 1e308, -1e308
    with pytest.raises(DataError, match=r"^kl_divergence is not finite \(column 2\)"):
        kl_divergences(wide, wide)
    big = y.copy()
    big[0, 1] = 1e200
    with pytest.raises(DataError, match=r"^correlation_difference is not finite \(feature 'b'\)"):
        build_report(big, big, names)


def test_metric_half_holds_about_two_input_sized_arrays(tmp_path):
    rng = np.random.default_rng(6)
    y = rng.lognormal(3.0, 2.0, (25_000, 21))
    yhat = y * rng.normal(1.0, 0.05, y.shape)
    y[rng.random(y.shape) < 0.02] = 0.0
    names = tuple(f"f{j}" for j in range(21))
    tracemalloc.start()
    try:
        report = build_report(y, yhat, names)
        save_row_percent_errors(report.row_percent_errors, report.row_excluded_zero_features, tmp_path / "rows.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # y - yhat and the relative errors, then the relative errors and their
    # feature-major copy; a bool mask and slack.
    assert peak < 2.5 * y.nbytes

"""Compression evaluation: global errors, per-feature fidelity, distribution
similarity, correlation preservation and the storage compression ratio.

All error metrics are meant to run on ORIGINAL-unit matrices, i.e. after
inverse preprocessing, so magnitudes are interpretable.

Each metric covers every feature in a few whole-matrix numpy calls, and
each sum runs in the order and over the layout that a per-feature or
per-row computation would use, so the values are those of the one-column
formulas, bit for bit. A metric that overflows float64 (an original or
reconstructed value too large, or an original too close to zero) is refused
with a `DataError` that names the metric and the feature; no
RuntimeWarning escapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._float_text import format_rows
from ._fsutil import atomic_write, undefined_as_none, write_json, write_table
from .errors import DataError

DEFAULT_KL_BINS = 50
DEFAULT_ORIGINAL_WIDTH_BYTES = 8  # bytes per original feature value that compress counts
KL_EPSILON = 1e-10
_BLOCK_ROWS = 512  # rows per block where a kernel needs several temporaries of that size
_MEDIAN_COLUMNS = 7  # columns partitioned per call: a third of the copy, at the same speed


def _pair(original, reconstructed) -> tuple[np.ndarray, np.ndarray]:
    """Both matrices as float64 arrays, which must have the same shape."""
    y = np.asarray(original, dtype=np.float64)
    yhat = np.asarray(reconstructed, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DataError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    return y, yhat


def _columns(original, reconstructed) -> tuple[np.ndarray, np.ndarray]:
    """`_pair`, with a vector taken as the one column of a matrix."""
    y, yhat = _pair(original, reconstructed)
    if y.ndim == 1:
        return y[:, None], yhat[:, None]
    return y, yhat


class _NotFinite(DataError):
    """A metric that is not finite, at one column; `build_report` names the
    column's feature."""

    def __init__(self, metric: str, column: int, row: int | None = None) -> None:
        self.metric, self.column, self.row = metric, column, row
        super().__init__(self.describe(f"column {column}"))

    def describe(self, where: str) -> str:
        at = f"row {self.row}, " if self.row is not None else ""
        return (
            f"{self.metric} is not finite ({at}{where}): an original or reconstructed value is too "
            "large, or an original too close to zero, to score in float64"
        )


def _refuse(metric: str, bad: np.ndarray) -> None:
    """Refuse ``metric`` at the first column flagged in ``bad``, if any."""
    if bad.any():
        raise _NotFinite(metric, int(np.argmax(bad)))


def _largest_column(cells: np.ndarray) -> int:
    """The column that holds the largest cell (NaN counts as largest)."""
    return int(np.unravel_index(np.argmax(np.where(np.isnan(cells), np.inf, cells)), cells.shape)[-1])


@dataclass
class PercentErrors:
    """The metrics built on y - yhat and on the relative error |(y - yhat)/y|."""

    mse: float
    rmse: float
    mape_percent: float
    mape_excluded_zeros: int
    median_percent_error: list[float | None]
    median_pe_excluded_zeros: list[int]
    row_percent_errors: np.ndarray  # NaN for a row with no nonzero original
    row_excluded_zero_features: np.ndarray


def percent_errors(original, reconstructed) -> PercentErrors:
    """MSE/RMSE pooled over every entry; MAPE over entries with y != 0; the
    median of 100*|y - yhat|/|y| per feature over its rows with y != 0 (None
    when it has none); and the mean of that per row over its features with
    y != 0 (NaN when it has none). A vector is one feature.

    Zero-denominator entries are excluded and counted, never silently
    dropped. One relative-error matrix, with each zero-denominator cell set
    to +inf, feeds MAPE, the row means and the medians. At most two arrays
    of the inputs' size are alive at once, besides the inputs.
    """
    y, yhat = _columns(original, reconstructed)
    n, d = y.shape
    if n == 0 or d == 0:
        raise DataError(f"need at least one row and one feature to score, got shape {y.shape}")
    with np.errstate(all="ignore"):  # a result that is not finite is refused below
        diff = np.subtract(y, yhat)
        r = np.divide(diff, y)
        np.abs(r, out=r)
        np.multiply(diff, diff, out=diff)
        mse = float(np.mean(diff))
        if not np.isfinite(mse):
            raise _NotFinite("mse", _largest_column(diff))
        del diff

        zero = y == 0.0
        n_zero = int(np.count_nonzero(zero))
        if n_zero:
            np.copyto(r, np.inf, where=zero)
            row_excluded = np.count_nonzero(zero, axis=1)
            excluded = np.count_nonzero(zero, axis=0)
        else:
            row_excluded = np.zeros(n, dtype=np.intp)
            excluded = np.zeros(d, dtype=np.intp)
        # The sum runs over the nonzero cells in row-major order, as a sum
        # over r[~zero] alone does.
        kept_cells = r[~zero] if n_zero else r
        mape = 100.0 * float(np.mean(kept_cells)) if kept_cells.size else 0.0
        del kept_cells
        if not np.isfinite(mape):
            raise _NotFinite("mape_percent", _largest_column(np.where(zero, 0.0, r)))

        row_means = _row_means(r, zero, row_excluded)
        bad = np.flatnonzero(~np.isfinite(row_means) & (row_excluded < d))
        if bad.size:
            i = int(bad[0])
            raise _NotFinite("mean_abs_percent_error", _largest_column(np.where(zero[i], 0.0, r[i])), row=i)
        medians = _medians(r, n - excluded)
    _refuse("median_percent_error", ~np.isfinite(medians) & (excluded < n))
    return PercentErrors(
        mse=mse,
        rmse=float(np.sqrt(mse)),
        mape_percent=mape,
        mape_excluded_zeros=n_zero,
        median_percent_error=[None if e == n else m for m, e in zip(medians.tolist(), excluded.tolist())],
        median_pe_excluded_zeros=excluded.tolist(),
        row_percent_errors=row_means,
        row_excluded_zero_features=row_excluded,
    )


def _row_means(r: np.ndarray, zero: np.ndarray, row_excluded: np.ndarray) -> np.ndarray:
    """100 times each row's mean of r over its nonzero cells; NaN for a row
    with none. A row's k cells are summed as one contiguous run of k, in
    column order, as a mean over that row alone sums them."""
    d = r.shape[1]
    means = 100.0 * np.mean(r, axis=1)
    # Rows with a zero cell hold +inf above. They are redone in groups of
    # equal kept count, a block of rows at a time: masking a group's rows
    # keeps each row's k cells contiguous and in order.
    for excluded in np.unique(row_excluded[row_excluded > 0]).tolist():
        rows = np.flatnonzero(row_excluded == excluded)
        if excluded == d:
            means[rows] = np.nan
            continue
        for start in range(0, rows.size, _BLOCK_ROWS):
            part = rows[start : start + _BLOCK_ROWS]
            cells = r[part][~zero[part]].reshape(part.size, d - excluded)
            means[part] = 100.0 * np.mean(cells, axis=1)
    return means


def _medians(r: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per column, the median of 100*r over its ``kept`` nonzero cells, as
    np.median takes it: the middle value, or the mean of the two middle
    values. NaN for a column with none.

    Zero cells hold +inf in r, so they sort last. Columns that share a
    lower middle index are partitioned at it together, a few at a time, as
    rows of a feature-major copy (numpy partitions at one index much faster
    than at several); the upper middle value is the smallest right of it."""
    n, d = r.shape
    lower = (kept - 1) // 2
    a, b = np.full(d, np.nan), np.full(d, np.nan)
    for k in np.unique(lower[kept > 0]).tolist():
        group = np.flatnonzero((lower == k) & (kept > 0))
        for start in range(0, group.size, _MEDIAN_COLUMNS):
            cols = group[start : start + _MEDIAN_COLUMNS]
            part = r.T[cols]
            part.partition(k, axis=1)
            a[cols] = part[:, k]
            b[cols] = part[:, k + 1 :].min(axis=1) if k + 1 < n else part[:, k]
    a *= 100.0
    b *= 100.0
    return np.where(kept % 2 == 1, a, (a + b) / 2.0)


def kl_divergences(original, reconstructed, bins: int = DEFAULT_KL_BINS) -> np.ndarray:
    """Per feature, the histogram KL divergence D(P||Q) of the original
    against the reconstructed values. A vector is one feature.

    Both sides of a feature are histogrammed over the same `bins`
    equal-width edges spanning their union range, smoothed additively with
    epsilon and renormalized. Natural log. A degenerate union range yields
    0. Each cell's bin is assigned with np.histogram's own arithmetic: the
    estimate (x - lo)/(hi - lo)*bins, the corrections of one either way
    against the np.linspace edges, and the closed last bin. All features of
    a block of rows on both sides take one assignment and one bincount.
    """
    y, yhat = _columns(original, reconstructed)
    n, d = y.shape
    if n < 2:
        raise DataError("need at least 2 values per side for a histogram")
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    lo = np.minimum(y.min(axis=0), yhat.min(axis=0))
    hi = np.maximum(y.max(axis=0), yhat.max(axis=0))
    binned = lo != hi
    with np.errstate(all="ignore"):  # a range that is not finite is refused below
        width = np.where(binned, hi - lo, 1.0)
        _refuse("kl_divergence", ~np.isfinite(width))
        # np.linspace's edges: i*step + lo, or (i/bins)*width + lo where the
        # step underflows to zero, and the last edge hi itself.
        step = width / bins
        i = np.arange(bins + 1.0)[:, None]
        edges = np.where(step == 0.0, i / bins * width, i * step) + lo
        edges[-1] = hi
        edges = np.ascontiguousarray(edges.T).ravel()  # feature j's edges at j*(bins+1) ...

        first = np.arange(d) * (bins + 1)  # the index of each feature's first edge
        last_bin = first + bins - 1
        to_count = np.arange(d) - np.array([0, d * bins])[:, None, None]  # edge index -> count index
        counts = np.zeros(2 * d * bins, dtype=np.intp)
        for start in range(0, n, _BLOCK_ROWS):
            x = np.stack((y[start : start + _BLOCK_ROWS], yhat[start : start + _BLOCK_ROWS]))
            f = x - lo
            f /= width
            f *= bins
            idx = f.astype(np.intp)
            del f
            np.minimum(idx, bins - 1, out=idx)  # a value on the last edge
            idx += first
            idx -= x < edges[idx]
            idx += (x >= edges[idx + 1]) & (idx != last_bin)
            idx -= to_count
            counts += np.bincount(idx.ravel(), minlength=counts.size)
        p_counts, q_counts = counts.reshape(2, d, bins)
        p = p_counts / p_counts.sum(axis=1, keepdims=True) + KL_EPSILON
        q = q_counts / q_counts.sum(axis=1, keepdims=True) + KL_EPSILON
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        kl = np.sum(p * np.log(p / q), axis=1)
    # Clamp tiny negative round-off when P == Q bin-for-bin.
    return np.where(binned, np.where(kl < 0.0, 0.0, kl), 0.0)


def correlation_difference(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the original minus the reconstruction's.

    Zero-variance columns on either side yield NaN in the affected rows and
    columns rather than raising. A column whose variance overflows float64
    is refused.
    """
    y, yhat = _pair(original, reconstructed)
    if y.ndim != 2 or y.shape[0] < 3:
        raise DataError("need an NxD matrix with N >= 3")
    with np.errstate(all="ignore"):  # a variance that is not finite is refused in _pearson
        return _pearson(y) - _pearson(yhat)


def _pearson(m: np.ndarray) -> np.ndarray:
    centered = m - m.mean(axis=0)
    std = centered.std(axis=0)
    _refuse("correlation_difference", ~np.isfinite(std))
    degenerate = std == 0.0
    safe_std = np.where(degenerate, 1.0, std)
    z = np.divide(centered, safe_std, out=centered)
    corr = (z.T @ z) / m.shape[0]
    corr[degenerate, :] = np.nan
    corr[:, degenerate] = np.nan
    np.fill_diagonal(corr, np.where(degenerate, np.nan, 1.0))
    return corr


def compression_ratio(
    n_features: int, latent_dim: int, original_width_bytes: int, latent_width_bytes: int
) -> float:
    """Stored size of the original features over the stored size of the latent."""
    if min(n_features, latent_dim, original_width_bytes, latent_width_bytes) <= 0:
        raise DataError("all size arguments must be positive")
    return (n_features * original_width_bytes) / (latent_dim * latent_width_bytes)


@dataclass
class ReconstructionReport:
    """Everything the compression-quality tables and heatmaps are built from."""

    feature_names: tuple[str, ...]
    mse: float
    rmse: float
    mape_percent: float
    mape_excluded_zeros: int
    median_percent_error: list[float | None]
    median_pe_excluded_zeros: list[int]
    kl_divergence: list[float]
    correlation_difference: np.ndarray
    n_rows: int
    row_percent_errors: np.ndarray  # NaN for a row with no nonzero original
    row_excluded_zero_features: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "feature_names": list(self.feature_names),
            "global": {
                "mse": self.mse,
                "rmse": self.rmse,
                "mape_percent": self.mape_percent,
                "mape_excluded_zeros": self.mape_excluded_zeros,
            },
            "per_feature": [
                {
                    "feature": name,
                    "median_percent_error": self.median_percent_error[i],
                    "excluded_zero_rows": self.median_pe_excluded_zeros[i],
                    "kl_divergence": self.kl_divergence[i],
                }
                for i, name in enumerate(self.feature_names)
            ],
            "correlation_difference": undefined_as_none(self.correlation_difference),
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2, sort_keys=True)

    def save_feature_csv(self, path: str | Path) -> None:
        write_table(
            path,
            ["feature", "median_percent_error", "excluded_zero_rows", "kl_divergence"],
            zip(self.feature_names, self.median_percent_error, self.median_pe_excluded_zeros, self.kl_divergence),
        )

    def save_correlation_csv(self, path: str | Path) -> None:
        corr = undefined_as_none(self.correlation_difference)
        write_table(
            path,
            ["feature", *self.feature_names],
            ([name, *row] for name, row in zip(self.feature_names, corr)),
        )


def build_report(
    original: np.ndarray,
    reconstructed: np.ndarray,
    feature_names: tuple[str, ...],
) -> ReconstructionReport:
    """Assemble the full reconstruction report, per-row errors included,
    from original-unit matrices. A metric that is not finite raises a
    `DataError` naming it and the feature, before anything is written."""
    y, yhat = _pair(original, reconstructed)
    if len(feature_names) != y.shape[1]:
        raise DataError("feature_names length does not match matrix width")

    try:
        errors = percent_errors(y, yhat)
        kls = kl_divergences(y, yhat)
        corr = correlation_difference(y, yhat)
    except _NotFinite as exc:
        raise DataError(exc.describe(f"feature {feature_names[exc.column]!r}")) from None

    return ReconstructionReport(
        feature_names=tuple(feature_names),
        mse=errors.mse,
        rmse=errors.rmse,
        mape_percent=errors.mape_percent,
        mape_excluded_zeros=errors.mape_excluded_zeros,
        median_percent_error=errors.median_percent_error,
        median_pe_excluded_zeros=errors.median_pe_excluded_zeros,
        kl_divergence=kls.tolist(),
        correlation_difference=corr,
        n_rows=y.shape[0],
        row_percent_errors=errors.row_percent_errors,
        row_excluded_zero_features=errors.row_excluded_zero_features,
    )


_FORMAT_ROWS = 8192  # rows formatted and written per block, to bound the temporaries


def save_row_percent_errors(
    means: np.ndarray, excluded_zero_features: np.ndarray, path: str | Path
) -> None:
    """Raw per-row dump: each row's mean |percent error| over its
    nonzero-denominator features (`percent_errors`' row means), empty for a
    row with none (NaN), and its count of excluded features.

    The bytes are those `write_table` would write (``\r\n`` line ends, a
    mean as its repr), but the means are formatted by
    `_float_text.format_rows` a block at a time rather than one repr each."""
    means = np.asarray(means, dtype=np.float64)
    excluded = np.asarray(excluded_zero_features).tolist()
    with atomic_write(path) as fh:
        fh.write("row,mean_abs_percent_error,excluded_zero_features\r\n")
        for start in range(0, means.size, _FORMAT_ROWS):
            block = means[start : start + _FORMAT_ROWS]
            defined = ~np.isnan(block)
            cells = format_rows(block[defined, None], as_repr=True) if defined.any() else []
            if len(cells) < block.size:
                formatted = iter(cells)
                cells = [next(formatted) if ok else "" for ok in defined.tolist()]
            rows = zip(range(start, start + block.size), cells, excluded[start : start + block.size])
            fh.write("".join([f"{i},{cell},{n_excluded}\r\n" for i, cell, n_excluded in rows]))

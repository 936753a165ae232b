"""Compression evaluation: global errors, per-feature fidelity, distribution
similarity, correlation preservation and the storage compression ratio.

All error metrics are meant to run on ORIGINAL-unit matrices, i.e. after
inverse preprocessing, so magnitudes are interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._float_text import format_rows
from ._fsutil import atomic_write, undefined_as_none, write_json, write_table
from .errors import DataError

DEFAULT_KL_BINS = 50
DEFAULT_ORIGINAL_WIDTH_BYTES = 8
KL_EPSILON = 1e-10


def _pair(original, reconstructed) -> tuple[np.ndarray, np.ndarray]:
    """Both matrices as float64 arrays, which must have the same shape."""
    y = np.asarray(original, dtype=np.float64)
    yhat = np.asarray(reconstructed, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DataError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    return y, yhat


@dataclass
class GlobalErrors:
    mse: float
    rmse: float
    mape_percent: float
    mape_excluded_zeros: int


def global_errors(original: np.ndarray, reconstructed: np.ndarray) -> GlobalErrors:
    """MSE/RMSE pooled over every entry; MAPE over entries with y != 0.

    Zero-denominator entries are excluded from MAPE and counted, never
    silently dropped.
    """
    y, yhat = _pair(original, reconstructed)
    diff = y - yhat
    mse = float(np.mean(diff * diff))
    rmse = float(np.sqrt(mse))
    nonzero = y != 0.0
    excluded = int(y.size - np.count_nonzero(nonzero))
    if np.any(nonzero):
        mape = float(100.0 * np.mean(np.abs(diff[nonzero] / y[nonzero])))
    else:
        mape = 0.0
    return GlobalErrors(mse=mse, rmse=rmse, mape_percent=mape, mape_excluded_zeros=excluded)


def median_percent_error(original: np.ndarray, reconstructed: np.ndarray) -> tuple[float | None, int]:
    """Median of 100*|y - yhat|/|y| over rows with y != 0.

    Returns (value, excluded_zero_count); the value is None when every row
    has y == 0 (undefined metric, not an error).
    """
    y, yhat = _pair(original, reconstructed)
    nonzero = y != 0.0
    excluded = int(y.size - np.count_nonzero(nonzero))
    if not np.any(nonzero):
        return None, excluded
    pct = 100.0 * np.abs((y[nonzero] - yhat[nonzero]) / y[nonzero])
    return float(np.median(pct)), excluded


def kl_divergence(
    original: np.ndarray,
    reconstructed: np.ndarray,
    bins: int = DEFAULT_KL_BINS,
) -> float:
    """Histogram KL divergence D(P||Q) of original vs reconstructed values.

    Both sides are histogrammed over the same equal-width bin edges spanning
    the union range, smoothed additively with epsilon and renormalized.
    Natural log. A degenerate union range yields 0.
    """
    p_vals = np.asarray(original, dtype=np.float64).ravel()
    q_vals = np.asarray(reconstructed, dtype=np.float64).ravel()
    if p_vals.size < 2 or q_vals.size < 2:
        raise DataError("need at least 2 values per side for a histogram")
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
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
    kl = float(np.sum(p * np.log(p / q)))
    # Clamp tiny negative round-off when P == Q bin-for-bin.
    return max(kl, 0.0)


def correlation_difference(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the original minus the reconstruction's.

    Zero-variance columns on either side yield NaN in the affected rows and
    columns rather than raising.
    """
    y, yhat = _pair(original, reconstructed)
    if y.ndim != 2 or y.shape[0] < 3:
        raise DataError("need an NxD matrix with N >= 3")
    return _pearson(y) - _pearson(yhat)


def _pearson(m: np.ndarray) -> np.ndarray:
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
    compression_ratio: float
    bytes_original: int
    bytes_compressed: int
    n_rows: int
    warnings: list[str] = field(default_factory=list)

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
            "compression": {
                "ratio": self.compression_ratio,
                "bytes_original": self.bytes_original,
                "bytes_compressed": self.bytes_compressed,
            },
            "warnings": list(self.warnings),
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
    latent_dim: int,
    latent_width_bytes: int,
    kl_bins: int = DEFAULT_KL_BINS,
    original_width_bytes: int = DEFAULT_ORIGINAL_WIDTH_BYTES,
    warnings: list[str] | None = None,
) -> ReconstructionReport:
    """Assemble the full reconstruction report from original-unit matrices."""
    y, yhat = _pair(original, reconstructed)
    n_features = y.shape[1]
    if len(feature_names) != n_features:
        raise DataError("feature_names length does not match matrix width")

    g = global_errors(y, yhat)
    med: list[float | None] = []
    med_excl: list[int] = []
    kls: list[float] = []
    for j in range(n_features):
        v, excl = median_percent_error(y[:, j], yhat[:, j])
        med.append(v)
        med_excl.append(excl)
        kls.append(kl_divergence(y[:, j], yhat[:, j], bins=kl_bins))

    ratio = compression_ratio(n_features, latent_dim, original_width_bytes, latent_width_bytes)
    return ReconstructionReport(
        feature_names=tuple(feature_names),
        mse=g.mse,
        rmse=g.rmse,
        mape_percent=g.mape_percent,
        mape_excluded_zeros=g.mape_excluded_zeros,
        median_percent_error=med,
        median_pe_excluded_zeros=med_excl,
        kl_divergence=kls,
        correlation_difference=correlation_difference(y, yhat),
        compression_ratio=ratio,
        bytes_original=y.shape[0] * n_features * original_width_bytes,
        bytes_compressed=y.shape[0] * latent_dim * latent_width_bytes,
        n_rows=y.shape[0],
        warnings=list(warnings or []),
    )


_FORMAT_ROWS = 8192  # means formatted per format_rows call, to bound its temporaries


def save_row_percent_errors(
    original: np.ndarray, reconstructed: np.ndarray, path: str | Path
) -> None:
    """Raw per-row dump: mean |percent error| over nonzero-denominator features,
    empty for a row with none.

    The bytes are those `write_table` would write (``\r\n`` line ends, a
    mean as its repr), but the means are formatted by
    `_float_text.format_rows` a block at a time rather than one repr each."""
    y, yhat = _pair(original, reconstructed)
    nonzero = y != 0.0
    kept = np.count_nonzero(nonzero, axis=1)
    means = np.zeros(y.shape[0])
    # One row-wise mean per count of kept features, so at most one per
    # column. Masking a group's rows keeps each row's k cells contiguous and
    # in order, so a row sums in the same order as a mean over that row alone.
    for k in np.unique(kept[kept > 0]).tolist():
        rows = np.flatnonzero(kept == k)
        mask = nonzero[rows]
        block = y[rows][mask].reshape(-1, k)
        means[rows] = 100.0 * np.mean(np.abs((block - yhat[rows][mask].reshape(-1, k)) / block), axis=1)
    cells = np.full(y.shape[0], "", dtype=object)
    defined = np.flatnonzero(kept)
    for start in range(0, defined.size, _FORMAT_ROWS):
        rows = defined[start : start + _FORMAT_ROWS]
        cells[rows] = format_rows(means[rows, None], as_repr=True)
    with atomic_write(path) as fh:
        fh.write("row,mean_abs_percent_error,excluded_zero_features\r\n")
        fh.writelines(
            f"{i},{cell},{excluded}\r\n"
            for i, cell, excluded in zip(range(y.shape[0]), cells.tolist(), (y.shape[1] - kept).tolist())
        )

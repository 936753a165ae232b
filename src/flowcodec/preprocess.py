"""Two-step feature preprocessing: percentile clipping, then robust scaling.

Values are clipped at the per-feature 99.9th percentile, and the clipped
values are centered by their median and scaled by their interquartile range.
Scaling inverts exactly; clipping is deliberately lossy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fsutil import field, read_json, write_json
from .errors import DataError, ModelFormatError

CLIP_QUANTILE = 0.999
STATE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PreprocessorState:
    """Fitted per-feature clip thresholds and robust-scaling statistics."""

    feature_names: tuple[str, ...]
    p99_9: np.ndarray
    median: np.ndarray
    iqr: np.ndarray
    fitted_on: int

    def __post_init__(self):
        for arr in (self.p99_9, self.median, self.iqr):
            if arr.shape != (len(self.feature_names),):
                raise DataError("preprocessor arrays must be one value per feature")
        if np.any(self.iqr <= 0):
            raise DataError("fitted IQR values must be positive")

    def to_json_dict(self) -> dict:
        return {
            "version": STATE_FORMAT_VERSION,
            "feature_names": list(self.feature_names),
            "p99_9": self.p99_9.tolist(),
            "median": self.median.tolist(),
            "iqr": self.iqr.tolist(),
            "fitted_on": self.fitted_on,
        }

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "PreprocessorState":
        doc = read_json(path, "preprocessor state")
        version = field(doc, "version", int, path)
        if version != STATE_FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported preprocessor version {version!r}")
        names = tuple(field(doc, "feature_names", list[str], path))
        arrays = (field(doc, k, list[float], path) for k in ("p99_9", "median", "iqr"))
        p99_9, median, iqr = (np.array(a, dtype=np.float64) for a in arrays)
        if not all(a.shape == (len(names),) and np.isfinite(a).all() for a in (p99_9, median, iqr)):
            raise ModelFormatError(f"{path}: preprocessor arrays must hold one finite value per feature")
        if (iqr <= 0).any():
            raise ModelFormatError(f"{path}: preprocessor IQR values must be positive")
        fitted_on = field(doc, "fitted_on", int, path)
        return cls(feature_names=names, p99_9=p99_9, median=median, iqr=iqr, fitted_on=fitted_on)


def fit(matrix: np.ndarray, feature_names: tuple[str, ...] | None = None) -> PreprocessorState:
    """Fit clip thresholds and robust-scaling statistics.

    The quantile estimator is sorted-order linear interpolation at rank
    q*(N-1). Median and IQR are computed on the clipped values so the two
    steps compose from a single fit. Zero IQR (constant feature) falls back
    to 1, leaving such features as pure median-centering.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {matrix.shape}")
    n, width = matrix.shape
    if n < 4:
        raise DataError(f"need at least 4 rows to fit quartiles, got {n}")
    if not np.isfinite(matrix).all():
        bad = int(np.argwhere(~np.isfinite(matrix))[0][1])
        raise DataError(f"non-finite value in feature column {bad}")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(width))
    if len(feature_names) != width:
        raise DataError("feature_names length does not match matrix width")

    p99_9 = np.quantile(matrix, CLIP_QUANTILE, axis=0, method="linear")
    clipped = np.minimum(matrix, p99_9)
    q1, median, q3 = np.quantile(clipped, [0.25, 0.5, 0.75], axis=0, method="linear")
    iqr = q3 - q1
    iqr = np.where(iqr == 0.0, 1.0, iqr)
    return PreprocessorState(
        feature_names=tuple(feature_names), p99_9=p99_9, median=median, iqr=iqr, fitted_on=n
    )


def _check(matrix: np.ndarray, state: PreprocessorState) -> np.ndarray:
    if state is None:
        raise DataError("preprocessor state is not fitted")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(state.feature_names):
        raise DataError(
            f"matrix width {matrix.shape} does not match fitted width {len(state.feature_names)}"
        )
    return matrix


def transform(matrix: np.ndarray, state: PreprocessorState) -> np.ndarray:
    """Clip at p99.9 then robust-scale: (min(x, p) - median) / iqr."""
    matrix = _check(matrix, state)
    return (np.minimum(matrix, state.p99_9) - state.median) / state.iqr


def inverse_transform(matrix: np.ndarray, state: PreprocessorState) -> np.ndarray:
    """Invert the scaling step only: x * iqr + median.

    Clipping is not inverted; values that were above p99.9 come back as the
    threshold itself.
    """
    matrix = _check(matrix, state)
    return matrix * state.iqr + state.median


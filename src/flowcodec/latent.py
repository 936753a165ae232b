"""Compressed flow container: latent matrix plus pass-through columns.

Layout: 4-byte magic, little-endian u32 format version and u32 header
length, a JSON header, the row-major latent block, then a u64-length-prefixed
UTF-8 CSV holding the identity columns and label verbatim. Identity data
never goes through the autoencoder.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fsutil import atomic_write, field, frame, read_frame
from .errors import DataError, ModelFormatError

LATENT_MAGIC = b"FCLZ"
LATENT_FORMAT_VERSION = 1
_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class LatentFile:
    latent: np.ndarray
    identities: list[dict[str, str]]
    labels: list[str] | None
    feature_names: tuple[str, ...]
    identity_columns: tuple[str, ...]
    label_column: str
    preprocessor_fingerprint: str
    forced: bool

    @property
    def n_rows(self) -> int:
        return int(self.latent.shape[0])

    @property
    def latent_dim(self) -> int:
        return int(self.latent.shape[1])


def write_latent(
    path: str | Path,
    latent: np.ndarray,
    identities: list[dict[str, str]],
    labels: list[str] | None,
    feature_names: tuple[str, ...],
    identity_columns: tuple[str, ...],
    label_column: str,
    preprocessor_fingerprint: str,
    dtype: str = "float32",
    forced: bool = False,
) -> None:
    """Serialize atomically. ``dtype`` controls the stored latent precision
    and therefore the realized compression ratio."""
    if dtype not in _DTYPES:
        raise DataError(f"latent dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    latent = np.asarray(latent)
    if latent.ndim != 2 or latent.shape[0] != len(identities):
        raise DataError(
            f"latent shape {latent.shape} does not match {len(identities)} identity rows"
        )
    if labels is not None and len(labels) != latent.shape[0]:
        raise DataError("label count does not match latent rows")

    header = {
        "n_rows": int(latent.shape[0]),
        "latent_dim": int(latent.shape[1]),
        "dtype": dtype,
        "feature_names": list(feature_names),
        "identity_columns": list(identity_columns),
        "label_column": label_column,
        "labeled": labels is not None,
        "preprocessor_fingerprint": preprocessor_fingerprint,
        "forced": bool(forced),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    block = np.ascontiguousarray(latent.astype(_DTYPES[dtype])).tobytes()

    sidecar = io.StringIO()
    writer = csv.writer(sidecar, lineterminator="\n")
    columns = list(identity_columns) + ([label_column] if labels is not None else [])
    writer.writerow(columns)
    for i, identity in enumerate(identities):
        row = [identity.get(c, "") for c in identity_columns]
        if labels is not None:
            row.append(labels[i])
        writer.writerow(row)
    sidecar_bytes = sidecar.getvalue().encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(frame(LATENT_MAGIC, LATENT_FORMAT_VERSION, header_bytes))
        fh.write(block)
        fh.write(struct.pack("<Q", len(sidecar_bytes)))
        fh.write(sidecar_bytes)


def read_latent(path: str | Path) -> LatentFile:
    header, blob, block_start = read_frame(path, "latent container", LATENT_MAGIC, LATENT_FORMAT_VERSION)
    dtype = field(header, "dtype", str, path)
    if dtype not in _DTYPES:
        raise ModelFormatError(f"{path}: unknown latent dtype {dtype!r}")
    n_rows = field(header, "n_rows", int, path)
    latent_dim = field(header, "latent_dim", int, path)
    if n_rows < 0 or latent_dim < 1:
        raise ModelFormatError(f"{path}: implausible latent shape ({n_rows}, {latent_dim})")
    identity_columns = tuple(field(header, "identity_columns", list[str], path))
    label_column = field(header, "label_column", str, path)
    labeled = field(header, "labeled", bool, path)
    feature_names = tuple(field(header, "feature_names", list[str], path))
    fingerprint = field(header, "preprocessor_fingerprint", str, path)
    forced = field(header, "forced", bool, path)

    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    block_len = n_rows * latent_dim * itemsize
    if len(blob) < block_start + block_len + 8:
        raise ModelFormatError(f"{path}: latent block truncated")
    latent = np.frombuffer(
        blob, dtype=_DTYPES[dtype], count=n_rows * latent_dim, offset=block_start
    ).reshape(n_rows, latent_dim).copy()

    (sidecar_len,) = struct.unpack_from("<Q", blob, block_start + block_len)
    sidecar_start = block_start + block_len + 8
    if len(blob) != sidecar_start + sidecar_len:
        raise ModelFormatError(f"{path}: container length mismatch")
    expected = list(identity_columns) + ([label_column] if labeled else [])
    identities: list[dict[str, str]] = []
    labels: list[str] | None = [] if labeled else None
    try:
        reader = csv.reader(io.StringIO(blob[sidecar_start:].decode("utf-8")))
        columns = next(reader, None)
        if columns != expected:
            raise ModelFormatError(f"{path}: identity block columns {columns} != header {expected}")
        for row in reader:
            if len(row) != len(expected):
                raise ModelFormatError(f"{path}: identity row width {len(row)} != {len(expected)}")
            identities.append(dict(zip(identity_columns, row)))
            if labels is not None:
                labels.append(row[-1])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ModelFormatError(f"{path}: unreadable identity block: {exc}") from exc
    if len(identities) != n_rows:
        raise ModelFormatError(f"{path}: identity rows {len(identities)} != latent rows {n_rows}")

    return LatentFile(
        latent=latent,
        identities=identities,
        labels=labels,
        feature_names=feature_names,
        identity_columns=identity_columns,
        label_column=label_column,
        preprocessor_fingerprint=fingerprint,
        forced=forced,
    )

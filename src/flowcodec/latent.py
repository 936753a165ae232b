"""Compressed flow container: latent matrix plus pass-through columns.

Layout: 4-byte magic, little-endian u32 format version and u32 header
length, a JSON header, the row-major latent block, then a u64-length-prefixed
UTF-8 CSV holding the identity columns and label verbatim. Identity data
never goes through the autoencoder.

The header names the schema's columns; the sidecar holds the `Dataset` layout,
one CSV column per identity field, then the label if any, one line per latent
row (an empty line when the schema has neither). Cells are quoted where
csv needs it, or all of them when any cell holds a carriage return.
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
from .errors import DataError, ModelFormatError, SchemaError
from .flow_data import Dataset, FeatureSchema

LATENT_MAGIC = b"FCLZ"
LATENT_FORMAT_VERSION = 1
_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class LatentFile:
    """A read container: the schema its header names, and ``identities`` and
    ``labels`` in `Dataset` layout, one cell per latent row."""

    latent: np.ndarray
    schema: FeatureSchema
    identities: dict[str, list[str]]
    labels: list[str] | None
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
    dataset: Dataset,
    preprocessor_fingerprint: str,
    dtype: str = "float32",
    forced: bool = False,
) -> None:
    """Serialize ``latent`` and the pass-through columns of ``dataset``
    atomically. ``dtype`` controls the stored latent precision and therefore
    the realized compression ratio."""
    if dtype not in _DTYPES:
        raise DataError(f"latent dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    latent = np.asarray(latent)
    if latent.ndim != 2 or latent.shape[0] != len(dataset):
        raise DataError(f"latent shape {latent.shape} does not match {len(dataset)} dataset rows")

    schema = dataset.schema
    labeled = dataset.labels is not None
    header = {
        "n_rows": int(latent.shape[0]),
        "latent_dim": int(latent.shape[1]),
        "dtype": dtype,
        "feature_names": list(schema.compressible_columns),
        "identity_columns": list(schema.identity_columns),
        "label_column": schema.label_column or "",
        "labeled": labeled,
        "preprocessor_fingerprint": preprocessor_fingerprint,
        "forced": bool(forced),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    block = np.ascontiguousarray(latent.astype(_DTYPES[dtype])).tobytes()

    columns = [dataset.identities[c] for c in schema.identity_columns]
    if labeled:
        columns.append(dataset.labels)
    rows = [list(schema.identity_columns) + ([schema.label_column] if labeled else [])]
    rows += [[cells[i] for cells in columns] for i in range(len(dataset))]
    sidecar = _csv_text(rows, csv.QUOTE_MINIMAL)
    if "\r" in sidecar:
        # The writer quotes a cell only for the delimiter, the quote char or
        # "\n", but the reader ends a record at an unquoted "\r".
        sidecar = _csv_text(rows, csv.QUOTE_ALL)
    sidecar_bytes = sidecar.encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(frame(LATENT_MAGIC, LATENT_FORMAT_VERSION, header_bytes))
        fh.write(block)
        fh.write(struct.pack("<Q", len(sidecar_bytes)))
        fh.write(sidecar_bytes)


def _csv_text(rows: list[list[str]], quoting: int) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
    return buf.getvalue()


def read_latent(path: str | Path) -> LatentFile:
    header, blob, block_start = read_frame(path, "latent container", LATENT_MAGIC, LATENT_FORMAT_VERSION)
    dtype = field(header, "dtype", str, path)
    if dtype not in _DTYPES:
        raise ModelFormatError(f"{path}: unknown latent dtype {dtype!r}")
    n_rows = field(header, "n_rows", int, path)
    latent_dim = field(header, "latent_dim", int, path)
    if n_rows < 0 or latent_dim < 1:
        raise ModelFormatError(f"{path}: implausible latent shape ({n_rows}, {latent_dim})")
    identity_columns = field(header, "identity_columns", list[str], path)
    label_column = field(header, "label_column", str, path)
    labeled = field(header, "labeled", bool, path)
    feature_names = field(header, "feature_names", list[str], path)
    fingerprint = field(header, "preprocessor_fingerprint", str, path)
    forced = field(header, "forced", bool, path)
    if labeled and not label_column:
        raise ModelFormatError(f"{path}: labeled container names no label column")
    try:
        schema = FeatureSchema(identity_columns, feature_names, label_column or None)
    except SchemaError as exc:
        raise ModelFormatError(f"{path}: header column names: {exc}") from exc

    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    block_len = n_rows * latent_dim * itemsize
    if len(blob) < block_start + block_len + 8:
        raise ModelFormatError(f"{path}: latent block truncated")
    latent = np.frombuffer(
        blob, dtype=_DTYPES[dtype], count=n_rows * latent_dim, offset=block_start
    ).reshape(n_rows, latent_dim).copy()
    if not np.isfinite(latent).all():
        raise ModelFormatError(f"{path}: latent block holds non-finite values")

    (sidecar_len,) = struct.unpack_from("<Q", blob, block_start + block_len)
    sidecar_start = block_start + block_len + 8
    if len(blob) != sidecar_start + sidecar_len:
        raise ModelFormatError(f"{path}: container length mismatch")
    expected = list(schema.identity_columns) + ([label_column] if labeled else [])
    try:
        rows = list(csv.reader(io.StringIO(blob[sidecar_start:].decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ModelFormatError(f"{path}: unreadable identity block: {exc}") from exc
    columns = rows[0] if rows else None
    if columns != expected:
        raise ModelFormatError(f"{path}: identity block columns {columns} != header {expected}")
    body = rows[1:]
    for row in body:
        if len(row) != len(expected):
            raise ModelFormatError(f"{path}: identity row width {len(row)} != {len(expected)}")
    if len(body) != n_rows:
        raise ModelFormatError(f"{path}: identity rows {len(body)} != latent rows {n_rows}")
    cells = [[row[k] for row in body] for k in range(len(expected))]

    return LatentFile(
        latent=latent,
        schema=schema,
        identities=dict(zip(schema.identity_columns, cells)),
        labels=cells[-1] if labeled else None,
        preprocessor_fingerprint=fingerprint,
        forced=forced,
    )

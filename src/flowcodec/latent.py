"""Compressed flow container: latent matrix plus pass-through columns.

Layout (format version 2): 4-byte magic, little-endian u32 format version
and u32 header length, a JSON header, the row-major latent block, a u64
sidecar length, then the sidecar, which runs to the end of the file.
Identity data never goes through the autoencoder.

The header names the schema's columns. The sidecar holds one stream per
identity column in header order, then one for the label if the container is
labeled, and nothing when the schema has neither. A stream is its raw and
packed byte lengths (u64 each), then that many bytes of one zlib stream. It
inflates to exactly the raw length: ``n_rows`` u32 cell byte lengths, then
the cells' concatenated UTF-8. Column stores and flow exporters compress
each column on its own for the same reason: a column's cells resemble each
other far more than a row's do.

Every stream is deflated at one fixed level, so for a given zlib build the
same input gives the same bytes. Another zlib build may deflate differently,
but any conforming inflater reads the file, so reading does not depend on
the build. Version 1 (a row-wise CSV sidecar) is refused, not read.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from ._fsutil import atomic_write, field, frame, read_frame
from .errors import DataError, ModelFormatError, SchemaError
from .flow_data import Dataset, FeatureSchema

LATENT_MAGIC = b"FCLZ"
LATENT_FORMAT_VERSION = 2
LATENT_DTYPES = {"float32": np.float32, "float64": np.float64}
DEFAULT_LATENT_DTYPE = "float32"
_STREAM = struct.Struct("<QQ")  # raw and packed byte lengths of one sidecar stream
# On 25k synthetic flows (one Xeon core, zlib 1.2.13), level 1 deflates the
# sidecar to 0.62 MB in 0.03 s; level 6 gets 0.52 MB in 0.12 s and level 9
# 0.50 MB in 0.96 s, time that compress would spend on every run.
_ZLIB_LEVEL = 1
_MAX_INFLATE = 1032  # deflate's largest ratio of inflated to packed bytes


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
    dtype: str = DEFAULT_LATENT_DTYPE,
    forced: bool = False,
) -> dict[str, int]:
    """Serialize ``latent`` and the pass-through columns of ``dataset``
    atomically, and return the byte count of each section: ``header`` (with
    the magic and frame), ``block`` and ``sidecar`` (with its u64 length).
    ``dtype`` controls the stored latent precision and therefore the
    realized compression ratio."""
    if dtype not in LATENT_DTYPES:
        raise DataError(f"latent dtype must be one of {sorted(LATENT_DTYPES)}, got {dtype!r}")
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
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(latent, dtype=LATENT_DTYPES[dtype])
    if not np.isfinite(stored).all():
        raise DataError(
            f"latent values are not finite as {dtype}; an input feature is far outside"
            " the range the model was trained on"
        )

    columns = [dataset.identities[c] for c in schema.identity_columns]
    if labeled:
        columns.append(dataset.labels)
    sidecar = b"".join(map(_pack_column, columns))

    head = frame(LATENT_MAGIC, LATENT_FORMAT_VERSION, header_bytes)
    with atomic_write(path, "wb") as fh:
        fh.write(head)
        fh.write(stored.tobytes())
        fh.write(struct.pack("<Q", len(sidecar)))
        fh.write(sidecar)
    return {"header": len(head), "block": stored.nbytes, "sidecar": 8 + len(sidecar)}


def _pack_column(cells: list[str]) -> bytes:
    text = "".join(cells)
    if text.isascii():
        data, sizes = text.encode("ascii"), map(len, cells)
    else:
        encoded = [cell.encode("utf-8") for cell in cells]
        data, sizes = b"".join(encoded), map(len, encoded)
    raw = np.fromiter(sizes, dtype="<u4", count=len(cells)).tobytes() + data
    packed = zlib.compress(raw, _ZLIB_LEVEL)
    return _STREAM.pack(len(raw), len(packed)) + packed


def read_latent(path: str | Path) -> LatentFile:
    header, blob, block_start = read_frame(
        path, "latent container", LATENT_MAGIC, LATENT_FORMAT_VERSION,
        remedy=f" (this build reads {LATENT_FORMAT_VERSION}); re-run `flowcodec compress` to rewrite it",
    )
    dtype = field(header, "dtype", str, path)
    if dtype not in LATENT_DTYPES:
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

    itemsize = np.dtype(LATENT_DTYPES[dtype]).itemsize
    block_len = n_rows * latent_dim * itemsize
    if len(blob) < block_start + block_len + 8:
        raise ModelFormatError(f"{path}: latent block truncated")
    latent = np.frombuffer(
        blob, dtype=LATENT_DTYPES[dtype], count=n_rows * latent_dim, offset=block_start
    ).reshape(n_rows, latent_dim).copy()
    if not np.isfinite(latent).all():
        raise ModelFormatError(f"{path}: latent block holds non-finite values")

    (sidecar_len,) = struct.unpack_from("<Q", blob, block_start + block_len)
    sidecar_start = block_start + block_len + 8
    if len(blob) != sidecar_start + sidecar_len:
        raise ModelFormatError(f"{path}: container length mismatch")
    names = list(schema.identity_columns) + ([label_column] if labeled else [])
    cells, pos = [], sidecar_start
    for name in names:
        column, pos = _unpack_column(blob, pos, n_rows, f"{path}: {name!r} stream")
        cells.append(column)
    if pos != len(blob):
        raise ModelFormatError(f"{path}: {len(blob) - pos} trailing bytes after the last sidecar stream")

    return LatentFile(
        latent=latent,
        schema=schema,
        identities=dict(zip(schema.identity_columns, cells)),
        labels=cells[-1] if labeled else None,
        preprocessor_fingerprint=fingerprint,
        forced=forced,
    )


def _unpack_column(blob: bytes, pos: int, n_rows: int, where: str) -> tuple[list[str], int]:
    """The ``n_rows`` cells of the sidecar stream at ``pos``, and the offset
    just past it."""
    if pos + _STREAM.size > len(blob):
        raise ModelFormatError(f"{where} truncated")
    raw_len, packed_len = _STREAM.unpack_from(blob, pos)
    pos += _STREAM.size
    end = pos + packed_len
    if end > len(blob):
        raise ModelFormatError(f"{where}: packed length {packed_len} runs past the end of the file")
    if not 4 * n_rows <= raw_len <= _MAX_INFLATE * packed_len:
        raise ModelFormatError(f"{where}: implausible raw length {raw_len}")
    inflater = zlib.decompressobj()
    try:
        # max_length=0 would mean no limit; 1 still reads an empty stream.
        raw = inflater.decompress(memoryview(blob)[pos:end], max(raw_len, 1))
    except zlib.error as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
        raise ModelFormatError(f"{where} does not inflate to exactly its {raw_len} bytes")

    sizes = np.frombuffer(raw, dtype="<u4", count=n_rows).tolist()
    data = memoryview(raw)[4 * n_rows :]
    if sum(sizes) != len(data):
        raise ModelFormatError(f"{where}: cell lengths do not sum to its {len(data)} data bytes")
    # Offsets are made one at a time. A list of all n_rows of them read 5-15%
    # faster, but left the codec-25k benchmark's peak RSS 3 MB higher.
    starts, stops = accumulate(sizes, initial=0), accumulate(sizes)
    try:
        text = str(data, "utf-8")
        if len(text) == len(data):  # all ASCII: byte offsets are character offsets
            return [text[a:b] for a, b in zip(starts, stops)], end
        # A cell boundary inside a multi-byte character fails this decode.
        return [str(data[a:b], "utf-8") for a, b in zip(starts, stops)], end
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{where}: invalid UTF-8: {exc}") from exc

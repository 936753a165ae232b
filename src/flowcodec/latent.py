"""Compressed flow container: latent matrix plus pass-through columns.

Layout (format version 3): 4-byte magic, little-endian u32 format version
and u32 header length, a JSON header, the row-major float32 latent block, a
u64 sidecar length, then the sidecar, which runs to the end of the file.
Identity data never goes through the autoencoder.

The header names the schema's columns and the block's ``dtype``. The reader
ignores header keys it does not use, such as the ``forced`` flag that earlier
writers added, so every version 3 container of float32 latents reads; one
whose ``dtype`` is anything else (earlier builds could store float64) is
refused. The sidecar holds one stream per identity column in header order,
then one for the label if the container is labeled, and nothing when the
schema has neither. A stream is a u8 kind tag, the kind's fields, then its
raw and packed byte lengths (u64 each) and that many bytes of one zlib
stream, which inflates to exactly the raw length.
Column stores and flow exporters compress each column on its own for the
same reason: a column's cells resemble each other far more than a row's do.

- Text (kind 0), the fallback for any column: ``n_rows`` u32 cell byte
  lengths, then the cells' concatenated UTF-8.
- Integers (kind 1, then a u8 width and an i64 base): each cell is the
  base plus an unsigned offset of that width.
- Integer differences (kind 2, then a u8 width): each cell is the same row's
  value in the nearest earlier integer column (kind 1 or 2) plus an offset.
- IPv4 (kind 3, then a u8 width and an i64 base): integers as kind 1,
  written back as dotted quads.

A typed stream (kinds 1-3) inflates to ``n_rows`` offsets of its width,
byte-shuffled: every offset's lowest byte first, then every second byte,
and so on. A column is typed only when every cell round-trips verbatim: a
canonical decimal integer within int64 (no sign on zero, no "+", no leading
zero), or for IPv4 a canonical dotted quad. Anything else ("010", "-0",
"1.2.3.04", IPv6, an empty cell) keeps the whole column in a text stream, so
every cell reads back as the string that was written. An integer column is
stored as differences when every one is >= 0 and their maximum is below the
column's own range, as a flow's last-seen time is against its first-seen
time.

Every stream is deflated at one fixed level, so for a given zlib build the
same input gives the same bytes. Another zlib build may deflate differently,
but any conforming inflater reads the file, so reading does not depend on
the build. Versions 1 (a row-wise CSV sidecar) and 2 (text streams only)
are refused, not read.
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
LATENT_FORMAT_VERSION = 3
_DTYPE = np.dtype(np.float32)  # the one stored latent precision, named in the header
_STREAM = struct.Struct("<QQ")  # raw and packed byte lengths of one sidecar stream
_TEXT, _INTS, _DIFFS, _IPV4 = range(4)  # sidecar stream kinds
_KIND, _WIDTH, _BASE = struct.Struct("<B"), struct.Struct("<B"), struct.Struct("<q")
_WIDTHS = (1, 2, 4, 8)
_I64_MAX = np.uint64(2**63 - 1)
_QUAD_SEPS = np.frombuffer(b"...,", dtype=np.uint8)  # after each octet of a quad, in a joined column
# Octet k's digits padded with NULs to 3 bytes, then a dot.
_OCTET_TEXT = np.array([list(f"{k}".encode().ljust(3, b"\0") + b".") for k in range(256)], dtype=np.uint8)
# On 25k synthetic flows (one Xeon core, zlib 1.2.13), level 1 deflates the
# sidecar to 311 kB with a whole write_latent of 0.044 s; level 6 gets 305 kB
# in 0.063 s and level 9 305 kB in 0.163 s, time compress would spend on every
# run.
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

    @property
    def n_rows(self) -> int:
        return int(self.latent.shape[0])

    @property
    def latent_dim(self) -> int:
        return int(self.latent.shape[1])


def stored_latents(latent: np.ndarray) -> np.ndarray:
    """``latent`` cast to float32 and C-contiguous, as a container stores
    it and as every stage scores it; DataError if a value is not finite."""
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(latent, dtype=_DTYPE)
    if not np.isfinite(stored).all():
        raise DataError(
            f"latent values are not finite as {_DTYPE.name}; an input feature is far outside"
            " the range the model was trained on"
        )
    return stored


def write_latent(
    path: str | Path,
    latent: np.ndarray,
    dataset: Dataset,
    preprocessor_fingerprint: str,
) -> dict[str, int]:
    """Serialize ``latent`` as float32 and the pass-through columns of
    ``dataset`` atomically, and return the byte count of each section:
    ``header`` (with the magic and frame), ``block`` and ``sidecar`` (with
    its u64 length)."""
    stored = stored_latents(latent)
    if stored.ndim != 2 or stored.shape[0] != len(dataset):
        raise DataError(f"latent shape {stored.shape} does not match {len(dataset)} dataset rows")

    schema = dataset.schema
    labeled = dataset.labels is not None
    header = {
        "n_rows": int(stored.shape[0]),
        "latent_dim": int(stored.shape[1]),
        "dtype": _DTYPE.name,
        "feature_names": list(schema.compressible_columns),
        "identity_columns": list(schema.identity_columns),
        "label_column": schema.label_column or "",
        "labeled": labeled,
        "preprocessor_fingerprint": preprocessor_fingerprint,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    columns = [dataset.identities[c] for c in schema.identity_columns]
    if labeled:
        columns.append(dataset.labels)
    streams, ref = [], None
    for cells in columns:
        stream, ints = _pack_column(cells, ref)
        streams.append(stream)
        ref = ref if ints is None else ints
    sidecar = b"".join(streams)

    head = frame(LATENT_MAGIC, LATENT_FORMAT_VERSION, header_bytes)
    with atomic_write(path, "wb") as fh:
        fh.write(head)
        fh.write(stored)  # C-contiguous: written from its own buffer, not a copy
        fh.write(struct.pack("<Q", len(sidecar)))
        fh.write(sidecar)
    return {"header": len(head), "block": stored.nbytes, "sidecar": 8 + len(sidecar)}


def _pack_column(cells: list[str], ref: np.ndarray | None) -> tuple[bytes, np.ndarray | None]:
    """One column's sidecar stream, and its values if it is stored as
    integers (the ``ref`` of a later column). ``ref`` holds the values of the
    nearest earlier integer column, if any."""
    text = ",".join(cells)
    if cells and text.isascii():
        # Every check runs over the whole column: its cells joined by commas.
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        ints = _parse_ints(text, chars, cells)
        if ints is not None:
            low = ints.min()
            offsets = ints.view(np.uint64) - low.view(np.uint64)  # uint64 holds every int64 span
            if ref is not None and (ints >= ref).all():
                diffs = ints.view(np.uint64) - ref.view(np.uint64)
                if diffs.max() < offsets.max():
                    return _pack_offsets(_DIFFS, diffs, None), ints
            return _pack_offsets(_INTS, offsets, int(low)), ints
        quads = _parse_quads(chars, len(cells))
        if quads is not None:
            low = quads.min()
            return _pack_offsets(_IPV4, (quads - low).view(np.uint64), int(low)), None
    return _KIND.pack(_TEXT) + _pack_text(cells), None


def _fields(cuts: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each field of ``size`` joined bytes cut at the
    separator positions ``cuts``."""
    starts = np.concatenate(([0], cuts + 1))
    return starts, np.append(cuts, size) - starts


def _parse_ints(text: str, chars: np.ndarray, cells: list[str]) -> np.ndarray | None:
    """The cells as int64 if every one is a canonical decimal integer: an
    optional "-", then 1-19 digits, the first not "0" unless it is the only
    one and unsigned. ``chars`` holds the bytes of ``text``, the cells
    joined by commas."""
    minus = chars == ord("-")
    n_minus = np.count_nonzero(minus)
    if np.count_nonzero(chars - 48 < 10) + n_minus + len(cells) - 1 != len(chars):
        return None  # a byte other than a digit, "-" or the joining commas
    starts, lengths = _fields(np.flatnonzero(chars == ord(",")), len(chars))
    if lengths.min() < 1:
        return None
    neg = minus[starts]
    first, n_digits = starts + neg, lengths - neg
    if np.count_nonzero(neg) != n_minus or n_digits.min() < 1 or n_digits.max() > 19:
        return None
    if ((chars[first] == ord("0")) & ((n_digits > 1) | neg)).any():
        return None
    values = np.fromstring(text, dtype=np.int64, sep=",")
    # 19 digits can run past int64, which numpy may saturate or wrap; either
    # way such a value parses to a magnitude of at least 1e18, so those cells
    # are checked against their text.
    big = np.flatnonzero((values >= 10**18) | (values <= -(10**18))).tolist()
    if big and ",".join(map(str, values[big].tolist())) != ",".join(map(cells.__getitem__, big)):
        return None
    return values


def _parse_quads(chars: np.ndarray, n_cells: int) -> np.ndarray | None:
    """The cells as int64 IPv4 addresses if every one is a canonical dotted
    quad: four octets of 1-3 digits, at most 255 and with no leading "0".
    ``chars`` holds the bytes of the cells joined by commas."""
    digits = chars - 48  # uint8: anything but a digit wraps to 10 or more
    cuts = np.flatnonzero(digits >= 10)
    if len(cuts) != 4 * n_cells - 1:
        return None
    if not (np.append(chars[cuts], ord(",")).reshape(n_cells, 4) == _QUAD_SEPS).all():
        return None
    starts, lengths = _fields(cuts, len(chars))
    if lengths.min() < 1 or lengths.max() > 3 or ((digits[starts] == 0) & (lengths > 1)).any():
        return None
    # An octet's last three bytes, weighted where the octet has them. For a
    # short first octet the index wraps to the end; its weight is 0.
    ends, d = starts + lengths, digits.astype(np.int16)
    octets = d[ends - 1] + 10 * d[ends - 2] * (lengths > 1) + 100 * d[ends - 3] * (lengths > 2)
    if octets.max() > 255:
        return None
    return octets.astype(np.uint8).view(">u4").astype(np.int64)


def _pack_offsets(kind: int, offsets: np.ndarray, base: int | None) -> bytes:
    """A typed stream: its kind, the narrowest width that holds every
    offset, the base (if the kind has one), and the byte-shuffled offsets."""
    top = int(offsets.max())
    width = next(w for w in _WIDTHS if top < 1 << 8 * w)
    shuffled = offsets.astype(f"<u{width}").view(np.uint8).reshape(-1, width).T.tobytes()
    head = _KIND.pack(kind) + _WIDTH.pack(width) + (b"" if base is None else _BASE.pack(base))
    return head + _deflate(shuffled)


def _pack_text(cells: list[str]) -> bytes:
    text = "".join(cells)
    if text.isascii():
        data, sizes = text.encode("ascii"), map(len, cells)
    else:
        encoded = [cell.encode("utf-8") for cell in cells]
        data, sizes = b"".join(encoded), map(len, encoded)
    return _deflate(np.fromiter(sizes, dtype="<u4", count=len(cells)).tobytes() + data)


def _deflate(raw: bytes) -> bytes:
    packed = zlib.compress(raw, _ZLIB_LEVEL)
    return _STREAM.pack(len(raw), len(packed)) + packed


def read_latent(path: str | Path) -> LatentFile:
    header, blob, block_start = read_frame(
        path, "latent container", LATENT_MAGIC, LATENT_FORMAT_VERSION,
        remedy=f" (this build reads {LATENT_FORMAT_VERSION}); re-run `flowcodec compress` to rewrite it",
    )
    dtype = field(header, "dtype", str, path)
    if dtype != _DTYPE.name:
        raise ModelFormatError(
            f"{path}: unsupported latent dtype {dtype!r} (this build reads {_DTYPE.name!r});"
            " re-run `flowcodec compress` to rewrite it"
        )
    n_rows = field(header, "n_rows", int, path)
    latent_dim = field(header, "latent_dim", int, path)
    if n_rows < 0 or latent_dim < 1:
        raise ModelFormatError(f"{path}: implausible latent shape ({n_rows}, {latent_dim})")
    identity_columns = field(header, "identity_columns", list[str], path)
    label_column = field(header, "label_column", str, path)
    labeled = field(header, "labeled", bool, path)
    feature_names = field(header, "feature_names", list[str], path)
    fingerprint = field(header, "preprocessor_fingerprint", str, path)
    if labeled and not label_column:
        raise ModelFormatError(f"{path}: labeled container names no label column")
    try:
        schema = FeatureSchema(identity_columns, feature_names, label_column or None)
    except SchemaError as exc:
        raise ModelFormatError(f"{path}: header column names: {exc}") from exc

    block_len = n_rows * latent_dim * _DTYPE.itemsize
    if len(blob) < block_start + block_len + 8:
        raise ModelFormatError(f"{path}: latent block truncated")
    latent = np.frombuffer(
        blob, dtype=_DTYPE, count=n_rows * latent_dim, offset=block_start
    ).reshape(n_rows, latent_dim).copy()
    if not np.isfinite(latent).all():
        raise ModelFormatError(f"{path}: latent block holds non-finite values")

    (sidecar_len,) = struct.unpack_from("<Q", blob, block_start + block_len)
    sidecar_start = block_start + block_len + 8
    if len(blob) != sidecar_start + sidecar_len:
        raise ModelFormatError(f"{path}: container length mismatch")
    names = list(schema.identity_columns) + ([label_column] if labeled else [])
    cells, pos, ref = [], sidecar_start, None
    for name in names:
        column, ints, pos = _unpack_column(blob, pos, n_rows, ref, f"{path}: {name!r} stream")
        cells.append(column)
        ref = ref if ints is None else ints
    if pos != len(blob):
        raise ModelFormatError(f"{path}: {len(blob) - pos} trailing bytes after the last sidecar stream")

    return LatentFile(
        latent=latent,
        schema=schema,
        identities=dict(zip(schema.identity_columns, cells)),
        labels=cells[-1] if labeled else None,
        preprocessor_fingerprint=fingerprint,
    )


def _unpack_column(
    blob: bytes, pos: int, n_rows: int, ref: np.ndarray | None, where: str
) -> tuple[list[str], np.ndarray | None, int]:
    """The ``n_rows`` cells of the sidecar stream at ``pos``, its values if it
    is an integer stream, and the offset just past it. ``ref`` holds the
    values of the nearest earlier integer stream, if any."""
    kind, width, base, pos = _unpack_fields(blob, pos, where)
    raw, pos = _inflate(blob, pos, 4 * n_rows if kind == _TEXT else 0, where)
    if kind == _TEXT:
        return _text_cells(raw, n_rows, where), None, pos

    if len(raw) != n_rows * width:
        raise ModelFormatError(f"{where}: inflated length {len(raw)} is not {n_rows} rows x {width} bytes")
    offsets = np.frombuffer(raw, dtype=np.uint8).reshape(width, n_rows).T.copy()
    offsets = offsets.view(f"<u{width}").ravel().astype(np.uint64)
    if kind == _DIFFS:
        if ref is None:
            raise ModelFormatError(f"{where}: differences with no earlier integer stream")
        start = ref.view(np.uint64)
    else:
        start = np.full(n_rows, base, dtype=np.int64).view(np.uint64)
    # Both sides as uint64, whose arithmetic wraps: _I64_MAX - start is the
    # exact headroom of every int64 start.
    if (offsets > _I64_MAX - start).any():
        raise ModelFormatError(f"{where}: a value overflows int64")
    values = (start + offsets).view(np.int64)
    if kind != _IPV4:
        return list(map(str, values.tolist())), values, pos
    if n_rows and (values.min() < 0 or values.max() > 0xFFFFFFFF):
        raise ModelFormatError(f"{where}: a value is not an IPv4 address")
    return _quad_text(values), None, pos


def _unpack_fields(blob: bytes, pos: int, where: str) -> tuple[int, int, int, int]:
    """The kind, width and base of the stream at ``pos`` (0 where its kind
    has no such field), and the offset just past them."""
    if pos + _KIND.size > len(blob):
        raise ModelFormatError(f"{where} truncated")
    (kind,) = _KIND.unpack_from(blob, pos)
    pos += _KIND.size
    if kind == _TEXT:
        return kind, 0, 0, pos
    if kind not in (_INTS, _DIFFS, _IPV4):
        raise ModelFormatError(f"{where}: unknown stream kind {kind}")
    has_base = kind != _DIFFS
    if pos + _WIDTH.size + has_base * _BASE.size > len(blob):
        raise ModelFormatError(f"{where} truncated")
    (width,) = _WIDTH.unpack_from(blob, pos)
    if width not in _WIDTHS:
        raise ModelFormatError(f"{where}: unknown value width {width}")
    pos += _WIDTH.size
    if not has_base:
        return kind, width, 0, pos
    return kind, width, _BASE.unpack_from(blob, pos)[0], pos + _BASE.size


def _inflate(blob: bytes, pos: int, min_raw: int, where: str) -> tuple[bytes, int]:
    """The inflated bytes of the zlib stream, with its two lengths, at
    ``pos``, and the offset just past it."""
    if pos + _STREAM.size > len(blob):
        raise ModelFormatError(f"{where} truncated")
    raw_len, packed_len = _STREAM.unpack_from(blob, pos)
    pos += _STREAM.size
    end = pos + packed_len
    if end > len(blob):
        raise ModelFormatError(f"{where}: packed length {packed_len} runs past the end of the file")
    if not min_raw <= raw_len <= _MAX_INFLATE * packed_len:
        raise ModelFormatError(f"{where}: implausible raw length {raw_len}")
    inflater = zlib.decompressobj()
    try:
        # max_length=0 would mean no limit; 1 still reads an empty stream.
        raw = inflater.decompress(memoryview(blob)[pos:end], max(raw_len, 1))
    except zlib.error as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
        raise ModelFormatError(f"{where} does not inflate to exactly its {raw_len} bytes")
    return raw, end


def _text_cells(raw: bytes, n_rows: int, where: str) -> list[str]:
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
            return [text[a:b] for a, b in zip(starts, stops)]
        # A cell boundary inside a multi-byte character fails this decode.
        return [str(data[a:b], "utf-8") for a, b in zip(starts, stops)]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{where}: invalid UTF-8: {exc}") from exc


def _quad_text(values: np.ndarray) -> list[str]:
    """IPv4 addresses (int64 in [0, 2**32)) as dotted quads."""
    if not len(values):
        return []
    chars = _OCTET_TEXT[values.astype(">u4").view(np.uint8)].reshape(-1, 16)
    chars[:, 15] = ord(",")  # the last octet's dot
    return chars[chars != 0].tobytes().decode("ascii")[:-1].split(",")

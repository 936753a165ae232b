"""How an artifact reaches and leaves the disk.

Every file the package writes goes through `atomic_write`, so a reader sees
the old file or the complete new one, never a torn one. Every artifact it
reads back goes through `read_frame` or `read_json` and then `field`, which
raise ModelFormatError for any defect. The binary containers (FCAE models,
FCLZ latents) share one frame: a 4-byte magic, a little-endian u32 version
and u32 header length, then a UTF-8 JSON header object.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .errors import ModelFormatError

_FRAME = struct.Struct("<II")


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Yield a file opened in ``mode`` ("w" for UTF-8 text, "wb" for bytes)
    on a temp file beside ``path``; rename it onto ``path`` when the body
    finishes, and delete it if the body raises."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)  # mkstemp made it 0600; match a plain open()
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, doc, **dump_options) -> None:
    """Atomically write ``doc`` as JSON plus a trailing newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, **dump_options) + "\n")


def frame(magic: bytes, version: int, header: bytes) -> bytes:
    """The head of a framed container, up to where its payload starts."""
    return magic + _FRAME.pack(version, len(header)) + header


def read_frame(path, what: str, magic: bytes | None = None, version: int = 0):
    """Return (header object, file bytes, offset after the header) of the
    framed container at ``path``; with no ``magic``, the whole file is the
    JSON object."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {what} {path}: {exc}") from exc
    start, end = 0, len(blob)
    if magic is not None:
        start = len(magic) + _FRAME.size
        if len(blob) < start or blob[: len(magic)] != magic:
            raise ModelFormatError(f"{path} is not a {what}")
        found, header_len = _FRAME.unpack_from(blob, len(magic))
        if found != version:
            raise ModelFormatError(f"{path}: unsupported {what} version {found}")
        end = start + header_len
        if len(blob) < end:
            raise ModelFormatError(f"{path}: {what} header truncated")
    try:
        doc = json.loads(blob[start:end].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ModelFormatError(f"{path}: malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: {what} is not a JSON object")
    return doc, blob, end


def read_json(path, what: str) -> dict:
    """The JSON object a plain JSON artifact holds."""
    return read_frame(path, what)[0]


def conforms(value, kind) -> bool:
    """isinstance for a type, a tuple or union of types, ``list[T]`` or
    ``tuple[T, ...]`` (a JSON list either way). bool never passes as a
    number; an int passes as a float."""
    if get_origin(kind) in (list, tuple):
        return isinstance(value, (list, tuple)) and all(conforms(v, get_args(kind)[0]) for v in value)
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def field(doc: dict, key: str, kind, where, ndim: int = 1):
    """``doc[key]`` if it `conforms` to ``kind``. For ``np.int64`` or
    ``np.float64`` it must be an ``ndim``-deep list of numbers, returned as
    an array of that dtype."""
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind in (np.int64, np.float64):
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting; the 0-d stand-in fails the ndim test
            arr = np.asarray(None)
        numbers = "i" if kind is np.int64 else "iuf"
        if arr.ndim == ndim and (arr.size == 0 or arr.dtype.kind in numbers):
            return arr.astype(kind)
    elif conforms(value, kind):
        return value
    raise ModelFormatError(f"{where}: field {key!r} has the wrong type: {value!r:.60}")

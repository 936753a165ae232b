"""How an artifact reaches and leaves the disk.

Every file the package writes goes through `atomic_write`, so a reader sees
the old file or the complete new one, never a torn one; each CSV report goes
through `write_table` on top of it. Every artifact it reads back goes through
`read_frame` or `read_json` and then `field`, which raise ModelFormatError
for any defect. `build` is the one way from a JSON object to a checked
dataclass: the pipeline config and each block inside it.
The binary containers (FCAE models, FCLZ latents) share one frame: a 4-byte
magic, a little-endian u32 version and u32 header length, then a UTF-8 JSON
header object.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import struct
import tempfile
from dataclasses import is_dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError

_FRAME = struct.Struct("<II")


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Yield a file opened in ``mode`` ("w" for UTF-8 text, "wb" for bytes)
    on a temp file beside ``path``; rename it onto ``path`` when the body
    finishes, and delete it if the body raises. An OSError from making or
    renaming the temp file names ``path``, not the temp file."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    try:
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)  # mkstemp made it 0600; match a plain open()
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, doc, **dump_options) -> None:
    """Atomically write ``doc`` as JSON plus a trailing newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, **dump_options) + "\n")


def write_table(path: str | Path, header, rows) -> None:
    """Atomically write a CSV report: ``header``, then ``rows``. csv.writer
    writes a float as its repr and None as an empty cell, which is how a
    report says a value is undefined."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def undefined_as_none(matrix) -> list[list]:
    """``matrix`` as nested lists of Python numbers with each NaN as None,
    which `write_table` writes as an empty cell and JSON as null."""
    m = np.asarray(matrix)
    return np.where(np.isnan(m), None, m).tolist()


def frame(magic: bytes, version: int, header: bytes) -> bytes:
    """The head of a framed container, up to where its payload starts."""
    return magic + _FRAME.pack(version, len(header)) + header


def read_frame(path, what: str, magic: bytes | None = None, version: int = 0, remedy: str = ""):
    """Return (header object, file bytes, offset after the header) of the
    framed container at ``path``; with no ``magic``, the whole file is the
    JSON object. ``remedy`` ends the message for any other version."""
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
            raise ModelFormatError(f"{path}: unsupported {what} version {found}{remedy}")
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
    """Whether the JSON ``value`` can stand for ``kind``: a scalar type, a
    union, ``list[T]``, ``tuple[T, ...]`` (a JSON list for either), or a
    dataclass (any JSON object; `build` checks its fields). bool never
    passes as a number; an int passes as a float if float() can hold it."""
    return _misfit(value, kind, "") is None


def _misfit(value, kind, path: str) -> tuple[str, str] | None:
    """None if the JSON ``value`` `conforms` to ``kind``; else the path of
    the first element at fault, which extends ``path``, and what is wrong
    with it, its value cut to 60 characters. Of a union's members, the one
    that fits deepest names the fault."""
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):
        faults = [_misfit(value, k, path) for k in args]
        return None if None in faults else max(faults, key=lambda fault: len(fault[0]))
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return _first_misfit((f"{path}[{i}]", v, args[0]) for i, v in enumerate(value))
    if origin is None:
        expected = dict if is_dataclass(kind) else (int, float) if kind is float else kind
        if isinstance(value, expected) and (kind is bool or not isinstance(value, bool)):
            if kind is float:
                try:
                    float(value)
                except OverflowError:
                    return path, f"is too large for a float: {value!r:.60}"
            return None
    return path, f"has the wrong type: {value!r:.60}"


def _first_misfit(items) -> tuple[str, str] | None:
    """The first `_misfit` among ``(path, value, kind)`` items, or None."""
    return next(filter(None, (_misfit(value, kind, path) for path, value, kind in items)), None)


def build(cls, block, where: str, prefix: str = ""):
    """Dataclass ``cls`` built from the JSON object ``block``, with each
    dataclass inside it built from its nested object and each JSON list that
    stands for a tuple made one. A non-object block, a key ``cls`` lacks, a
    value that does not `conform` to its field or a value that ``cls``
    refuses raises ConfigError, naming ``where``; a nested object is named
    by its dotted path, which ``prefix`` starts. Omitted keys keep the
    dataclass defaults."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    hints = get_type_hints(cls)
    unknown = set(block) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {}
    for key, hint in hints.items():  # declaration order, so nested blocks build in a fixed order
        if key in block:
            misfit = _misfit(block[key], hint, prefix + key)
            if misfit is not None:  # a nested block's prefix already names it
                message = " ".join(misfit)
                raise ConfigError(message if prefix else f"{where}: {message}")
            kwargs[key] = _convert(block[key], hint, prefix + key)
    try:
        return cls(**kwargs)
    except (DataError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} block: {exc}") from exc


def _convert(value, kind, path: str):
    """``value``, which conforms to ``kind``, with its dataclasses built and
    its tuples made; ``path`` names it in an error."""
    origin, args = get_origin(kind), get_args(kind)
    if is_dataclass(kind):
        return build(kind, value, path, path + ".")
    if origin in (Union, UnionType):
        return _convert(value, next(k for k in args if conforms(value, k)), path)
    if origin in (list, tuple):
        items = [_convert(v, args[0], f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    return value


def field(doc: dict, key: str, kind, where):
    """``doc[key]`` if it `conforms` to ``kind``."""
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not conforms(value, kind):
        raise ModelFormatError(f"{where}: field {key!r} has the wrong type: {value!r:.60}")
    return value

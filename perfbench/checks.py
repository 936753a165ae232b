"""Output checks made from outside the program, on the files it wrote."""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

_ITEMSIZE = {"float32": 4, "float64": 8}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fclz_sections(path: Path) -> dict[str, int]:
    """Byte count of each section of a `.fclz` container.

    Framing: 4-byte magic, u32 version, u32 header length, JSON header,
    latent block of n_rows x latent_dim x itemsize bytes, u64 sidecar length,
    sidecar. `header` counts the magic, both u32 fields and the JSON;
    `sidecar` counts its u64 length prefix. Raises ValueError when the file
    is not framed this way or the sections do not sum to the file size.
    """
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != b"FCLZ":
        raise ValueError(f"{path}: bad magic")
    _version, header_len = struct.unpack_from("<II", blob, 4)
    header = json.loads(blob[12 : 12 + header_len])
    header_bytes = 12 + header_len
    block_bytes = int(header["n_rows"]) * int(header["latent_dim"]) * _ITEMSIZE[header["dtype"]]
    if len(blob) < header_bytes + block_bytes + 8:
        raise ValueError(f"{path}: shorter than its header and latent block")
    (sidecar_len,) = struct.unpack_from("<Q", blob, header_bytes + block_bytes)
    sections = {"header": header_bytes, "block": block_bytes, "sidecar": 8 + sidecar_len}
    if sum(sections.values()) != len(blob):
        raise ValueError(f"{path}: sections {sections} do not sum to {len(blob)} bytes")
    return sections


def _columns(path: Path, names: list[str]) -> list[tuple[str, ...]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(n) for n in names]
        return [tuple(row[i] for i in idx) for row in reader if row]


def same_pass_through(original: Path, reconstructed: Path, names: list[str]) -> bool:
    """True when both CSVs have the same row count and the columns ``names``
    hold the same strings, row by row."""
    return _columns(original, names) == _columns(reconstructed, names)

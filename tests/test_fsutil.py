import os
import struct
import zlib

import numpy as np
import pytest

from flowcodec._fsutil import (
    atomic_write,
    conforms,
    field,
    read_frame,
    read_json,
    undefined_as_none,
    write_json,
    write_table,
)
from flowcodec.autoencoder import encode, load_model, save_model, train
from flowcodec.errors import FlowcodecError, ModelFormatError
from flowcodec.flow_data import Dataset, FeatureSchema
from flowcodec.latent import read_latent, write_latent
from flowcodec.neural import TrainConfig
from flowcodec.preprocess import PreprocessorState, fit


def test_failed_write_keeps_old_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"old contents\x00\xff")
    for mode in ("w", "wb"):
        with pytest.raises(RuntimeError):
            with atomic_write(target, mode) as fh:
                fh.write("partial" if mode == "w" else b"partial")
                raise RuntimeError("writer failed")
        assert target.read_bytes() == b"old contents\x00\xff"
        assert list(tmp_path.glob("*.tmp")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]


def test_write_table_cells(tmp_path):
    # A float as its shortest round-trip repr (17 digits here), an int as
    # is, None and NaN as an empty cell, and a comma quoted.
    path = tmp_path / "table.csv"
    row = [0.1 + 0.2, 7, None, "a,b", *undefined_as_none(np.array([np.nan, 2.5]))]
    write_table(path, ["float", "int", "none", "text", "nan", "half"], [row])
    assert path.read_bytes() == b'float,int,none,text,nan,half\r\n0.30000000000000004,7,,"a,b",,2.5\r\n'
    assert undefined_as_none(np.array([[1.0, np.nan], [np.nan, 3.0]])) == [[1.0, None], [None, 3.0]]


def test_failed_write_creates_no_new_target(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "new.csv") as fh:
            fh.write("a,b\n")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_successful_write_replaces_target(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("stale")
    write_json(target, {"b": 1, "a": [1.5]}, indent=2, sort_keys=True)
    assert target.read_text() == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
    with atomic_write(target) as fh:
        fh.write("x\r\ny\n")
    # Text mode writes newlines untranslated, as csv.writer expects.
    assert target.read_bytes() == b"x\r\ny\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_new_file_gets_umask_default_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        target = tmp_path / f"m{umask:o}.bin"
        with atomic_write(target, "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


def frame(magic, version, header: bytes, payload=b""):
    return magic + struct.pack("<II", version, len(header)) + header + payload


def test_read_frame_returns_header_and_payload_offset(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(frame(b"TEST", 3, b'{"n": 2}', b"PAYLOAD"))
    header, blob, offset = read_frame(path, "test file", b"TEST", 3)
    assert header == {"n": 2}
    assert blob[offset:] == b"PAYLOAD"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"", "not a test file"),
        (b"TES", "not a test file"),
        (frame(b"NOPE", 3, b"{}"), "not a test file"),
        (frame(b"TEST", 4, b"{}"), "version 4"),
        (frame(b"TEST", 3, b"{}")[:-1], "truncated"),
        (frame(b"TEST", 3, b"\xff\xfe{}"), "malformed"),
        (frame(b"TEST", 3, b"{oops"), "malformed"),
        (frame(b"TEST", 3, b"[1]"), "not a JSON object"),
        (frame(b"TEST", 3, b'"text"'), "not a JSON object"),
    ],
)
def test_read_frame_rejects(tmp_path, content, message):
    path = tmp_path / "x.bin"
    path.write_bytes(content)
    with pytest.raises(ModelFormatError, match=message):
        read_frame(path, "test file", b"TEST", 3)


def test_read_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": 1}')
    assert read_json(path, "doc") == {"a": 1}
    for text in ("[1]", "{bad", "null"):
        path.write_text(text)
        with pytest.raises(ModelFormatError):
            read_json(path, "doc")
    with pytest.raises(ModelFormatError, match="cannot read"):
        read_json(tmp_path / "missing.json", "doc")


def test_conforms():
    assert conforms(3, int) and not conforms(True, int) and not conforms(3.0, int)
    assert conforms(3, float) and conforms(0.5, float) and not conforms(False, float)
    assert conforms(True, bool) and not conforms(1, bool)
    assert conforms(["a"], list[str]) and not conforms(["a", 1], list[str])
    assert conforms([1, 2], tuple[int, ...]) and not conforms(5, tuple[int, ...])
    assert conforms(None, int | None) and conforms("sqrt", str | int)
    assert not conforms(True, str | int)
    assert conforms([{}], list[FeatureSchema] | None) and not conforms([[]], list[FeatureSchema] | None)
    # An int passes as a float only if float() can hold it.
    assert conforms(2**1023, float) and conforms(10**400, int)
    assert not conforms(10**400, float) and not conforms([-(10**400), 1], list[float])


def test_field():
    doc = {"n": 3, "names": ["a"], "xs": [1, 2.5], "ids": [[1, 2]], "flag": True}
    assert field(doc, "n", int, "doc") == 3
    assert field(doc, "names", list[str], "doc") == ["a"]
    assert field(doc, "xs", list[float], "doc") == [1, 2.5]
    assert field({"e": []}, "e", list[float], "doc") == []

    with pytest.raises(ModelFormatError, match="missing field 'absent'"):
        field(doc, "absent", int, "doc")
    for key, kind in (
        ("flag", int),
        ("n", str),
        ("names", list[float]),
        ("ids", list[float]),
        ("n", list[float]),
    ):
        with pytest.raises(ModelFormatError, match=f"field '{key}' has the wrong type"):
            field(doc, key, kind, "doc")
    for value in ([[1, 2], [3]], [True, False], [1, None], ["1.5"], [10**400]):
        with pytest.raises(ModelFormatError, match="field 'v' has the wrong type"):
            field({"v": value}, "v", list[float], "doc")


def _artifacts(tmp_path):
    """One small artifact of each kind, with a loader that also uses it."""
    rng = np.random.default_rng(0)
    x = rng.lognormal(size=(40, 21))
    state = fit(x)
    model, _ = train(x[:32], x[32:], TrainConfig(max_epochs=1, batch_size=16),
                     preprocessor_fingerprint=state.fingerprint(), hidden=(8,), latent=4)
    paths = {k: tmp_path / f"good.{k}" for k in ("fcae", "json", "fclz")}
    save_model(model, paths["fcae"])
    state.save(paths["json"])
    schema = FeatureSchema(("ip",), state.feature_names, "label")
    flows = Dataset(schema, x, {"ip": [f"10.0.0.{i}" for i in range(40)]}, ["a"] * 40)
    write_latent(paths["fclz"], encode(model, x), flows, state.fingerprint())

    return [
        (paths["fcae"], lambda p: encode(load_model(p), x[:3])),
        (paths["json"], PreprocessorState.load),
        (paths["fclz"], read_latent),
    ]


def test_truncated_and_bit_flipped_artifacts_raise_typed_errors(tmp_path):
    """Fuzz each artifact kind: every truncation or single-bit flip either
    loads and works, or raises a FlowcodecError; nothing else escapes.
    Half the flips land in the first KiB, where the headers are. Each kind
    draws from its own generator, seeded from its file suffix, so adding or
    removing a kind leaves the variants of the others as they are."""
    bad = tmp_path / "bad"
    for good, use in _artifacts(tmp_path):
        rng = np.random.default_rng(zlib.crc32(good.suffix.encode()))
        use(good)
        blob = bytearray(good.read_bytes())
        cuts = rng.integers(0, len(blob), size=60)
        flips = np.concatenate([
            rng.integers(0, len(blob) * 8, size=150),
            rng.integers(0, min(len(blob), 1024) * 8, size=150),
        ])
        variants = [bytes(blob[:c]) for c in cuts]
        for bit in flips:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        for variant in variants:
            bad.write_bytes(variant)
            try:
                with np.errstate(all="ignore"):  # flipped weights may overflow
                    use(bad)
            except FlowcodecError:
                pass

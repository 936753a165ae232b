import csv
import json
import struct
import zlib

import numpy as np
import pytest

from flowcodec import cli
from flowcodec.errors import DataError, ModelFormatError
from flowcodec.flow_data import Dataset, FeatureSchema
from flowcodec.latent import LATENT_MAGIC, read_latent, write_latent

ID_COLS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
FEATURES = tuple(f"f{j}" for j in range(21))
SCHEMA = FeatureSchema(ID_COLS, FEATURES, "label")


def sample_rows(n=7, dim=4):
    rng = np.random.default_rng(3)
    latent = rng.normal(size=(n, dim))
    identities = {
        "src_ip": [f"10.0.0.{i}" for i in range(n)],
        "dst_ip": [f"192.168.1.{i}" for i in range(n)],
        "src_port": [str(1000 + i) for i in range(n)],
        "dst_port": ["443"] * n,
        "protocol": ["6"] * n,
    }
    labels = [("video" if i % 2 else "web") for i in range(n)]
    return latent, identities, labels


def write_sample(path, latent, dataset, **kwargs):
    kwargs.setdefault("preprocessor_fingerprint", "a" * 64)
    write_latent(path, latent, dataset, **kwargs)


def sample_dataset(identities, labels, schema=SCHEMA):
    n = len(labels) if labels is not None else len(next(iter(identities.values())))
    return Dataset(schema, np.zeros((n, len(FEATURES))), identities, labels)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_round_trip(tmp_path, dtype):
    latent, identities, labels = sample_rows()
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels), dtype=dtype)
    loaded = read_latent(path)
    assert loaded.latent.dtype == np.dtype(dtype)
    assert np.array_equal(loaded.latent, latent.astype(dtype))
    assert loaded.identities == identities
    assert list(loaded.identities) == list(ID_COLS)
    assert loaded.labels == labels
    assert loaded.schema == SCHEMA
    assert loaded.preprocessor_fingerprint == "a" * 64
    assert loaded.forced is False
    assert loaded.n_rows == 7 and loaded.latent_dim == 4


def test_round_trip_unlabeled_and_forced(tmp_path):
    latent, identities, _ = sample_rows(n=3)
    path = tmp_path / "flows.fclz"
    unlabeled = FeatureSchema(ID_COLS, FEATURES, None)
    write_sample(path, latent, sample_dataset(identities, None, unlabeled), forced=True)
    loaded = read_latent(path)
    assert loaded.labels is None
    assert loaded.schema == unlabeled
    assert loaded.identities == identities
    assert loaded.forced is True


def test_round_trip_without_identities_or_labels(tmp_path):
    # The sidecar holds zero streams.
    latent, _, _ = sample_rows(n=4)
    bare = FeatureSchema((), FEATURES, None)
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, Dataset(bare, np.zeros((4, 21)), {}, None))
    loaded = read_latent(path)
    assert loaded.schema == bare
    assert loaded.identities == {} and loaded.labels is None
    assert np.array_equal(loaded.latent, latent.astype(np.float32))


def test_identity_strings_survive_verbatim(tmp_path):
    # Identity fields are carried as text, never parsed as numbers.
    latent, identities, labels = sample_rows(n=3)
    awkward = {"src_ip": "::1", "dst_ip": "fe80::2", "src_port": "007",
               "dst_port": "00443", "protocol": "tcp,udp"}
    for col, cell in awkward.items():
        identities[col][0] = cell
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels))
    loaded = read_latent(path)
    assert {col: cells[0] for col, cells in loaded.identities.items()} == awkward

    # Line breaks of every kind, a bare "\r" among them.
    for cell in ("a\rb", "\r", "a\r\nb", "a\nb"):
        identities["src_ip"][1] = cell
        labels[2] = cell
        write_sample(path, latent, sample_dataset(identities, labels))
        loaded = read_latent(path)
        assert loaded.identities == identities
        assert loaded.labels == labels


def test_write_is_deterministic(tmp_path):
    latent, identities, labels = sample_rows()
    ds = sample_dataset(identities, labels)
    write_sample(tmp_path / "a.fclz", latent, ds)
    write_sample(tmp_path / "b.fclz", latent, ds)
    assert (tmp_path / "a.fclz").read_bytes() == (tmp_path / "b.fclz").read_bytes()


def test_write_validation(tmp_path):
    latent, identities, labels = sample_rows()
    ds = sample_dataset(identities, labels)
    target = tmp_path / "x.fclz"
    with pytest.raises(DataError):
        Dataset(SCHEMA, np.zeros((7, 21)), {**identities, "protocol": identities["protocol"][:-1]}, labels)
    with pytest.raises(DataError):
        Dataset(SCHEMA, np.zeros((7, 21)), identities, labels[:-1])
    with pytest.raises(DataError):
        write_sample(target, latent, ds, dtype="int32")
    with pytest.raises(DataError):
        write_sample(target, latent.ravel(), ds)
    with pytest.raises(DataError):
        write_sample(target, latent[:-1], ds)
    assert not target.exists()


def test_read_rejects_corruption(tmp_path, reheader):
    latent, identities, labels = sample_rows()
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels))
    raw = path.read_bytes()

    bad = tmp_path / "bad.fclz"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ModelFormatError):
        read_latent(bad)

    wrong_version = raw[: len(LATENT_MAGIC)] + struct.pack("<I", 99) + raw[len(LATENT_MAGIC) + 4 :]
    bad.write_bytes(wrong_version)
    with pytest.raises(ModelFormatError, match="version"):
        read_latent(bad)

    bad.write_bytes(raw[:-1])
    with pytest.raises(ModelFormatError):
        read_latent(bad)

    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ModelFormatError, match="length"):
        read_latent(bad)

    bad.write_bytes(raw[:6])
    with pytest.raises(ModelFormatError):
        read_latent(bad)

    with pytest.raises(ModelFormatError):
        read_latent(tmp_path / "does_not_exist.fclz")

    def without(key):
        return lambda h: {k: v for k, v in h.items() if k != key}

    for mutate in (
        without("n_rows"),
        without("identity_columns"),
        lambda h: {**h, "n_rows": -1},
        lambda h: {**h, "latent_dim": 0},
        lambda h: {**h, "n_rows": "7"},
        lambda h: {**h, "feature_names": [1, 2]},
        lambda h: {**h, "labeled": "yes"},
        lambda h: [h],
    ):
        bad.write_bytes(reheader(raw, mutate))
        with pytest.raises(ModelFormatError):
            read_latent(bad)

    # Header names that no FeatureSchema accepts.
    for mutate, reason in (
        (lambda h: {**h, "identity_columns": ["src_ip", "src_ip"]}, "more than once"),
        (lambda h: {**h, "feature_names": h["feature_names"][:20]}, "exactly 21"),
        (lambda h: {**h, "label_column": "src_ip"}, "more than once"),
        (lambda h: {**h, "label_column": ""}, "no label column"),
    ):
        bad.write_bytes(reheader(raw, mutate))
        with pytest.raises(ModelFormatError, match=reason):
            read_latent(bad)

    bad.write_bytes(raw[:8] + struct.pack("<I", 10**6) + raw[12:])
    with pytest.raises(ModelFormatError, match="truncated"):
        read_latent(bad)


def test_round_trip_multibyte_utf8(tmp_path):
    # Non-ASCII cells take the per-cell decode; their lengths count bytes.
    latent, identities, labels = sample_rows(n=4)
    identities["src_ip"][1:3] = ["café", "\U0001F98A"]
    labels[0], labels[3] = "\U0001F98A-stream", "café"
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels))
    loaded = read_latent(path)
    assert loaded.identities == identities
    assert loaded.labels == labels


def test_golden_bytes_of_a_three_row_container(tmp_path):
    # One stream of each kind: IPv4, integers, differences from the nearest
    # earlier integer column, and text (an IPv6 address and an empty cell
    # keep dst_ip in text; the label is text).
    ids = ("src_ip", "dst_port", "first_seen", "last_seen", "dst_ip")
    schema = FeatureSchema(ids, FEATURES, "label")
    latent = np.array([[0.5, -1.0], [2.0, 0.25], [-0.125, 3.0]])
    identities = {
        "src_ip": ["10.0.0.1", "10.0.1.2", "10.0.0.3"],
        "dst_port": ["443", "53", "8080"],
        "first_seen": ["1700000000000", "1700000000250", "1700000000100"],
        "last_seen": ["1700000000040", "1700000000250", "1700000000130"],
        "dst_ip": ["::1", "10.0.0.1", ""],
    }
    dataset = Dataset(schema, np.zeros((3, 21)), identities, ["web", "café", "dns"])
    path = tmp_path / "flows.fclz"
    sections = write_latent(path, latent, dataset, "f" * 64)

    header = (
        '{"dtype":"float32","feature_names":[' + ",".join(f'"f{j}"' for j in range(21))
        + '],"forced":false,"identity_columns":["src_ip","dst_port","first_seen","last_seen","dst_ip"],'
        '"label_column":"label","labeled":true,"latent_dim":2,"n_rows":3,'
        '"preprocessor_fingerprint":"' + "f" * 64 + '"}'
    ).encode()
    block = struct.pack("<6f", 0.5, -1.0, 2.0, 0.25, -0.125, 3.0)
    streams = [
        # IPv4, u16 offsets 0, 257, 2 from 10.0.0.1: low bytes, then high.
        (b"\x03\x02" + struct.pack("<q", 0x0A000001), b"\x00\x01\x02" b"\x00\x01\x00"),
        # Integers, u16 offsets 390, 0, 8027 from 53.
        (b"\x01\x02" + struct.pack("<q", 53), b"\x86\x00\x5b" b"\x01\x00\x1f"),
        # Differences from dst_port would need 41 bits; offsets need 8.
        (b"\x01\x01" + struct.pack("<q", 1700000000000), b"\x00\xfa\x64"),
        # Differences from first_seen (40, 0, 30) are below last_seen's range (210).
        (b"\x02\x01", b"\x28\x00\x1e"),
        (b"\x00", b"\x03\0\0\0\x08\0\0\0\x00\0\0\0" b"::110.0.0.1"),
        (b"\x00", b"\x03\0\0\0\x05\0\0\0\x03\0\0\0" b"webcaf\xc3\xa9dns"),
    ]
    # Each stream's inflated bytes are spelled out; its deflated bytes are
    # whatever this zlib build writes at the container's level, 1.
    sidecar = b"".join(
        fields + struct.pack("<QQ", len(raw), len(packed)) + packed
        for fields, raw, packed in ((f, raw, zlib.compress(raw, 1)) for f, raw in streams)
    )
    expected = (b"FCLZ" + struct.pack("<II", 3, len(header)) + header + block
                + struct.pack("<Q", len(sidecar)) + sidecar)
    assert path.read_bytes() == expected
    assert sections == {"header": 12 + len(header), "block": 24, "sidecar": 8 + len(sidecar)}
    loaded = read_latent(path)
    assert loaded.identities == identities and loaded.labels == ["web", "café", "dns"]


def test_read_refuses_format_version_1(tmp_path):
    latent, identities, labels = sample_rows(n=3)
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(ModelFormatError, match=r"version 1.*flowcodec compress"):
        read_latent(path)


def test_read_refuses_format_version_2(tmp_path):
    # Version 2 held text streams only; the message is version 1's.
    latent, identities, labels = sample_rows(n=3)
    path = tmp_path / "flows.fclz"
    write_sample(path, latent, sample_dataset(identities, labels))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
    with pytest.raises(ModelFormatError, match=r"version 2 \(this build reads 3\); re-run `flowcodec compress`"):
        read_latent(path)


def _stream(raw, raw_len=None, packed=None, packed_len=None, fields=b"\0"):
    """A sidecar stream: its kind and fields (text by default), lengths and
    deflated bytes."""
    packed = zlib.compress(raw) if packed is None else packed
    return fields + struct.pack("<QQ", len(raw) if raw_len is None else raw_len,
                                len(packed) if packed_len is None else packed_len) + packed


def _cells(*sizes):
    return struct.pack(f"<{len(sizes)}I", *sizes)


GOOD_RAW = _cells(1, 2, 3) + b"abbccc"


@pytest.mark.parametrize("sidecar, reason", [
    (_stream(GOOD_RAW, raw_len=len(GOOD_RAW) + 1), "inflate"),
    (_stream(GOOD_RAW, raw_len=len(GOOD_RAW) - 1), "inflate"),
    (_stream(GOOD_RAW, packed=zlib.compress(GOOD_RAW) + b"x"), "inflate"),
    (_stream(GOOD_RAW, packed=zlib.compress(GOOD_RAW)[:-1]), "inflate"),
    (_stream(GOOD_RAW, packed=b"not a zlib stream"), "Error"),
    (_stream(_cells(1, 2, 4) + b"abbccc"), "do not sum"),
    (_stream(_cells(1, 2, 2) + b"abbccc"), "do not sum"),
    (_stream(_cells(1, 1, 1) + b"a\xffb"), "UTF-8"),
    (_stream(_cells(1, 1, 1) + "aé".encode()), "UTF-8"),  # a cell ends inside "é"
    (_stream(GOOD_RAW) + b"\0", "trailing"),
    (_stream(GOOD_RAW, packed_len=len(zlib.compress(GOOD_RAW)) + 1), "past the end"),
    (_stream(GOOD_RAW)[:10], "truncated"),
    (_stream(b"\x01\0\0\0"), "raw length"),
    (b"", "truncated"),
], ids=["short", "long", "unused-data", "cut-stream", "not-zlib", "sum-over", "sum-under",
        "bad-utf8", "split-char", "trailing", "packed-past-end", "cut-lengths", "few-cells",
        "no-stream"])
def test_read_rejects_bad_sidecars(tmp_path, sidecar, reason):
    # One identity column, no label: the sidecar is one stream of 3 cells.
    schema = FeatureSchema(("src_ip",), FEATURES, None)
    path = tmp_path / "flows.fclz"
    dataset = Dataset(schema, np.zeros((3, 21)), {"src_ip": ["a", "bb", "ccc"]}, None)
    write_sample(path, np.ones((3, 2)), dataset)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    prefix = raw[: 12 + header_len + 3 * 2 * 4]
    good = _stream(GOOD_RAW, packed=zlib.compress(GOOD_RAW, 1))
    assert raw == prefix + struct.pack("<Q", len(good)) + good
    path.write_bytes(prefix + struct.pack("<Q", len(sidecar)) + sidecar)
    with pytest.raises(ModelFormatError, match=reason):
        read_latent(path)


def test_write_refuses_values_that_overflow_the_stored_dtype(tmp_path):
    latent, identities, labels = sample_rows(n=3)
    ds = sample_dataset(identities, labels)
    target = tmp_path / "x.fclz"
    for value in (-1e300, np.nan):
        latent[1, 2] = value
        with pytest.raises(DataError, match="not finite as float32"):
            write_sample(target, latent, ds)
        assert not target.exists()
    with pytest.raises(DataError, match="not finite as float64"):
        write_sample(target, latent, ds, dtype="float64")
    latent[1, 2] = -1e300
    write_sample(target, latent, ds, dtype="float64")
    assert read_latent(target).latent[1, 2] == -1e300


def sidecar_offset(raw):
    """Offset of the u64 sidecar length in the container bytes ``raw``."""
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len])
    itemsize = np.dtype(header["dtype"]).itemsize
    return 12 + header_len + header["n_rows"] * header["latent_dim"] * itemsize


def replace_sidecar(path, sidecar):
    raw = path.read_bytes()
    at = sidecar_offset(raw)
    path.write_bytes(raw[:at] + struct.pack("<Q", len(sidecar)) + sidecar)


def stream_kinds(path):
    """The kind tag of each sidecar stream of the container at ``path``:
    0 text, 1 integers, 2 integer differences, 3 IPv4."""
    raw = path.read_bytes()
    pos = sidecar_offset(raw) + 8
    kinds = []
    while pos < len(raw):
        kinds.append(raw[pos])
        pos += {0: 1, 1: 10, 2: 2, 3: 10}[raw[pos]]
        (packed_len,) = struct.unpack_from("<Q", raw, pos + 8)
        pos += 16 + packed_len
    assert pos == len(raw)
    return kinds


def write_columns(path, columns):
    """Write a container whose identity columns are ``columns`` (name to
    cells), unlabeled, and return it read back."""
    schema = FeatureSchema(tuple(columns), FEATURES, None)
    n = len(next(iter(columns.values())))
    write_sample(path, np.ones((n, 2)), Dataset(schema, np.zeros((n, 21)), dict(columns), None))
    return read_latent(path)


TYPED = {
    "ports": (["443", "0", "65535", "8"], 1),
    "negative": (["-5", "17", "-9000000000", "0"], 1),
    "int64 ends": (["9223372036854775807", "-9223372036854775808", "1000000000000000000", "1"], 1),
    "quads": (["0.0.0.0", "255.255.255.255", "10.0.0.1", "192.168.100.9"], 3),
}
FALLBACK = {
    "leading zero": "010",
    "plus sign": "+5",
    "minus zero": "-0",
    "past int64": "9223372036854775808",
    "below int64": "-9223372036854775809",
    "twenty digits": "10000000000000000000",
    "octet leading zero": "1.2.3.04",
    "octet past 255": "1.2.3.256",
    "ipv6": "::1",
    "empty": "",
    "space": " 5",
    "comma": "5,6",
    "decimal": "5.0",
    "newline": "5\n",
    "arabic-indic digit": "٥",
}


@pytest.mark.parametrize("name", list(TYPED))
def test_typed_columns_round_trip(tmp_path, name):
    cells, kind = TYPED[name]
    path = tmp_path / "flows.fclz"
    assert write_columns(path, {"c": cells}).identities == {"c": cells}
    assert stream_kinds(path) == [kind]


@pytest.mark.parametrize("name", list(FALLBACK))
def test_one_odd_cell_keeps_its_column_in_text(tmp_path, name):
    path = tmp_path / "flows.fclz"
    for cells, _ in TYPED.values():
        odd = cells[:2] + [FALLBACK[name]] + cells[2:]
        assert write_columns(path, {"c": odd}).identities == {"c": odd}
        assert stream_kinds(path) == [0]


def _canonical_int(cell):
    try:
        value = int(cell)
    except ValueError:
        return None
    return value if str(value) == cell and -(2**63) <= value < 2**63 else None


def _canonical_quad(cell):
    octets = [_canonical_int(part) for part in cell.split(".")]
    return len(octets) == 4 and all(o is not None and 0 <= o <= 255 for o in octets)


def test_column_kinds_agree_with_a_per_cell_reference(tmp_path):
    # Seeded random columns of near-integers and near-quads: a column is
    # typed exactly when str(int(cell)) == cell (within int64) or every cell
    # is a canonical dotted quad, and every cell reads back as written.
    rng = np.random.default_rng(17)
    noise = list("0123456789.,-+ ") + ["\n", "٣", "00", "256", "9223372036854775808"]
    path = tmp_path / "flows.fclz"
    seen = set()
    for _ in range(400):
        cells = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                cell = ".".join(str(o) for o in rng.integers(0, 300, 4).tolist())
            else:
                cell = str(int(rng.integers(-(2**63), 2**63 - 1) >> int(rng.integers(0, 64))))
            if rng.random() < 0.2:
                at = int(rng.integers(0, len(cell) + 1))
                cell = cell[:at] + str(rng.choice(noise)) + cell[at:]
            cells.append(cell)
        if all(_canonical_int(c) is not None for c in cells):
            kind = 1
        elif all(map(_canonical_quad, cells)):
            kind = 3
        else:
            kind = 0
        assert write_columns(path, {"c": cells}).identities == {"c": cells}
        assert stream_kinds(path) == [kind], cells
        seen.add(kind)
    assert seen == {0, 1, 3}


def test_differences_follow_the_nearest_earlier_integer_column(tmp_path):
    first = ["1700000000000", "1700000090000", "1700000000500"]
    columns = {
        "first": first,
        "ip": ["10.0.0.1", "10.0.0.2", "10.0.0.3"],  # IPv4 is no integer column
        "last": ["1700000000010", "1700000090000", "1700000000600"],
        "same": ["1700000000010", "1700000090000", "1700000000600"],  # differences all 0
        "port": ["443", "80", "53"],  # below "same": offsets from its minimum
        "below": ["1700000000009", "1700000090000", "1700000000600"],  # one below "first"
    }
    path = tmp_path / "flows.fclz"
    assert write_columns(path, columns).identities == columns
    assert stream_kinds(path) == [1, 3, 2, 2, 1, 1]

    # Differences that wrap around 2**64 are small but not >= 0.
    wrapping = {"high": ["9223372036854775807", "0"], "low": ["-9223372036854775808", "1000"]}
    assert write_columns(path, wrapping).identities == wrapping
    assert stream_kinds(path) == [1, 1]


def test_zero_row_dataset_round_trips(tmp_path):
    path = tmp_path / "flows.fclz"
    dataset = Dataset(SCHEMA, np.zeros((0, 21)), {c: [] for c in ID_COLS}, [])
    sections = write_latent(path, np.zeros((0, 16)), dataset, "a" * 64)
    assert sections["block"] == 0
    loaded = read_latent(path)
    assert loaded.latent.shape == (0, 16)
    assert loaded.identities == {c: [] for c in ID_COLS} and loaded.labels == []
    assert stream_kinds(path) == [0] * 6

    # Typed streams of no rows, as another writer might emit them, read too.
    replace_sidecar(path, b"".join(_ints_stream([], kind=k) for k in (3, 3, 1, 2, 1)) + _stream(b""))
    loaded = read_latent(path)
    assert loaded.identities == {c: [] for c in ID_COLS} and loaded.labels == []


def _ints_stream(values, width=1, base=0, kind=1, raw=None):
    fields = bytes([kind, width]) + (struct.pack("<q", base) if kind != 2 else b"")
    if raw is None:
        raw = np.asarray(values, dtype=f"<u{width}").view(np.uint8).reshape(-1, width).T.tobytes()
    return _stream(raw, packed=zlib.compress(raw, 1), fields=fields)


@pytest.mark.parametrize("streams, reason", [
    ([_ints_stream([0, 1, 2], raw=b"\0\1")], "inflated length 2 is not 3 rows x 1 bytes"),
    ([_ints_stream([0, 1, 2], width=2, raw=b"\0\1\2")], "inflated length 3 is not 3 rows x 2 bytes"),
    ([_ints_stream([0, 1, 2], base=2**63 - 2)], "overflows int64"),
    ([_ints_stream([0, 2**64 - 1, 0], width=8, base=1)], "overflows int64"),
    ([_ints_stream([0, 2**63, 0], width=8, base=0)], "overflows int64"),
    ([_ints_stream([0, 1, 2], base=2**63 - 3), _ints_stream([0, 1, 1], kind=2)], "'c1' stream: a value overflows"),
    ([_ints_stream([0, 1, 2], kind=2)], "no earlier integer stream"),
    ([_ints_stream([0, 1, 2], kind=3, base=-1)], "not an IPv4 address"),
    ([_ints_stream([0, 1, 2], kind=3, base=2**32 - 2)], "not an IPv4 address"),
    ([_ints_stream([0, 1, 2], width=3, raw=bytes(9))], "unknown value width 3"),
    ([b"\x04" + _ints_stream([0, 1, 2])[1:]], "unknown stream kind 4"),
    ([b"\xff" + GOOD_RAW], "unknown stream kind 255"),
    ([_ints_stream([0, 1, 2])[:5]], "truncated"),
    ([b"\x02"], "truncated"),
], ids=["short-ints", "short-u16", "base-overflow", "u64-overflow", "offset-past-int64",
        "diff-overflow", "diff-first", "ipv4-negative", "ipv4-past-u32", "width-3", "kind-4",
        "kind-255", "cut-base", "cut-width"])
def test_read_rejects_bad_typed_streams(tmp_path, streams, reason):
    # Three rows; the sidecar is rebuilt from ``streams``, one per column.
    path = tmp_path / "flows.fclz"
    columns = {f"c{i}": ["0", "1", "2"] for i in range(len(streams))}
    write_columns(path, columns)
    replace_sidecar(path, b"".join(streams))
    with pytest.raises(ModelFormatError, match=reason):
        read_latent(path)


def test_typed_stream_edges_read_back(tmp_path):
    # The largest offsets that still fit: int64's ends, and 255.255.255.255.
    path = tmp_path / "flows.fclz"
    write_columns(path, {"a": ["0", "1", "2"], "b": ["0", "1", "2"]})
    replace_sidecar(path, _ints_stream([0, 2**64 - 1, 1], width=8, base=-(2**63))
                    + _ints_stream([0, 0, 2**32 - 1], width=4, kind=3))
    loaded = read_latent(path)
    assert loaded.identities == {
        "a": ["-9223372036854775808", "9223372036854775807", "-9223372036854775807"],
        "b": ["0.0.0.0", "0.0.0.0", "255.255.255.255"],
    }


def mutations(raw, start, rng, n_flips=300, n_cuts=60):
    """Seeded single-byte flips (most inside raw[start:]) and truncations of
    the bytes ``raw``."""
    for _ in range(n_flips):
        pos = int(rng.integers(start if rng.random() < 0.9 else 0, len(raw)))
        yield raw[:pos] + bytes([raw[pos] ^ int(rng.integers(1, 256))]) + raw[pos + 1 :]
    for _ in range(n_cuts):
        yield raw[: int(rng.integers(0, len(raw)))]


def small_mixed_container(path, n=40):
    """A labeled container whose sidecar holds a stream of every kind."""
    rng = np.random.default_rng(11)
    first = 1_700_000_000_000 + rng.integers(0, 10**6, n)
    columns = {
        "src_ip": [f"10.0.{a}.{b}" for a, b in rng.integers(0, 256, (n, 2)).tolist()],
        "dst_ip": ["::1"] + [f"192.168.0.{b}" for b in rng.integers(0, 256, n - 1).tolist()],
        "src_port": [str(p) for p in rng.integers(1024, 65536, n).tolist()],
        "first_seen": [str(t) for t in first.tolist()],
        "last_seen": [str(t) for t in (first + rng.integers(0, 5000, n)).tolist()],
    }
    labels = [str(c) for c in rng.choice(["web", "dns", "video"], n).tolist()]
    schema = FeatureSchema(tuple(columns), FEATURES, "label")
    write_sample(path, rng.normal(size=(n, 3)), Dataset(schema, np.zeros((n, 21)), columns, labels))
    assert stream_kinds(path) == [3, 0, 1, 1, 2, 0]
    return columns, labels


def test_mutated_containers_read_back_or_raise_model_format_error(tmp_path):
    path = tmp_path / "flows.fclz"
    small_mixed_container(path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.fclz"
    outcomes = {"read": 0, "refused": 0}
    for mutated in mutations(raw, sidecar_offset(raw), np.random.default_rng(2024)):
        bad.write_bytes(mutated)
        try:
            loaded = read_latent(bad)
        except ModelFormatError:
            outcomes["refused"] += 1
            continue
        outcomes["read"] += 1
        assert all(len(cells) == loaded.n_rows for cells in loaded.identities.values())
    assert outcomes["read"] and outcomes["refused"]


def test_decompress_of_mutated_containers_exits_0_or_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hidden": [8], "latent_dim": 3, "train": {"max_epochs": 2},
                                  "synth": {"n_per_class": 8}}))
    flows = tmp_path / "flows.csv"
    assert cli.main(["synth", "--config", str(config), "--output", str(flows)]) == 0
    assert cli.main(["train", "--config", str(config), "--input", str(flows),
                     "--output-dir", str(tmp_path / "model")]) == 0
    # Odd cells keep two identity columns in text streams.
    with open(flows, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("dst_ip")] = "fe80::1"
    rows[2][rows[0].index("src_port")] = "007"
    with open(flows, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    model = ["--model", str(tmp_path / "model" / "autoencoder.fcae"),
             "--preprocessor", str(tmp_path / "model" / "preprocessor.json")]
    path = tmp_path / "flows.fclz"
    assert cli.main(["compress", *model, "--input", str(flows), "--output", str(path)]) == 0
    assert stream_kinds(path) == [3, 0, 0, 1, 1, 1, 2, 0]
    raw = path.read_bytes()
    bad, recon = tmp_path / "bad.fclz", str(tmp_path / "recon.csv")
    codes = {0: 0, 2: 0}
    for mutated in mutations(raw, sidecar_offset(raw), np.random.default_rng(7)):
        bad.write_bytes(mutated)
        code = cli.main(["decompress", *model, "--input", str(bad), "--output", recon])
        assert code in codes
        codes[code] += 1
    assert codes[0] and codes[2]
    capsys.readouterr()

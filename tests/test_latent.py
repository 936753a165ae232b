import struct
import zlib

import numpy as np
import pytest

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
    schema = FeatureSchema(("src_ip", "dst_port"), FEATURES, "label")
    latent = np.array([[0.5, -1.0], [2.0, 0.25], [-0.125, 3.0]])
    identities = {"src_ip": ["10.0.0.1", "10.0.0.2", "::1"], "dst_port": ["443", "53", ""]}
    dataset = Dataset(schema, np.zeros((3, 21)), identities, ["web", "café", "dns"])
    path = tmp_path / "flows.fclz"
    sections = write_latent(path, latent, dataset, "f" * 64)

    header = (
        '{"dtype":"float32","feature_names":[' + ",".join(f'"f{j}"' for j in range(21))
        + '],"forced":false,"identity_columns":["src_ip","dst_port"],"label_column":"label",'
        '"labeled":true,"latent_dim":2,"n_rows":3,"preprocessor_fingerprint":"' + "f" * 64 + '"}'
    ).encode()
    block = struct.pack("<6f", 0.5, -1.0, 2.0, 0.25, -0.125, 3.0)
    raws = [
        b"\x08\0\0\0\x08\0\0\0\x03\0\0\0" b"10.0.0.110.0.0.2::1",
        b"\x03\0\0\0\x02\0\0\0\x00\0\0\0" b"44353",
        b"\x03\0\0\0\x05\0\0\0\x03\0\0\0" b"webcaf\xc3\xa9dns",
    ]
    # Each stream's inflated bytes are spelled out; its deflated bytes are
    # whatever this zlib build writes at the container's level, 1.
    streams = b"".join(
        struct.pack("<QQ", len(raw), len(packed)) + packed
        for raw, packed in ((raw, zlib.compress(raw, 1)) for raw in raws)
    )
    expected = (b"FCLZ" + struct.pack("<II", 2, len(header)) + header + block
                + struct.pack("<Q", len(streams)) + streams)
    assert path.read_bytes() == expected
    assert sections == {"header": 12 + len(header), "block": 24, "sidecar": 8 + len(streams)}
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


def _stream(raw, raw_len=None, packed=None, packed_len=None):
    packed = zlib.compress(raw) if packed is None else packed
    return struct.pack("<QQ", len(raw) if raw_len is None else raw_len,
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

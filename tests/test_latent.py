import struct

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
    # The sidecar still holds one (empty) line per latent row.
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

    # Line breaks of every kind, a bare "\r" above all, which the csv
    # writer leaves unquoted unless told otherwise.
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

"""Seeded mutation fuzz of the command line, through `cli.main`.

Malformed flow CSVs go through compress, evaluate --model and compare, and
malformed configs through synth and train. Every run must end in a
documented exit code, with an ``error:`` line when it fails, and never in an
exception that escapes `main`. Each kind draws from its own generator,
seeded from its name, so adding or removing a kind leaves the variants of
the others as they are.
"""

import copy
import json
import zlib

import numpy as np
import pytest

from flowcodec.cli import main

BASE_CONFIG = {
    "seed": 7,
    "hidden": [8],
    "latent_dim": 4,
    "train": {"max_epochs": 2},
    "forest": {"n_trees": 2},
    "synth": {"n_per_class": 12},
}
N_VARIANTS = 40
# evaluate scores whatever finite cells a mutation leaves, so extreme ones
# (1e308, 5e-324) reach its metrics; it gets more variants.
N_CSV_VARIANTS = {"compress": N_VARIANTS, "evaluate": 100, "compare": N_VARIANTS}

# Cells that a flow CSV may hold by mistake: empty, non-finite, beyond or at
# the edge of float64, not numbers, quotes and separators, numbers that
# Python's float() reads but a strict parser may not, and a very long one.
CELLS = ["", "nan", "inf", "-inf", "-1e300", "1e308", "5e-324", "abc", '"', '"1,2"', "1,2", "0x1F",
         "١٢", " 5", "+5", "-0", "1_000", "9" * 400, "\x00", "\xe9"]
# Bytes to insert at random: separators, quotes, line ends, a NUL, bytes
# that are not UTF-8, and parts of numbers.
BYTES = [b",", b'"', b"\n", b"\r", b"\x00", b"\x1c", b"\xff", b"-", b"e", b".", b" ", b"9"]

# Config values of every JSON type, in and out of each key's range. Sizes
# stay small, so a value that is accepted still runs in milliseconds.
VALUES = [None, True, False, -1, 0, 1, 3, 0.5, -0.5, 1e-300, 1e300, float("nan"), float("inf"), "", "x",
          "float16", "sqrt", [], [1], [2, 0], ["a"], {}, {"x": 1}]
KEYS = [
    ("seed",), ("test_fraction",), ("hidden",), ("latent_dim",), ("latent_dtype",), ("schema",),
    ("schema", "label_column"), ("schema", "identity_columns"), ("schema", "compressible_columns"),
    ("train",), ("train", "learning_rate"), ("train", "batch_size"), ("train", "max_epochs"),
    ("train", "seed"), ("train", "plateau_factor"), ("train", "min_lr"), ("train", "weight_decay"),
    ("train", "huber_delta"), ("train", "clip_max_norm"), ("train", "decoupled_weight_decay"),
    ("forest",), ("forest", "n_trees"), ("forest", "max_depth"), ("forest", "max_features"),
    ("metrics", "kl_bins"), ("synth",), ("synth", "n_per_class"), ("synth", "sigma"),
    ("synth", "class_specs"), ("unknown",),
]


def _rng(kind: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(kind.encode()))


def _mutate_csv(rng, blob: bytes) -> bytes:
    """``blob`` with one or two mutations: a cut, a flipped bit, an inserted
    byte, a dropped line, a dropped cell or a replaced cell."""
    for _ in range(rng.integers(1, 3)):
        op = rng.integers(6)
        if op == 0:
            blob = blob[: rng.integers(len(blob) + 1)]
        elif op == 1 and blob:
            at = rng.integers(len(blob))
            blob = blob[:at] + bytes([blob[at] ^ 1 << rng.integers(8)]) + blob[at + 1 :]
        elif op == 2:
            at = rng.integers(len(blob) + 1)
            blob = blob[:at] + BYTES[rng.integers(len(BYTES))] + blob[at:]
        else:
            lines = blob.split(b"\r\n")
            row = rng.integers(len(lines))
            if op == 3:
                del lines[row]
            else:
                cells = lines[row].split(b",")
                col = rng.integers(len(cells))
                if op == 4:
                    del cells[col]
                else:
                    cells[col] = CELLS[rng.integers(len(CELLS))].encode("utf-8")
                lines[row] = b",".join(cells)
            blob = b"\r\n".join(lines)
    return blob


def _mutate_config(rng) -> str:
    """The base config as JSON text, with one or two keys set to a value
    from VALUES or deleted (one time in eight, the whole document replaced
    by a value), and then, one time in four, cut short."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    if rng.integers(8) == 0:
        doc = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    for _ in range(rng.integers(1, 3) if isinstance(doc, dict) and doc else 0):
        *parents, key = KEYS[rng.integers(len(KEYS))]
        block = doc
        for name in parents:
            if not isinstance(block.get(name), dict):
                block[name] = {}
            block = block[name]
        if rng.integers(5) == 0:
            block.pop(key, None)
        else:
            block[key] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    text = json.dumps(doc)
    if rng.integers(4) == 0:
        text = text[: rng.integers(len(text) + 1)]
    return text


def _run(argv, capsys, codes=(0, 1, 2)):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in codes, (argv, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error:") or "\nerror:" in err, (argv, err)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config file, a flow CSV and a model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    config, data, out = root / "config.json", root / "flows.csv", root / "model"
    config.write_text(json.dumps(BASE_CONFIG))
    assert main(["synth", "--config", str(config), "--output", str(data)]) == 0
    assert main(["train", "--config", str(config), "--input", str(data), "--output-dir", str(out)]) == 0
    return config, data, ["--model", str(out / "autoencoder.fcae"), "--preprocessor", str(out / "preprocessor.json")]


@pytest.mark.parametrize("kind", ["compress", "evaluate", "compare"])
def test_malformed_csvs_exit_with_a_documented_code(tmp_path, capsys, trained, kind):
    config, data, model = trained
    rng, blob, bad = _rng(kind), data.read_bytes(), tmp_path / "bad.csv"
    for _ in range(N_CSV_VARIANTS[kind]):
        bad.write_bytes(_mutate_csv(rng, blob))
        argv = {
            "compress": ["--input", str(bad), "--output", str(tmp_path / "out.fclz")],
            "evaluate": ["--original", str(bad), "--output-dir", str(tmp_path / "out")],
            "compare": ["--input", str(bad), "--output-dir", str(tmp_path / "out")],
        }[kind]
        _run([kind, "--config", str(config), *model, *argv], capsys)


@pytest.mark.parametrize("kind", ["synth", "train"])
def test_malformed_configs_exit_with_a_documented_code(tmp_path, capsys, trained, kind):
    # A config that train accepts may still make it diverge, as a learning
    # rate of 1e300 does: exit 3, as documented.
    _, data, _ = trained
    rng, config = _rng(kind), tmp_path / "config.json"
    for _ in range(N_VARIANTS):
        config.write_text(_mutate_config(rng))
        argv = {
            "synth": ["--output", str(tmp_path / "out.csv")],
            "train": ["--input", str(data), "--output-dir", str(tmp_path / "out")],
        }[kind]
        _run([kind, "--config", str(config), *argv], capsys, (0, 1, 2, 3) if kind == "train" else (0, 1, 2))

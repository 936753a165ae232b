import csv
import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import flowcodec
from flowcodec import preprocess
from flowcodec.cli import load_config, main
from flowcodec.errors import ConfigError
from flowcodec.flow_data import (
    DEFAULT_IDENTITY_COLUMNS,
    FeatureSchema,
    default_class_specs,
    load_csv,
    stratified_split,
)
from flowcodec.latent import read_latent

FAST_CONFIG = {
    "seed": 7,
    "hidden": [16, 8],
    "latent_dim": 4,
    "train": {"max_epochs": 8},
    "forest": {"n_trees": 5},
    "synth": {"n_per_class": 60},
}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def readme_report_files():
    """Each command's report file names as README's Reports table lists
    them, ``<arm>`` left as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reports", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
    return {command: re.findall(r"`([\w<>]+\.\w+)`", files) for command, files in rows}


def test_every_exported_name_resolves():
    for module in (flowcodec, flowcodec.forest):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


# ---------------------------------------------------------------- config


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.seed == 42
    assert cfg.test_fraction == 0.2
    assert cfg.hidden == (128, 64)
    assert cfg.latent_dim == 16
    assert cfg.train.seed == 42
    assert cfg.train.learning_rate == 0.001
    assert cfg.forest.n_trees == 100
    assert cfg.synth.n_per_class == 2000


def test_load_config_seed_cascade(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": 5}))
    cfg = load_config(str(p))
    assert cfg.seed == 5 and cfg.train.seed == 5

    # A command-line override seeds both.
    cfg = load_config(str(p), seed_override=11)
    assert cfg.seed == 11 and cfg.train.seed == 11

    # The training block has no seed of its own, so pinning one is refused.
    p.write_text(json.dumps({"seed": 5, "train": {"seed": 9}}))
    with pytest.raises(ConfigError, match=r"train\.seed"):
        load_config(str(p))
    with pytest.raises(ConfigError, match=r"train\.seed"):
        load_config(str(p), seed_override=11)


def test_load_config_rejects_bad_input(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text(json.dumps({"seeed": 1}))
    with pytest.raises(ConfigError, match="seeed"):
        load_config(str(p))
    p.write_text(json.dumps({"train": {"lr": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text(json.dumps({"seed": -1}))
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text(json.dumps({"seed": True}))
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    # Mistyped fields are refused while the config loads, not mid-command.
    for doc in (
        {"test_fraction": "0.2"},
        {"hidden": 5},
        {"hidden": [16, "8"]},
        {"latent_dim": "16"},
        {"forest": {"n_trees": "3"}},
        {"forest": 5},
        {"train": {"max_epochs": 2.5}},
        {"synth": {"sigma": None}},
        # Out-of-range values are refused at load too, not after the data loads.
        {"forest": {"n_trees": 0}},
        {"train": {"learning_rate": float("nan")}},
        {"train": {"adam_beta1": 1.5}},
        {"train": {"adam_epsilon": 0}},
        {"train": {"weight_decay": -1}},
        # Schema blocks are typed too: a string is not a column list.
        {"schema": {"identity_columns": "src_ip"}},
        {"schema": {"label_column": 5}},
        {"schema": {"identity_column": ["src_ip"]}},
        {"schema": {"label_column": ""}},
    ):
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(str(p))


def test_load_config_inline_schema(tmp_path):
    names = [f"m{i}" for i in range(21)]
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {
                "schema": {
                    "identity_columns": ["a", "b"],
                    "compressible_columns": names,
                    "label_column": "kind",
                }
            }
        )
    )
    cfg = load_config(str(p))
    assert cfg.schema.identity_columns == ("a", "b")
    assert cfg.schema.compressible_columns == tuple(names)
    assert cfg.schema.label_column == "kind"

    # Wrong column count is a config error, not a data error.
    p.write_text(json.dumps({"schema": {"identity_columns": ["a"],
                                        "compressible_columns": ["x", "y"],
                                        "label_column": None}}))
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_load_config_schema_file(tmp_path):
    names = [f"m{i}" for i in range(21)]
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"identity_columns": ["a"], "compressible_columns": names,
                                  "label_column": None}))
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"schema": str(schema)}))
    cfg = load_config(str(p))
    assert cfg.schema.identity_columns == ("a",)
    assert cfg.schema.compressible_columns == tuple(names)
    assert cfg.schema.label_column is None

    p.write_text(json.dumps({"schema": str(tmp_path / "missing.json")}))
    with pytest.raises(ConfigError, match="cannot read schema file"):
        load_config(str(p))
    schema.write_text("{not json")
    p.write_text(json.dumps({"schema": str(schema)}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(p))


def test_readme_config_block_lists_every_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    defaults = json.loads(json.dumps(dataclasses.asdict(load_config(None))))
    del block["schema"], defaults["schema"]  # the README abbreviates the column lists
    # TrainConfig.seed is a library argument; a config sets only the
    # top-level seed, which load_config copies into it.
    del defaults["train"]["seed"]
    assert block == defaults


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1():
    for argv in ([], ["frobnicate"], ["train"], ["synth", "--output"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


MODEL_FLAGS = ["--model", "m.fcae", "--preprocessor", "p.json", "--force"]
OUT = "<out>"  # stands for an output path under tmp_path


@pytest.mark.parametrize("argv, flags", [
    (["evaluate", "--original", "x.csv", "--reconstructed", "y.csv", *MODEL_FLAGS, "--output-dir", OUT],
     ["--model", "--preprocessor", "--force"]),
    (["classify", "--input", "x.csv", "--features", "compressed", *MODEL_FLAGS, "--output-dir", OUT],
     ["--features", "--model", "--preprocessor", "--force"]),
    (["evaluate", "--original", "x.csv", "--output-dir", OUT], ["--reconstructed"]),
    (["compress", *MODEL_FLAGS, "--input", "x.csv", "--output", OUT], ["--force"]),
    (["decompress", *MODEL_FLAGS, "--input", "x.fclz", "--output", OUT], ["--force"]),
    (["compare", "--input", "x.csv", *MODEL_FLAGS, "--output-dir", OUT], ["--force"]),
])
def test_evaluate_and_classify_run_no_model(tmp_path, capsys, argv, flags):
    # Only compress, decompress and compare run the model. evaluate scores a
    # reconstructed CSV and classify fits the original-feature forest, so
    # model flags given to either are refused by name, and so is a missing
    # --reconstructed. No command overrides a fingerprint mismatch, so
    # --force is refused by name too.
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "out") if arg == OUT else arg for arg in argv])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and all(flag in last for flag in flags), last
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["compress", "--model", "m.fcae", "--preprocessor", "p.json", "--input", "x.csv", "--output"],
    ["evaluate", "--original", "x.csv", "--reconstructed", "y.csv", "--output-dir"],
])
def test_compress_and_evaluate_take_no_seed(tmp_path, capsys, argv):
    # Neither command draws a random number, so a --seed given to either is
    # refused by name rather than ignored.
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "out"), "--seed", "1"])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "--seed" in last, last
    assert list(tmp_path.iterdir()) == []


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["train", "--input", str(tmp_path / "nope.csv"),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_2_naming_the_path_given(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    taken = tmp_path / "taken"
    taken.mkdir()
    for out, reason in [(missing, "No such file or directory"), (taken, "Is a directory")]:
        code = main(["synth", "--n-per-class", "3", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err and repr(str(out)) in err
        assert ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("value", [True, False, "yes"])
def test_removed_forest_save_model_key_exits_1(tmp_path, capsys, value):
    # Forests are never written, so a config that still asks whether to
    # write them is refused by name rather than ignored.
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"forest": {"save_model": value}}))
    with pytest.raises(ConfigError, match="save_model"):
        load_config(str(p))
    missing = str(tmp_path / "missing")
    code = main(["compare", "--config", str(p), "--input", missing + ".csv",
                 "--model", missing + ".fcae", "--preprocessor", missing + ".json",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "save_model" in capsys.readouterr().err
    assert [q.name for q in tmp_path.iterdir()] == ["c.json"]


def _removed_key_argv(command, config, missing):
    """``command`` run with ``config`` on inputs that do not exist, so that
    only the config can stop it before it writes anything."""
    inputs = {
        "train": ["--input", missing + ".csv", "--output-dir", missing + "_out"],
        "compress": ["--model", missing + ".fcae", "--preprocessor", missing + ".json",
                     "--input", missing + ".csv", "--output", missing + ".fclz"],
        "evaluate": ["--original", missing + ".csv", "--reconstructed", missing + "_recon.csv",
                     "--output-dir", missing + "_out"],
        "classify": ["--input", missing + ".csv", "--output-dir", missing + "_out"],
        "synth": ["--n-per-class", "3", "--output", missing + ".csv"],
    }
    return [command, "--config", config, *inputs[command]]


# Each key is a setting no run varied, so a config that still sets it is
# refused by name rather than ignored:
# - weight decay always adds to the weight gradient;
# - compress counts every original value as 8 bytes and the KL histogram
#   always has 50 bins, so there is no `metrics` block;
# - a container always stores float32 latents;
# - the top-level seed (or --seed) always seeds training;
# - every tree grows until each node is pure or has no split, with
#   ceil(sqrt(d)) candidate features per node;
# - synth always draws the built-in classes.
@pytest.mark.parametrize("doc, key, command", [
    pytest.param({"train": {"decoupled_weight_decay": value}}, "decoupled_weight_decay", "train",
                 id=f"decoupled_weight_decay-{value}")
    for value in (True, False)
] + [
    pytest.param({"metrics": {"original_width_bytes": value}}, "metrics", "compress",
                 id=f"original_width_bytes-{value}")
    for value in (8, 4, 0)
] + [
    pytest.param({"latent_dtype": value}, "latent_dtype", "compress", id=f"latent_dtype-{value}")
    for value in ("float64", "float32")
] + [
    pytest.param({"metrics": {"kl_bins": 50}}, "metrics", "evaluate", id="kl_bins"),
    pytest.param({"train": {"seed": 9}}, "train.seed", "train", id="train.seed"),
    pytest.param({"forest": {"max_depth": 3}}, "max_depth", "classify", id="max_depth"),
    pytest.param({"forest": {"min_samples_split": 2}}, "min_samples_split", "classify",
                 id="min_samples_split"),
    pytest.param({"forest": {"max_features": "sqrt"}}, "max_features", "classify", id="max_features"),
    pytest.param({"synth": {"class_specs": [dataclasses.asdict(s) for s in default_class_specs()]}},
                 "class_specs", "synth", id="class_specs"),
])
def test_removed_key_exits_1(tmp_path, capsys, doc, key, command):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(str(p))
    assert main(_removed_key_argv(command, str(p), str(tmp_path / "missing"))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert [q.name for q in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("labeled", [True, False])
def test_train_fits_the_preprocessor_on_the_train_rows_only(tmp_path, labeled):
    doc = {**FAST_CONFIG, "train": {"max_epochs": 1}}
    if not labeled:
        doc["schema"] = {"label_column": None}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    assert main(["synth", "--config", str(config), "--output", str(data)]) == 0
    assert main(["train", "--config", str(config), "--input", str(data), "--output-dir", str(out)]) == 0

    cfg = load_config(str(config))
    ds = load_csv(data, cfg.schema)
    assert ds.is_labeled == labeled
    split = stratified_split(ds, cfg.test_fraction, cfg.seed)
    summary = json.loads((out / "train_summary.json").read_text())
    assert (summary["train_rows"], summary["test_rows"]) == (split.train.size, split.test.size) == (240, 60)
    written = preprocess.PreprocessorState.load(out / "preprocessor.json").fingerprint()
    assert written == preprocess.fit(ds.features[split.train], cfg.schema.compressible_columns).fingerprint()
    assert written != preprocess.fit(ds.features, cfg.schema.compressible_columns).fingerprint()


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["synth", "--config", str(bad), "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert not (tmp_path / "x.csv").exists()


def test_synth_zero_rows_exits_1_before_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["synth", "--n-per-class", "0", "--output", str(out)])
    assert code == 1
    assert not out.exists()


def test_synth_bad_spec_exits_1_without_traceback(tmp_path, capsys):
    cfg, out = tmp_path / "c.json", tmp_path / "x.csv"
    for synth in (
        {"sigma": -1},
        {"sigma": float("nan")},
        {"sigma": 1000},  # finite, but the draws overflow float64
    ):
        cfg.write_text(json.dumps({"synth": synth}))
        code = main(["synth", "--config", str(cfg), "--n-per-class", "5", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


def test_config_value_faults_exit_1_naming_the_element(tmp_path, capsys):
    # Each message is one short line naming the element at fault by its
    # path. A huge int in a float field ended both commands in a raw
    # OverflowError, and a mistyped list element must not echo the list.
    data, cfg = tmp_path / "flows.csv", tmp_path / "c.json"
    assert main(["synth", "--n-per-class", "3", "--output", str(data)]) == 0
    columns = [*FeatureSchema().compressible_columns[:20], 5]
    synth = ["synth", "--config", str(cfg), "--n-per-class", "3", "--output", str(tmp_path / "x.csv")]
    train = ["train", "--config", str(cfg), "--input", str(data), "--output-dir", str(tmp_path / "model")]
    for argv, doc, message in (
        (synth, {"synth": {"sigma": 10**400}}, "synth.sigma is too large for a float: 1000"),
        (train, {"train": {"learning_rate": 10**400}}, "train.learning_rate is too large for a float: 1000"),
        (synth, {"schema": {"compressible_columns": columns}},
         "schema.compressible_columns[20] has the wrong type: 5"),
    ):
        cfg.write_text(json.dumps(doc))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and len(err) < 150
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "model").exists()


@pytest.mark.parametrize(
    "train_block, message",
    [
        # A plateau "halving" raised the rate from 0.001 to 1.0, the test
        # loss went to about 1e8, and train still exited 0.
        ({"min_lr": 1.0, "plateau_patience": 1, "improvement_threshold": 100},
         "min_lr must not exceed learning_rate"),
        # Every epoch would count as an improvement: no halving, no stop.
        ({"improvement_threshold": -1e-6}, "improvement_threshold must be >= 0"),
        # float32 steps would round it to 0: a zero gradient's update is 0/0.
        ({"adam_epsilon": 1e-39}, "adam_epsilon must be at least"),
    ],
    ids=["min_lr_above_learning_rate", "negative_improvement_threshold", "adam_epsilon_below_float32"],
)
def test_train_values_that_break_training_exit_1_at_load(tmp_path, capsys, train_block, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"train": train_block}))
    with pytest.raises(ConfigError, match=f"^bad train block: {message}"):
        load_config(str(cfg))
    out = tmp_path / "model"
    code = main(["train", "--config", str(cfg), "--input", str(tmp_path / "none.csv"), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: bad train block: {message}")
    assert not out.exists()


def test_malformed_csv_exits_2_without_traceback(tmp_path, capsys):
    data, bad = tmp_path / "flows.csv", tmp_path / "bad.csv"
    assert main(["synth", "--n-per-class", "3", "--output", str(data)]) == 0
    lines = data.read_bytes().splitlines(keepends=True)
    without_label = lines[2].rsplit(b",", 1)[0] + b"\r\n"
    for row in (
        without_label,
        b"\xff" + lines[2],  # not UTF-8
        b"x" * 200_000 + b"," + lines[2],  # over the csv module's field size limit
    ):
        bad.write_bytes(b"".join(lines[:2] + [row] + lines[3:]))
        code = main(["classify", "--input", str(bad), "--output-dir", str(tmp_path / "cls")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_evaluate_short_recon_row_exits_2_naming_row_and_column(tmp_path, capsys):
    # evaluate keeps only the features, but a recon row that stops before
    # the label cell is still refused, with load_csv's row and column.
    data, recon = tmp_path / "flows.csv", tmp_path / "recon.csv"
    assert main(["synth", "--n-per-class", "3", "--output", str(data)]) == 0
    lines = data.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(b",", 1)[0] + b"\r\n"
    recon.write_bytes(b"".join(lines))
    code = main(["evaluate", "--original", str(data), "--reconstructed", str(recon),
                 "--output-dir", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err == f"error: {recon}: row 2, column 'application_name': cell missing\n"
    assert not (tmp_path / "eval").exists()


def test_divergence_exits_3_and_leaves_no_model(tmp_path, capsys):
    data = tmp_path / "flows.csv"
    assert main(["synth", "--n-per-class", "40", "--seed", "1", "--output", str(data)]) == 0
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"hidden": [16, 8], "latent_dim": 4,
                               "train": {"learning_rate": 1e60, "max_epochs": 5}}))
    out = tmp_path / "out"
    code = main(["train", "--config", str(cfg), "--input", str(data),
                 "--output-dir", str(out)])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not (out / "autoencoder.fcae").exists()
    assert not (out / "preprocessor.json").exists()


# ---------------------------------------------------------------- pipeline


def test_full_pipeline(tmp_path, fast_config, capsys):
    data = tmp_path / "flows.csv"
    assert main(["synth", "--config", fast_config, "--output", str(data)]) == 0
    rows = read_rows(data)
    assert len(rows) == 300

    # Each --output-dir holds exactly the files README's Reports table lists.
    listed = readme_report_files()

    def listing(directory):
        return sorted(p.name for p in directory.iterdir())

    def arm_files(*arms):
        return [name.replace("<arm>", arm) for arm in arms for name in listed["classify"]]

    out = tmp_path / "out"
    assert main(["train", "--config", fast_config, "--input", str(data),
                 "--output-dir", str(out)]) == 0
    assert listing(out) == sorted(listed["train"])
    summary = json.loads((out / "train_summary.json").read_text())
    assert summary["epochs_run"] <= 8
    assert summary["best_test_loss"] > 0

    model = str(out / "autoencoder.fcae")
    preproc = str(out / "preprocessor.json")
    latent = tmp_path / "flows.fclz"
    assert main(["compress", "--config", fast_config, "--model", model,
                 "--preprocessor", preproc, "--input", str(data),
                 "--output", str(latent)]) == 0
    lf = read_latent(latent)
    assert lf.n_rows == 300 and lf.latent_dim == 4
    assert lf.latent.dtype == np.float32
    # Identity columns ride along byte-for-byte.
    assert list(lf.identities) == list(lf.schema.identity_columns)
    for i in (0, 150, 299):
        for col in lf.schema.identity_columns:
            assert lf.identities[col][i] == rows[i][col]
        assert lf.labels[i] == rows[i]["application_name"]

    recon = tmp_path / "recon.csv"
    assert main(["decompress", "--model", model, "--preprocessor", preproc,
                 "--input", str(latent), "--output", str(recon)]) == 0
    recon_rows = read_rows(recon)
    assert len(recon_rows) == 300
    assert recon_rows[0].keys() == rows[0].keys()
    for i in (0, 299):
        for col in lf.schema.identity_columns:
            assert recon_rows[i][col] == rows[i][col]
        assert recon_rows[i]["application_name"] == rows[i]["application_name"]

    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", fast_config, "--original", str(data),
                 "--reconstructed", str(recon), "--output-dir", str(eval_dir)]) == 0
    assert "ratio" not in capsys.readouterr().out  # compress alone reports ratios
    report = json.loads((eval_dir / "reconstruction_report.json").read_text())
    assert report["n_rows"] == 300
    g = report["global"]
    assert g["rmse"] == pytest.approx(g["mse"] ** 0.5)
    assert "compression" not in report
    assert len(report["per_feature"]) == 21
    assert all(f["kl_divergence"] >= 0 for f in report["per_feature"])
    assert listing(eval_dir) == sorted(listed["evaluate"])

    cls_dir = tmp_path / "cls"
    assert main(["classify", "--config", fast_config, "--input", str(data),
                 "--output-dir", str(cls_dir)]) == 0
    cls = json.loads((cls_dir / "classification_report_original.json").read_text())
    assert set(cls["class_names"]) == {"bulk", "chat", "video", "voip", "web"}
    assert 0 < cls["accuracy"] <= 1
    assert listing(cls_dir) == sorted(arm_files("original"))

    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--config", fast_config, "--input", str(data),
                 "--model", model, "--preprocessor", preproc,
                 "--output-dir", str(cmp_dir)]) == 0
    cmp_doc = json.loads((cmp_dir / "comparison_report.json").read_text())
    assert cmp_doc["original"]["accuracy"] > 0
    assert listing(cmp_dir) == sorted(arm_files("original", "compressed") + listed["compare"])
    # classify fits the forest of compare's original arm, on the same split.
    for name in arm_files("original"):
        assert (cls_dir / name).read_bytes() == (cmp_dir / name).read_bytes(), name


def _copy_without_identity_columns(src, dst, identity):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name not in identity]
    assert len(rows[0]) - len(keep) == len(identity) == 7
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([row[j] for j in keep] for row in rows)


def test_train_and_compare_take_a_csv_without_identity_columns(tmp_path, fast_config, capsys):
    # train and compare read only the features and the label: a CSV without
    # the identity columns gives them the same model, summary and reports.
    # compress stores identity cells, so it refuses that CSV.
    data, bare = tmp_path / "flows.csv", tmp_path / "bare.csv"
    assert main(["synth", "--config", fast_config, "--output", str(data)]) == 0
    identity = list(load_config(fast_config).schema.identity_columns)
    _copy_without_identity_columns(data, bare, identity)

    outputs = {}
    for name, path in (("full", data), ("bare", bare)):
        out = tmp_path / name
        assert main(["train", "--config", fast_config, "--input", str(path), "--output-dir", str(out)]) == 0
        model = ["--model", str(out / "autoencoder.fcae"), "--preprocessor", str(out / "preprocessor.json")]
        assert main(["compare", "--config", fast_config, "--input", str(path), *model,
                     "--output-dir", str(out / "cmp")]) == 0
        outputs[name] = {
            f.relative_to(out).as_posix(): f.read_bytes()
            for f in [out / "autoencoder.fcae", out / "train_summary.json", *(out / "cmp").iterdir()]
        }
    assert len(outputs["full"]) == 2 + 2 * 4 + 2  # train, each arm and the comparison
    assert outputs["bare"] == outputs["full"]

    capsys.readouterr()
    code = main(["compress", "--config", fast_config, *model, "--input", str(bare),
                 "--output", str(tmp_path / "bare.fclz")])
    assert code == 2
    assert f"missing column(s) {identity}" in capsys.readouterr().err
    assert not (tmp_path / "bare.fclz").exists()


def test_evaluate_takes_csvs_without_identity_columns(tmp_path):
    # evaluate reads only the features (and checks that the label cell is
    # there): identity-free copies of both CSVs give the same report bytes.
    identity = list(DEFAULT_IDENTITY_COLUMNS)
    paths = {}
    for name, seed in (("original", "0"), ("recon", "1")):
        full, bare = tmp_path / f"{name}.csv", tmp_path / f"{name}_bare.csv"
        assert main(["synth", "--n-per-class", "20", "--seed", seed, "--output", str(full)]) == 0
        _copy_without_identity_columns(full, bare, identity)
        paths[name] = (full, bare)
    outputs = []
    for k in range(2):
        out = tmp_path / f"eval{k}"
        assert main(["evaluate", "--original", str(paths["original"][k]),
                     "--reconstructed", str(paths["recon"][k]), "--output-dir", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) == 4
    assert outputs[1] == outputs[0]


def test_evaluate_reads_no_latent_settings(tmp_path):
    # evaluate sees neither a model nor a container and reads only the
    # config's schema, so a latent width changes none of its report bytes.
    original, recon = tmp_path / "original.csv", tmp_path / "recon.csv"
    for path, seed in ((original, "0"), (recon, "1")):
        assert main(["synth", "--n-per-class", "20", "--seed", seed, "--output", str(path)]) == 0
    latent_config = tmp_path / "config.json"
    latent_config.write_text(json.dumps({"latent_dim": 4}))
    outputs = []
    for config in ([], ["--config", str(latent_config)]):
        out = tmp_path / f"eval{len(outputs)}"
        assert main(["evaluate", *config, "--original", str(original),
                     "--reconstructed", str(recon), "--output-dir", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) == 4
    assert outputs[1] == outputs[0]


@pytest.fixture
def two_preprocessors(tmp_path, fast_config):
    """A flow CSV, and models "a" and "b" of two seeds, each trained beside
    its own preprocessor."""
    data = tmp_path / "flows.csv"
    main(["synth", "--config", fast_config, "--output", str(data)])
    for name, seed in (("a", "7"), ("b", "8")):
        main(["train", "--config", fast_config, "--seed", seed, "--input", str(data),
              "--output-dir", str(tmp_path / name)])
    return data, {name: ["--model", str(tmp_path / name / "autoencoder.fcae"),
                         "--preprocessor", str(tmp_path / name / "preprocessor.json")]
                  for name in "ab"}


def _pair(pairs, model, preprocessor):
    """--model of one trained pair with --preprocessor of another."""
    return [*pairs[model][:2], *pairs[preprocessor][2:]]


def _assert_refused(tmp_path, capsys, argv, pairs):
    """``argv`` with model "a" and preprocessor "b" is refused, and so is
    ``argv`` with --force added: nothing is written under ``tmp_path``."""
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    # Every mismatch is refused: one error line that names the remedy.
    assert main([*argv, *_pair(pairs, "a", "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model was trained with a different preprocessor (")
    assert err.endswith("; use the preprocessor.json that `train` wrote beside the model\n")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    # There is no override: --force is an unknown flag.
    with pytest.raises(SystemExit) as exc:
        main([*argv, *_pair(pairs, "a", "b"), "--force"])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "--force" in last, last
    assert sorted(tmp_path.iterdir()) == before


def test_fingerprint_mismatch_and_force(tmp_path, fast_config, capsys, two_preprocessors):
    data, pairs = two_preprocessors
    latent = tmp_path / "flows.fclz"
    argv = ["compress", "--config", fast_config, "--input", str(data), "--output", str(latent)]
    _assert_refused(tmp_path, capsys, argv, pairs)
    # The remedy works.
    assert main([*argv, *pairs["a"]]) == 0
    assert capsys.readouterr().err == ""
    assert read_latent(latent).n_rows == 300


def test_forced_mismatch_warns_in_the_compressed_report_only(
    tmp_path, fast_config, capsys, two_preprocessors
):
    # No mismatch can be forced, so no report of either arm carries a
    # fingerprint warning: compare refuses the mismatch and --force alike.
    data, pairs = two_preprocessors
    cmp_dir = tmp_path / "cmp"
    argv = ["compare", "--config", fast_config, "--input", str(data), "--output-dir", str(cmp_dir)]
    _assert_refused(tmp_path, capsys, argv, pairs)
    # The remedy works, and both arms report no warnings.
    assert main([*argv, *pairs["a"]]) == 0
    assert capsys.readouterr().err == ""
    comparison = json.loads((cmp_dir / "comparison_report.json").read_text())
    for arm in ("original", "compressed"):
        doc = json.loads((cmp_dir / f"classification_report_{arm}.json").read_text())
        assert doc["warnings"] == [] and comparison[arm]["warnings"] == []


def test_decompress_refuses_a_container_of_another_preprocessor(
    tmp_path, fast_config, capsys, two_preprocessors
):
    data, pairs = two_preprocessors
    latent = tmp_path / "b.fclz"
    assert main(["compress", "--config", fast_config, *pairs["b"], "--input", str(data),
                 "--output", str(latent)]) == 0
    capsys.readouterr()

    recon = tmp_path / "recon.csv"
    args = ["decompress", "--input", str(latent), "--output", str(recon)]
    # The model and preprocessor agree; the container was written under "b".
    assert main([*args, *pairs["a"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: latent file was produced with a different preprocessor (")
    assert err.endswith(
        "; use the model that compressed it and the preprocessor.json that `train` wrote beside it\n"
    )
    assert err.count("\n") == 1
    assert not recon.exists()
    # A model of another preprocessor is refused first, as in compress.
    assert main([*args, *_pair(pairs, "b", "a")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model was trained with a different preprocessor (")
    assert err.endswith("; use the preprocessor.json that `train` wrote beside the model\n")
    assert not recon.exists()

    # The remedy works.
    assert main([*args, *pairs["b"]]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_rows(recon)) == 300


def test_compress_and_compare_take_the_architecture_from_the_model(tmp_path, capsys):
    # hidden and latent_dim are read only by train. A config that disagrees
    # with the model on them changes no byte that compress or compare writes
    # or prints.
    trained, other = tmp_path / "trained.json", tmp_path / "other.json"
    trained.write_text(json.dumps({**FAST_CONFIG, "latent_dim": 6}))
    other.write_text(json.dumps({**FAST_CONFIG, "latent_dim": 4, "hidden": [7]}))
    data, out = tmp_path / "flows.csv", tmp_path / "model"
    assert main(["synth", "--config", str(trained), "--output", str(data)]) == 0
    assert main(["train", "--config", str(trained), "--input", str(data), "--output-dir", str(out)]) == 0
    model = ["--model", str(out / "autoencoder.fcae"), "--preprocessor", str(out / "preprocessor.json")]
    latent, cmp_dir = tmp_path / "flows.fclz", tmp_path / "cmp"
    capsys.readouterr()

    runs = []
    for config in (trained, other):
        assert main(["compress", "--config", str(config), *model, "--input", str(data),
                     "--output", str(latent)]) == 0
        assert main(["compare", "--config", str(config), *model, "--input", str(data),
                     "--output-dir", str(cmp_dir)]) == 0
        files = {f.name: f.read_bytes() for f in cmp_dir.iterdir()}
        runs.append((latent.read_bytes(), capsys.readouterr(), files))
    assert "21 -> 6 dims" in runs[0][1].out
    assert len(runs[0][2]) == 10
    assert runs[1] == runs[0]


def test_compress_prints_the_float32_latent_widths(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**FAST_CONFIG, "latent_dim": 16}))
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--output", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--input", str(data), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["compress", "--config", str(cfg), "--model", str(out / "autoencoder.fcae"),
                 "--preprocessor", str(out / "preprocessor.json"), "--input", str(data),
                 "--output", str(tmp_path / "flows.fclz")]) == 0
    printed = capsys.readouterr().out
    # 21 values of 8 bytes against 16 float32 latents of 4 bytes.
    assert "feature ratio 2.625x" in printed
    # The realized ratio counts whole files, and the sections sum to the container.
    csv_bytes, fclz_bytes = data.stat().st_size, (tmp_path / "flows.fclz").stat().st_size
    assert f"container ratio {csv_bytes / fclz_bytes:.3f}x" in printed
    assert f"{csv_bytes} CSV bytes -> {fclz_bytes} container bytes" in printed
    sections = re.search(r"header (\d+), latent block (\d+), sidecar (\d+)", printed)
    assert int(sections[2]) == 300 * 16 * 4
    assert sum(map(int, sections.groups())) == fclz_bytes


def test_corrupt_artifacts_exit_2_without_traceback(tmp_path, fast_config, capsys, reheader):
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    main(["synth", "--config", fast_config, "--output", str(data)])
    main(["train", "--config", fast_config, "--input", str(data), "--output-dir", str(out)])
    model, preproc = str(out / "autoencoder.fcae"), out / "preprocessor.json"
    latent = tmp_path / "flows.fclz"
    assert main(["compress", "--config", fast_config, "--model", model,
                 "--preprocessor", str(preproc), "--input", str(data),
                 "--output", str(latent)]) == 0
    raw = latent.read_bytes()
    state = json.loads(preproc.read_text())
    capsys.readouterr()

    bad = tmp_path / "bad.fclz"
    for mutate in (
        lambda h: {k: v for k, v in h.items() if k != "n_rows"},
        lambda h: {**h, "n_rows": -1},
        lambda h: [h],
    ):
        bad.write_bytes(reheader(raw, mutate))
        code = main(["decompress", "--model", model, "--preprocessor", str(preproc),
                     "--input", str(bad), "--output", str(tmp_path / "recon.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    # A container of format version 1 is refused with the way out.
    bad.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    code = main(["decompress", "--model", model, "--preprocessor", str(preproc),
                 "--input", str(bad), "--output", str(tmp_path / "recon.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert "version 1" in err and "flowcodec compress" in err

    bad_state = tmp_path / "bad_preprocessor.json"
    nan_iqr = [float("nan")] + state["iqr"][1:]
    for change in ({"iqr": "abc"}, {"iqr": nan_iqr}):
        bad_state.write_text(json.dumps({**state, **change}))
        code = main(["compress", "--config", fast_config, "--model", model,
                     "--preprocessor", str(bad_state), "--input", str(data),
                     "--output", str(tmp_path / "x.fclz")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "recon.csv").exists()
    assert not (tmp_path / "x.fclz").exists()


def test_non_finite_latent_exits_2_without_traceback(tmp_path, fast_config, capsys):
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    main(["synth", "--config", fast_config, "--output", str(data)])
    main(["train", "--config", fast_config, "--input", str(data), "--output-dir", str(out)])
    model, preproc = str(out / "autoencoder.fcae"), str(out / "preprocessor.json")
    latent = tmp_path / "flows.fclz"
    assert main(["compress", "--config", fast_config, "--model", model, "--preprocessor", preproc,
                 "--input", str(data), "--output", str(latent)]) == 0
    raw = bytearray(latent.read_bytes())
    (header_len,) = struct.unpack_from("<I", raw, 8)
    capsys.readouterr()

    bad = tmp_path / "bad.fclz"
    for value in (float("nan"), float("inf")):
        struct.pack_into("<f", raw, 12 + header_len + 4 * 5, value)  # the sixth latent cell
        bad.write_bytes(raw)
        code = main(["decompress", "--model", model, "--preprocessor", preproc,
                     "--input", str(bad), "--output", str(tmp_path / "recon.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "recon.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compress_refuses_latents_that_overflow_the_stored_dtype(tmp_path, fast_config, capsys):
    # A feature of -1e300 encodes to a float64 latent beyond float32's range;
    # stored, it would be a container that decompress refuses.
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    main(["synth", "--config", fast_config, "--output", str(data)])
    main(["train", "--config", fast_config, "--input", str(data), "--output-dir", str(out)])
    lines = data.read_text().splitlines()[:51]
    cells = lines[7].split(",")
    cells[lines[0].split(",").index("bidirectional_bytes")] = "-1e300"
    lines[7] = ",".join(cells)
    small = tmp_path / "small.csv"
    small.write_text("\n".join(lines) + "\n")
    latent = tmp_path / "flows.fclz"
    capsys.readouterr()
    code = main(["compress", "--config", fast_config, "--model", str(out / "autoencoder.fcae"),
                 "--preprocessor", str(out / "preprocessor.json"), "--input", str(small),
                 "--output", str(latent)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "not finite as float32" in err
    assert "Traceback" not in err
    assert not latent.exists()


def test_every_stage_that_scores_latents_refuses_one_that_overflows(tmp_path, fast_config, capsys):
    # compare scores the latents a container would store, so a latent
    # beyond float32's range stops it as it stops compress. The file keeps
    # all five classes, so no class count stops compare first.
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    main(["synth", "--config", fast_config, "--output", str(data)])
    main(["train", "--config", fast_config, "--input", str(data), "--output-dir", str(out)])
    lines = data.read_text().splitlines()
    cells = lines[7].split(",")
    cells[lines[0].split(",").index("bidirectional_bytes")] = "-1e300"
    lines[7] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    model = ["--model", str(out / "autoencoder.fcae"), "--preprocessor", str(out / "preprocessor.json")]
    result = tmp_path / "result"
    for argv in (
        ["compress", *model, "--input", str(bad), "--output", str(result)],
        ["compare", *model, "--input", str(bad), "--output-dir", str(result)],
    ):
        capsys.readouterr()
        code = main([argv[0], "--config", fast_config, *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "not finite as float32" in err, argv[0]
        assert "Traceback" not in err
        assert not result.exists()


@pytest.fixture(scope="module")
def small_flows(tmp_path_factory):
    """A 60-row synth file and the config that made it."""
    root = tmp_path_factory.mktemp("small_flows")
    config, data = root / "config.json", root / "flows.csv"
    config.write_text(json.dumps({**FAST_CONFIG, "synth": {"n_per_class": 12}}))
    assert main(["synth", "--config", str(config), "--output", str(data)]) == 0
    return config, data


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", ["reconstructed"])
@pytest.mark.parametrize("value", ["1e308", "-1e308", "5e-324"])
def test_evaluate_refuses_a_metric_that_overflows(tmp_path, capsys, small_flows, source, value):
    # One finite but extreme original cell, scored against the clean file:
    # its squared error (1e308) or its relative error (5e-324) overflows
    # float64.
    config, data = small_flows
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index("src2dst_bytes")] = value
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    result = tmp_path / "result"
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--original", str(bad), f"--{source}", str(data),
                 "--output-dir", str(result)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    metric = "mape_percent" if value == "5e-324" else "mse"
    assert f"{metric} is not finite (feature 'src2dst_bytes')" in err
    assert not result.exists()


def test_compress_is_deterministic(tmp_path, fast_config):
    data = tmp_path / "flows.csv"
    out = tmp_path / "out"
    main(["synth", "--config", fast_config, "--output", str(data)])
    main(["train", "--config", fast_config, "--input", str(data), "--output-dir", str(out)])
    args = ["compress", "--config", fast_config, "--model", str(out / "autoencoder.fcae"),
            "--preprocessor", str(out / "preprocessor.json"), "--input", str(data)]
    main(args + ["--output", str(tmp_path / "a.fclz")])
    main(args + ["--output", str(tmp_path / "b.fclz")])
    assert (tmp_path / "a.fclz").read_bytes() == (tmp_path / "b.fclz").read_bytes()


def test_synth_deterministic_for_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["synth", "--n-per-class", "25", "--seed", "3", "--output", str(a)])
    main(["synth", "--n-per-class", "25", "--seed", "3", "--output", str(b)])
    main(["synth", "--n-per-class", "25", "--seed", "4", "--output", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

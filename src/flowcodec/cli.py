"""Command-line pipeline around the library.

Subcommands: synth, train, compress, decompress, evaluate, classify, compare.
Exit codes: 0 success, 1 usage or configuration error, 2 data or artifact
error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autoencoder, classify_eval, eval_metrics, preprocess
from ._cpus import both
from ._fsutil import atomic_write, build, write_json
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FingerprintMismatchError,
    FlowcodecError,
)
from .flow_data import (
    DEFAULT_SIGMA,
    Dataset,
    FeatureSchema,
    default_class_specs,
    generate_synthetic,
    load_csv,
    read_features,
    stratified_split,
    write_csv,
)
from .forest import DEFAULT_N_TREES, fit_forest, predict
from .latent import read_latent, stored_latents, write_latent
from .neural import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3


@dataclass(frozen=True)
class ForestSettings:
    """How many trees to grow; `fit_tree` grows each one the same way."""

    n_trees: int = DEFAULT_N_TREES

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"forest.n_trees must be >= 1, got {self.n_trees}")


@dataclass
class SynthSettings:
    n_per_class: int = 2000
    sigma: float = DEFAULT_SIGMA


@dataclass
class PipelineConfig:
    """Everything a run needs beyond file paths. JSON keys mirror the field
    names; unknown keys are rejected rather than ignored."""

    seed: int = 42
    test_fraction: float = 0.2
    hidden: tuple[int, ...] = autoencoder.DEFAULT_HIDDEN
    latent_dim: int = autoencoder.DEFAULT_LATENT
    schema: FeatureSchema = field(default_factory=FeatureSchema)
    train: TrainConfig = field(default_factory=TrainConfig)
    forest: ForestSettings = field(default_factory=ForestSettings)
    synth: SynthSettings = field(default_factory=SynthSettings)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.latent_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("layer widths must be positive")


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path: str | None, seed_override: int | None = None) -> PipelineConfig:
    """Parse the pipeline config JSON; None means all defaults.

    ``schema`` holds the schema block or the path of a JSON file holding
    it. The top-level seed, or a --seed override, also seeds training; the
    training block has no seed of its own.
    """
    doc = {} if path is None else _read_json(path, "config")
    if isinstance(doc, dict) and isinstance(doc.get("schema"), str):
        doc = {**doc, "schema": _read_json(doc["schema"], "schema file")}
    cfg = build(PipelineConfig, doc, f"config {path}")
    if "seed" in doc.get("train", {}):
        raise ConfigError(f"unknown key in config {path}: train.seed (the top-level seed also seeds training)")
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    cfg.train = replace(cfg.train, seed=cfg.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _open_model(args, schema: FeatureSchema):
    """Load --model and --preprocessor, and hold them to each other and to
    the columns of ``schema``. Returns the model and the preprocessor state."""
    model = autoencoder.load_model(args.model)
    state = preprocess.PreprocessorState.load(args.preprocessor)
    if model.preprocessor_fingerprint != state.fingerprint():
        raise FingerprintMismatchError(
            "model was trained with a different preprocessor "
            f"({model.preprocessor_fingerprint[:12]}... vs {state.fingerprint()[:12]}...); "
            "use the preprocessor.json that `train` wrote beside the model"
        )
    if model.feature_names != state.feature_names:
        raise DataError(
            "model and preprocessor disagree on feature columns: "
            f"{model.feature_names} vs {state.feature_names}"
        )
    if schema.compressible_columns != model.feature_names:
        raise DataError(
            "feature columns do not match the model's training columns: "
            f"{schema.compressible_columns} vs {model.feature_names}"
        )
    return model, state


def _latents(model, state, features: np.ndarray) -> np.ndarray:
    """The latents of ``features`` as a container holds them."""
    return stored_latents(autoencoder.encode(model, preprocess.transform(features, state)))


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.seed)
    specs = default_class_specs(cfg.synth.sigma)
    n = args.n_per_class if args.n_per_class is not None else cfg.synth.n_per_class
    ds = generate_synthetic(n, specs, seed=cfg.seed, schema=cfg.schema)
    write_csv(ds, args.output)
    print(f"wrote {len(ds)} flows ({len(specs)} classes) to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    # No identity cell is read here, so none is parsed or required.
    ds = load_csv(args.input, replace(cfg.schema, identity_columns=()))
    train_rows, test_rows = stratified_split(ds, cfg.test_fraction, cfg.seed)

    state = preprocess.fit(ds.features[train_rows], cfg.schema.compressible_columns)
    x_train = preprocess.transform(ds.features[train_rows], state)
    x_test = preprocess.transform(ds.features[test_rows], state)

    model, history = autoencoder.train(
        x_train,
        x_test,
        cfg.train,
        feature_names=cfg.schema.compressible_columns,
        preprocessor_fingerprint=state.fingerprint(),
        hidden=cfg.hidden,
        latent=cfg.latent_dim,
    )

    out = _out_dir(args)
    model_path = out / "autoencoder.fcae"
    state_path = out / "preprocessor.json"
    autoencoder.save_model(model, model_path)
    state.save(state_path)
    history.to_csv(out / "training_history.csv")
    summary = {
        "architecture": model.dims,
        "epochs_run": len(history.epochs),
        "best_epoch": history.best_epoch,
        "best_test_loss": history.best_test_loss,
        "final_learning_rate": history.epochs[-1].learning_rate,
        "train_rows": int(train_rows.size),
        "test_rows": int(test_rows.size),
        "preprocessor_fingerprint": state.fingerprint(),
        "seed": cfg.seed,
    }
    write_json(out / "train_summary.json", summary, indent=2, sort_keys=True)
    print(f"trained {len(history.epochs)} epochs; best test loss "
          f"{history.best_test_loss:.6g} at epoch {history.best_epoch}")
    print(f"model: {model_path}")
    print(f"preprocessor: {state_path}")
    return EXIT_OK


def cmd_compress(args) -> int:
    cfg = load_config(args.config)
    model, state = _open_model(args, cfg.schema)
    ds = load_csv(args.input, cfg.schema)

    latent = _latents(model, state, ds.features)
    sections = write_latent(args.output, latent, ds, state.fingerprint())
    # An original value counts as 8 bytes, a latent value as its stored width.
    ratio = eval_metrics.compression_ratio(
        model.n_features, model.latent_dim, eval_metrics.DEFAULT_ORIGINAL_WIDTH_BYTES, latent.itemsize
    )
    print(f"compressed {len(ds)} flows to {args.output} "
          f"({model.n_features} -> {model.latent_dim} dims, feature ratio {ratio:g}x)")
    csv_bytes, fclz_bytes = Path(args.input).stat().st_size, sum(sections.values())
    print(f"container ratio {csv_bytes / fclz_bytes:.3f}x: {csv_bytes} CSV bytes -> {fclz_bytes} "
          f"container bytes (header {sections['header']}, latent block {sections['block']}, "
          f"sidecar {sections['sidecar']})")
    return EXIT_OK


def cmd_decompress(args) -> int:
    lf = read_latent(args.input)
    model, state = _open_model(args, lf.schema)
    if lf.preprocessor_fingerprint != state.fingerprint():
        raise FingerprintMismatchError(
            "latent file was produced with a different preprocessor "
            f"({lf.preprocessor_fingerprint[:12]}... vs {state.fingerprint()[:12]}...); "
            "use the model that compressed it and the preprocessor.json that `train` wrote beside it"
        )
    if lf.latent_dim != model.latent_dim:
        raise DataError(
            f"latent width {lf.latent_dim} does not match the model bottleneck {model.latent_dim}"
        )

    recon = preprocess.inverse_transform(autoencoder.decode(model, lf.latent), state)
    write_csv(Dataset(lf.schema, recon, lf.identities, lf.labels), args.output)
    print(f"reconstructed {lf.n_rows} flows to {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    # Only the features are read; the label column stays, so a row that
    # stops before its label cell is still refused.
    schema = replace(cfg.schema, identity_columns=())
    original, recon = both(
        lambda: read_features(args.original, schema), lambda: read_features(args.reconstructed, schema)
    )
    original.setflags(write=False)  # as read_features returns it, also when it came through a pipe
    if len(recon) != len(original):
        raise DataError(f"row count mismatch: original {len(original)}, reconstructed {len(recon)}")

    report = eval_metrics.build_report(original, recon, feature_names=cfg.schema.compressible_columns)
    out = _out_dir(args)
    report.save_json(out / "reconstruction_report.json")
    report.save_feature_csv(out / "feature_reconstruction.csv")
    report.save_correlation_csv(out / "correlation_difference.csv")
    eval_metrics.save_row_percent_errors(
        report.row_percent_errors, report.row_excluded_zero_features, out / "row_percent_errors.csv"
    )

    print(f"rows: {report.n_rows}")
    print(f"mse: {report.mse:.6g}  rmse: {report.rmse:.6g}  "
          f"mape: {report.mape_percent:.6g}% ({report.mape_excluded_zeros} zero entries excluded)")
    defined = [v for v in report.median_percent_error if v is not None]
    if defined:
        print(f"median percent error: worst feature {max(defined):.4g}%")
    print(f"reports in {out}")
    return EXIT_OK


def _classify_arms(args, cfg: PipelineConfig, arms: tuple[str, ...], task: str):
    """Fit one forest per arm on one split of --input and score it on the
    held-out rows. An arm is the feature set the forest sees: "original"
    or "compressed" (the latents `compress` would store). Writes each
    arm's reports and returns the output directory and the reports in arm
    order."""
    ds = load_csv(args.input, replace(cfg.schema, identity_columns=()))  # as in cmd_train
    if not ds.is_labeled:
        raise DataError(f"{task} requires a labeled dataset")
    if len(ds.class_names) < 2:
        raise DataError(f"{task} requires at least 2 classes")
    train_rows, test_rows = stratified_split(ds, cfg.test_fraction, cfg.seed)

    features = {"original": ds.features}
    if "compressed" in arms:
        model, state = _open_model(args, ds.schema)
        features["compressed"] = _latents(model, state, ds.features)

    fitted = []
    for arm in arms:
        x = features[arm]
        forest = fit_forest(
            x[train_rows],
            ds.label_ids[train_rows],
            n_classes=len(ds.class_names),
            n_trees=cfg.forest.n_trees,
            seed=cfg.seed,
        )
        predicted = predict(forest, x[test_rows])
        del forest  # freed before the next arm fits its own
        report = classify_eval.score(ds.label_ids[test_rows], predicted, tuple(ds.class_names))
        fitted.append((arm, report))

    out = _out_dir(args)
    for arm, report in fitted:
        report.save_json(out / f"classification_report_{arm}.json")
        report.save_confusion_csv(out / f"confusion_{arm}.csv")
        report.save_confusion_csv(out / f"confusion_{arm}_normalized.csv", normalized=True)
        with atomic_write(out / f"classification_{arm}.txt") as fh:
            fh.write(report.text_table())
    return out, [report for _, report in fitted]


def cmd_classify(args) -> int:
    cfg = load_config(args.config, args.seed)
    out, (report,) = _classify_arms(args, cfg, ("original",), "classification")
    print(f"original features: accuracy {report.accuracy:.6f}, "
          f"macro f1 {report.macro_f1:.6f}, "
          f"{report.total_misclassified}/{report.total} misclassified")
    print(f"reports in {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.seed)
    out, reports = _classify_arms(args, cfg, ("original", "compressed"), "comparison")
    comparison = classify_eval.compare(*reports)
    comparison.save_json(out / "comparison_report.json")
    with atomic_write(out / "comparison.txt") as fh:
        fh.write(comparison.text_table())

    print(comparison.text_table())
    print(f"reports in {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this pipeline reserves 2 for
    # data problems, so remap usage errors onto the config exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _add_common(sub, seed: bool, output_dir: bool = False):
    """--config, --seed for a command that draws random numbers, and --output-dir."""
    sub.add_argument("--config", help="pipeline config JSON")
    if seed:
        sub.add_argument("--seed", type=int, help="override the config seed")
    if output_dir:
        sub.add_argument("--output-dir", default="out", help="directory for reports and artifacts")


def _add_model(sub):
    sub.add_argument("--model", required=True, help="autoencoder model (.fcae)")
    sub.add_argument("--preprocessor", required=True, help="preprocessor state the model was trained with")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowcodec", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a labeled synthetic flow CSV")
    _add_common(p, seed=True)
    p.add_argument("--n-per-class", type=int, help="rows per class (default from config)")
    p.add_argument("--output", required=True, help="CSV path to write")
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("train", help="fit the preprocessor and autoencoder")
    _add_common(p, seed=True, output_dir=True)
    p.add_argument("--input", required=True, help="flow CSV")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("compress", help="encode flows into a latent container")
    _add_common(p, seed=False)
    _add_model(p)
    p.add_argument("--input", required=True, help="flow CSV")
    p.add_argument("--output", required=True, help="latent container path")
    p.set_defaults(func=cmd_compress)

    p = commands.add_parser("decompress", help="reconstruct flows from a latent container")
    _add_model(p)
    p.add_argument("--input", required=True, help="latent container path")
    p.add_argument("--output", required=True, help="CSV path to write")
    p.set_defaults(func=cmd_decompress)

    p = commands.add_parser("evaluate", help="score reconstruction fidelity")
    _add_common(p, seed=False, output_dir=True)
    p.add_argument("--original", required=True, help="original flow CSV")
    p.add_argument("--reconstructed", required=True, help="reconstructed flow CSV")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("classify", help="train and score a random forest on the original features")
    _add_common(p, seed=True, output_dir=True)
    p.add_argument("--input", required=True, help="labeled flow CSV")
    p.set_defaults(func=cmd_classify)

    p = commands.add_parser("compare", help="classify on original and compressed features, then diff")
    _add_common(p, seed=True, output_dir=True)
    _add_model(p)
    p.add_argument("--input", required=True, help="labeled flow CSV")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except FlowcodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Bottleneck autoencoder: training loop, encode/decode, serialization.

The network is a 21 -> 128 -> 64 -> 16 -> 64 -> 128 -> 21 hourglass of dense
layers with LeakyReLU (slope 0.2) after every layer except the decoder
output, which stays affine. Training minimizes mean Huber reconstruction
loss with Adam, global-norm gradient clipping, plateau-driven learning rate
halving and early stopping; the returned model is the weights snapshot from
the best test-loss epoch.

Each epoch writes one row of ``training_history.csv``:

- ``train_loss``: the running batch mean. Each batch's mean Huber loss is
  taken from the forward pass its step already ran, before that step's
  Adam update, and the epoch's value is their mean weighted by batch rows.
  It is a diagnostic; nothing in training reads it.
- ``test_loss``: the exact mean Huber loss on the test matrix with the
  weights at the end of the epoch. The scheduler, early stopping and the
  best-epoch snapshot read this column only.
- ``learning_rate``: the rate every step of the epoch used.
- ``seconds``: the epoch's wall time. It is outside the determinism
  contract; every other column is a pure function of the inputs and seed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fsutil import atomic_write, field, frame, read_frame
from .errors import DataError, DivergenceError, ModelFormatError
from .neural import (
    DenseLayer,
    TrainConfig,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    huber_loss,
    huber_loss_grad,
    init_layers,
)

DEFAULT_SLOPE = 0.2
DEFAULT_HIDDEN = (128, 64)
DEFAULT_LATENT = 16

MODEL_MAGIC = b"FCAE"
MODEL_FORMAT_VERSION = 1


def architecture_dims(
    n_features: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN, latent: int = DEFAULT_LATENT
) -> list[int]:
    """Symmetric hourglass layer widths around the bottleneck."""
    return [n_features, *hidden, latent, *reversed(hidden), n_features]


def activation_plan(n_layers: int) -> list[bool]:
    """LeakyReLU after every layer, bottleneck included, except the last:
    the decoder output stays affine."""
    return [True] * (n_layers - 1) + [False]


@dataclass
class AutoencoderModel:
    """Trained encoder/decoder halves plus the metadata needed to use them."""

    encoder_layers: list[DenseLayer]
    decoder_layers: list[DenseLayer]
    slope: float
    feature_names: tuple[str, ...]
    preprocessor_fingerprint: str

    @property
    def dims(self) -> list[int]:
        d = [self.encoder_layers[0].fan_in]
        for layer in self.encoder_layers + self.decoder_layers:
            d.append(layer.fan_out)
        return d

    @property
    def n_features(self) -> int:
        return self.encoder_layers[0].fan_in

    @property
    def latent_dim(self) -> int:
        return self.encoder_layers[-1].fan_out

    def _plans(self) -> tuple[list[bool], list[bool]]:
        """`activation_plan` split into its encoder and decoder halves."""
        n = len(self.encoder_layers)
        plan = activation_plan(n + len(self.decoder_layers))
        return plan[:n], plan[n:]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    test_loss: float
    learning_rate: float
    seconds: float


@dataclass
class TrainingHistory:
    epochs: list[EpochStats]
    best_epoch: int

    @property
    def best_test_loss(self) -> float:
        return min(e.test_loss for e in self.epochs)

    def to_csv(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "test_loss", "learning_rate", "seconds"])
            for e in self.epochs:
                writer.writerow(
                    [e.epoch, repr(e.train_loss), repr(e.test_loss), repr(e.learning_rate), repr(e.seconds)]
                )


class PlateauScheduler:
    """Halve the learning rate after ``patience`` epochs without improvement.

    An epoch counts as improved when its loss beats the best seen by more
    than ``threshold``. The rate never drops below ``min_lr``.
    """

    def __init__(self, lr: float, factor: float, patience: int, threshold: float, min_lr: float):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best = float("inf")
        self.bad_epochs = 0

    def step(self, loss: float) -> float:
        if loss < self.best - self.threshold:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.bad_epochs = 0
        return self.lr


class EarlyStopper:
    """Signal a stop after ``patience`` epochs without improvement."""

    def __init__(self, patience: int, threshold: float):
        self.patience = patience
        self.threshold = threshold
        self.best = float("inf")
        self.stale_epochs = 0

    def step(self, loss: float) -> bool:
        if loss < self.best - self.threshold:
            self.best = loss
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        return self.stale_epochs >= self.patience


def train(
    train_matrix: np.ndarray,
    test_matrix: np.ndarray,
    config: TrainConfig,
    feature_names: tuple[str, ...] | None = None,
    preprocessor_fingerprint: str = "",
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    latent: int = DEFAULT_LATENT,
    slope: float = DEFAULT_SLOPE,
) -> tuple[AutoencoderModel, TrainingHistory]:
    """Train the autoencoder on preprocessed feature matrices.

    Each epoch runs a seeded shuffle of the training rows through batched
    forward/backward/clip/Adam, then evaluates the exact mean Huber loss on
    the test matrix, which alone drives the scheduler, early stopping and
    the returned snapshot. ``train_loss`` is the running batch mean, each
    batch scored before its step's update, so no pass over the training
    matrix runs; ``seconds`` is wall time, outside the determinism
    contract. Raises DivergenceError if either loss goes non-finite.
    """
    train_matrix = np.asarray(train_matrix, dtype=np.float64)
    test_matrix = np.asarray(test_matrix, dtype=np.float64)
    for name, m in (("train", train_matrix), ("test", test_matrix)):
        if m.ndim != 2 or m.shape[0] == 0:
            raise DataError(f"{name} matrix must be a non-empty 2-D array, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DataError(f"{name} matrix contains non-finite values")
    width = train_matrix.shape[1]
    if test_matrix.shape[1] != width:
        raise DataError("train and test matrices have different widths")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(width))

    dims = architecture_dims(width, hidden, latent)
    n_encoder = len(hidden) + 1
    activations = activation_plan(len(dims) - 1)

    root = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss = root.spawn(2)
    layers = init_layers(dims, slope, init_ss)
    rng = np.random.default_rng(shuffle_ss)

    scheduler = PlateauScheduler(
        config.learning_rate,
        config.plateau_factor,
        config.plateau_patience,
        config.improvement_threshold,
        config.min_lr,
    )
    stopper = EarlyStopper(config.early_stop_patience, config.improvement_threshold)

    n = train_matrix.shape[0]
    history: list[EpochStats] = []
    best_loss = float("inf")
    best_epoch = 0
    best_weights: list[DenseLayer] | None = None
    step_count = 0

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = scheduler.lr
        perm = rng.permutation(n)
        loss_sum = 0.0
        # Overflow on the way to divergence is expected; the explicit
        # finiteness check below turns it into DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                batch = train_matrix[perm[start : start + config.batch_size]]
                out, cache = forward(layers, activations, batch, slope, with_cache=True)
                loss_sum += huber_loss(batch, out, config.huber_delta) * batch.shape[0]
                grad_out = huber_loss_grad(batch, out, config.huber_delta)
                grads = backward(layers, activations, cache, grad_out, slope)
                grads = clip_global_norm(grads, config.clip_max_norm)
                step_count += 1
                adam_step(layers, grads, config, step_count, learning_rate=lr)

            train_loss = loss_sum / n
            test_loss = huber_loss(test_matrix, forward(layers, activations, test_matrix, slope), config.huber_delta)
        if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
            raise DivergenceError(epoch)
        history.append(EpochStats(epoch, train_loss, test_loss, lr, time.perf_counter() - t0))

        if test_loss < best_loss:
            best_loss = test_loss
            best_epoch = epoch
            best_weights = [l.copy_weights() for l in layers]

        scheduler.step(test_loss)
        if stopper.step(test_loss):
            break

    assert best_weights is not None
    model = AutoencoderModel(
        encoder_layers=best_weights[:n_encoder],
        decoder_layers=best_weights[n_encoder:],
        slope=slope,
        feature_names=tuple(feature_names),
        preprocessor_fingerprint=preprocessor_fingerprint,
    )
    return model, TrainingHistory(epochs=history, best_epoch=best_epoch)


def encode(model: AutoencoderModel, matrix: np.ndarray) -> np.ndarray:
    """Compress preprocessed rows to their latent representation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != model.n_features:
        raise DataError(f"expected Nx{model.n_features} input, got {matrix.shape}")
    return forward(model.encoder_layers, model._plans()[0], matrix, model.slope)


def decode(model: AutoencoderModel, latent: np.ndarray) -> np.ndarray:
    """Reconstruct preprocessed rows from latent vectors."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 2 or latent.shape[1] != model.latent_dim:
        raise DataError(f"expected Nx{model.latent_dim} latent input, got {latent.shape}")
    return forward(model.decoder_layers, model._plans()[1], latent, model.slope)


def reconstruct(model: AutoencoderModel, matrix: np.ndarray) -> np.ndarray:
    return decode(model, encode(model, matrix))


def save_model(model: AutoencoderModel, path: str | Path) -> None:
    """Write the versioned binary container; atomic (temp file + rename)."""
    header = {
        "dims": model.dims,
        "n_encoder_layers": len(model.encoder_layers),
        "slope": model.slope,
        "feature_names": list(model.feature_names),
        "preprocessor_fingerprint": model.preprocessor_fingerprint,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(frame(MODEL_MAGIC, MODEL_FORMAT_VERSION, header_bytes))
        for layer in model.encoder_layers + model.decoder_layers:
            fh.write(np.ascontiguousarray(layer.W, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())


def load_model(path: str | Path) -> AutoencoderModel:
    """Read a model container back; weights round-trip bit-exactly."""
    header, blob, payload_start = read_frame(path, "autoencoder model", MODEL_MAGIC, MODEL_FORMAT_VERSION)
    dims = field(header, "dims", list[int], path)
    n_encoder = field(header, "n_encoder_layers", int, path)
    slope = float(field(header, "slope", float, path))
    feature_names = tuple(field(header, "feature_names", list[str], path))
    fingerprint = field(header, "preprocessor_fingerprint", str, path)

    # Both halves hold at least one layer: the decoder's last is the affine output.
    if len(dims) < 3 or not 0 < n_encoder < len(dims) - 1 or min(dims) < 1:
        raise ModelFormatError(f"{path}: implausible architecture dims {dims}")
    if dims[0] != dims[-1] or dims[0] != len(feature_names):
        raise ModelFormatError(
            f"{path}: dims {dims} do not match the {len(feature_names)} named features"
        )

    expected = sum((dims[i] * dims[i + 1]) + dims[i + 1] for i in range(len(dims) - 1)) * 8
    payload = blob[payload_start:]
    if len(payload) != expected:
        raise ModelFormatError(
            f"{path}: weight payload is {len(payload)} bytes, expected {expected} (truncated or padded)"
        )

    layers: list[DenseLayer] = []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_bytes = fan_out * fan_in * 8
        W = np.frombuffer(payload, dtype="<f8", count=fan_out * fan_in, offset=offset).reshape(
            fan_out, fan_in
        )
        offset += w_bytes
        b = np.frombuffer(payload, dtype="<f8", count=fan_out, offset=offset)
        offset += fan_out * 8
        layers.append(DenseLayer(W=W.astype(np.float64), b=b.astype(np.float64)))
    return AutoencoderModel(
        encoder_layers=layers[:n_encoder],
        decoder_layers=layers[n_encoder:],
        slope=slope,
        feature_names=feature_names,
        preprocessor_fingerprint=fingerprint,
    )

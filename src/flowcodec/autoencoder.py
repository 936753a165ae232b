"""Bottleneck autoencoder: training loop, encode/decode, serialization.

The network is a 21 -> 128 -> 64 -> 16 -> 64 -> 128 -> 21 hourglass of dense
layers with LeakyReLU (slope 0.2) after every layer except the decoder
output, which stays affine. Training minimizes mean Huber reconstruction
loss with Adam, global-norm gradient clipping, plateau-driven learning rate
halving and early stopping; the returned model is the weights snapshot from
the best test-loss epoch.

Precision is split as in mixed-precision training (Micikevicius et al.,
ICLR 2018): every training step (forward with its cache, the Huber loss
and its gradient, backward, clipping and Adam) runs in float32, on a
float32 copy of the training matrix and a float32 `TrainState`, which
holds the weights, the gradients and the Adam moments as one contiguous
vector each. The weights are drawn in float64 and then cast. Each epoch's
test loss runs in float64, on one float64 copy of that epoch's parameter
vector, whose views are the layers, and the copy of the best epoch is the
returned model. So the saved ``.fcae`` file, `encode` and `decode` are
float64, as they were when training ran in float64, and a model saved
then loads and gives the same outputs.

Each epoch writes one row of ``training_history.csv``:

- ``train_loss``: the running batch mean. Each batch's mean Huber loss is
  taken from the forward pass its step already ran, before that step's
  Adam update, and the epoch's value is their mean weighted by batch rows.
  It is a diagnostic; nothing in training reads it.
- ``test_loss``: the exact float64 mean Huber loss on the test matrix with
  the weights at the end of the epoch. The scheduler, early stopping and the
  best-epoch snapshot read this column only.
- ``learning_rate``: the rate every step of the epoch used.
- ``seconds``: the epoch's wall time. It is outside the determinism
  contract; every other column is a pure function of the inputs and seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from ._fsutil import atomic_write, field, frame, read_frame, write_table
from .errors import DataError, DivergenceError, ModelFormatError
from .neural import (
    DenseLayer,
    TrainConfig,
    TrainState,
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
    """The trained layer stack plus the metadata needed to use it.

    ``layers`` and ``n_encoder`` mirror the ``.fcae`` header's ``dims`` and
    ``n_encoder_layers``: the first ``n_encoder`` layers are the encoder,
    ending at the bottleneck, and the rest are the decoder.
    """

    layers: list[DenseLayer]
    n_encoder: int
    slope: float
    feature_names: tuple[str, ...]
    preprocessor_fingerprint: str

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].fan_in] + [layer.fan_out for layer in self.layers]

    @property
    def n_features(self) -> int:
        return self.layers[0].fan_in

    @property
    def latent_dim(self) -> int:
        return self.layers[self.n_encoder - 1].fan_out


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
        write_table(
            path,
            ["epoch", "train_loss", "test_loss", "learning_rate", "seconds"],
            map(astuple, self.epochs),
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
    float32 forward/backward/clip/Adam, then evaluates the exact mean Huber
    loss on the test matrix in float64, with a float64 copy of the
    parameter vector; that loss alone drives the scheduler, early stopping
    and the returned snapshot, which is the copy it was computed with. The initial
    weights are drawn in float64 and then cast, so the seed picks the same
    starting point as a float64 run. ``train_loss`` is the running batch
    mean, each batch scored before its step's update, so no pass over the
    training matrix runs; ``seconds`` is wall time, outside the determinism
    contract. Raises DivergenceError if either loss goes non-finite, which
    includes a training value beyond float32's range.
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
    state = TrainState(init_layers(dims, slope, init_ss), np.float32)
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
    # Overflow on the way to divergence is expected; the explicit
    # finiteness check below turns it into DivergenceError. A training value
    # beyond float32's range casts to inf and ends there too.
    with np.errstate(over="ignore", invalid="ignore"):
        train32 = train_matrix.astype(np.float32)

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = scheduler.lr
        perm = rng.permutation(n)
        loss_sum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                batch = train32[perm[start : start + config.batch_size]]
                out, cache = forward(state.layers, activations, batch, slope, with_cache=True)
                loss_sum += huber_loss(batch, out, config.huber_delta) * batch.shape[0]
                grad_out = huber_loss_grad(batch, out, config.huber_delta)
                backward(state.layers, activations, cache, grad_out, slope, out=state.grads)
                clip_global_norm(state, config.clip_max_norm)
                step_count += 1
                adam_step(state, config, step_count, learning_rate=lr)

            train_loss = loss_sum / n
            weights = state.snapshot(np.float64)
            test_loss = huber_loss(test_matrix, forward(weights, activations, test_matrix, slope), config.huber_delta)
        if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
            raise DivergenceError(epoch)
        history.append(EpochStats(epoch, train_loss, test_loss, lr, time.perf_counter() - t0))

        if test_loss < best_loss:
            best_loss = test_loss
            best_epoch = epoch
            best_weights = weights

        scheduler.step(test_loss)
        if stopper.step(test_loss):
            break

    assert best_weights is not None
    model = AutoencoderModel(
        layers=best_weights,
        n_encoder=n_encoder,
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
    n = model.n_encoder
    return forward(model.layers[:n], activation_plan(len(model.layers))[:n], matrix, model.slope)


def decode(model: AutoencoderModel, latent: np.ndarray) -> np.ndarray:
    """Reconstruct preprocessed rows from latent vectors."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 2 or latent.shape[1] != model.latent_dim:
        raise DataError(f"expected Nx{model.latent_dim} latent input, got {latent.shape}")
    n = model.n_encoder
    return forward(model.layers[n:], activation_plan(len(model.layers))[n:], latent, model.slope)


def reconstruct(model: AutoencoderModel, matrix: np.ndarray) -> np.ndarray:
    return decode(model, encode(model, matrix))


def save_model(model: AutoencoderModel, path: str | Path) -> None:
    """Write the versioned binary container; atomic (temp file + rename)."""
    header = {
        "dims": model.dims,
        "n_encoder_layers": model.n_encoder,
        "slope": model.slope,
        "feature_names": list(model.feature_names),
        "preprocessor_fingerprint": model.preprocessor_fingerprint,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(frame(MODEL_MAGIC, MODEL_FORMAT_VERSION, header_bytes))
        for layer in model.layers:
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
        layers=layers,
        n_encoder=n_encoder,
        slope=slope,
        feature_names=feature_names,
        preprocessor_fingerprint=fingerprint,
    )

"""Minimal dense-network machinery with exact analytic gradients.

Everything here is plain numpy and deterministic: seeded initialization,
LeakyReLU activations, mean Huber loss, global-norm gradient clipping and
Adam with L2-coupled weight decay. A full training step is a pure function
of (parameters, batch, step count, seed).

Every kernel computes in the dtype of the arrays it is given: float32
layers, batches, gradients and Adam moments stay float32, and float64 ones
stay float64. Scalars enter as Python floats, which numpy never lets widen
an array (a numpy float64 scalar would, under numpy 2's promotion rules).
`huber_loss` alone returns a Python float, averaged in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

_FLOAT32_TINY = float(np.finfo(np.float32).tiny)


@dataclass
class DenseLayer:
    """Affine layer y = x W^T + b with per-parameter Adam state."""

    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    m_W: np.ndarray = field(init=False)
    v_W: np.ndarray = field(init=False)
    m_b: np.ndarray = field(init=False)
    v_b: np.ndarray = field(init=False)
    version: int = field(init=False, default=0)

    def __post_init__(self):
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise DataError(f"inconsistent layer shapes W={self.W.shape} b={self.b.shape}")
        self.m_W = np.zeros_like(self.W)
        self.v_W = np.zeros_like(self.W)
        self.m_b = np.zeros_like(self.b)
        self.v_b = np.zeros_like(self.b)

    @property
    def fan_in(self) -> int:
        return self.W.shape[1]

    @property
    def fan_out(self) -> int:
        return self.W.shape[0]


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    huber_delta: float = 1.0
    clip_max_norm: float = 1.0
    batch_size: int = 256
    max_epochs: int = 200
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    early_stop_patience: int = 20
    min_lr: float = 1e-6
    improvement_threshold: float = 1e-6
    decoupled_weight_decay: bool = False
    seed: int = 42

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.seed < 0 or self.weight_decay < 0:
            raise DataError("seed and weight_decay must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise DataError("adam_beta1 and adam_beta2 must be in [0, 1)")
        if self.learning_rate <= 0 or self.min_lr <= 0:
            raise DataError("learning rates must be positive")
        if self.min_lr > self.learning_rate:
            # A plateau "halving" would raise the rate to min_lr.
            raise DataError(
                f"min_lr must not exceed learning_rate, got {self.min_lr} > {self.learning_rate}"
            )
        if self.improvement_threshold < 0:
            # Every epoch would count as an improvement, so neither the
            # scheduler nor early stopping would ever act.
            raise DataError(f"improvement_threshold must be >= 0, got {self.improvement_threshold}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise DataError("plateau_factor must be in (0, 1)")
        for name in ("batch_size", "max_epochs", "plateau_patience", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive")
        if min(self.huber_delta, self.clip_max_norm, self.adam_epsilon) <= 0:
            raise DataError("huber_delta, clip_max_norm and adam_epsilon must be positive")
        if self.adam_epsilon < _FLOAT32_TINY:
            # In a float32 step it is subnormal or 0. Where a gradient's
            # square underflows to 0, m / eps then overflows (a gradient of
            # 1e-25 moved a weight by -1e11 at 1e-39), and below about
            # 1.4e-45 a zero gradient gets a 0/0 update.
            raise DataError(
                f"adam_epsilon must be at least {_FLOAT32_TINY} (float32's smallest normal), "
                f"got {self.adam_epsilon}"
            )


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise max(x*slope, x), in one new array.

    The product is made first and the maximum is taken into it in place, so
    a call allocates one array the size of ``x`` rather than two. ``x`` must
    have at least one dimension: numpy returns a scalar, not an array, for
    the product of a 0-d array.
    """
    if not 0.0 < slope < 1.0:
        raise DataError(f"slope must be in (0, 1), got {slope}")
    a = x * slope
    np.maximum(a, x, out=a)
    return a


def leaky_relu_grad(pre_activation: np.ndarray, slope: float) -> np.ndarray:
    """1.0 where pre_activation > 0, else ``slope``, for a slope in (0, 1).

    The sub-gradient at exactly 0 (and at NaN) is the slope, fixed for
    determinism. This is max(float(pre > 0), slope) in the pre-activation's
    dtype: 1.0 or the slope rounded to that dtype, as
    ``np.where(pre > 0, 1.0, slope)`` cast to it gives, but ``where`` over a
    mask whose signs look random runs a branchy loop about six times slower
    than ``maximum``'s. ``dtype`` casts the mask inside the ufunc, so no
    second float array is made.
    """
    return np.maximum(pre_activation > 0.0, slope, dtype=pre_activation.dtype)


def huber_loss(y: np.ndarray, yhat: np.ndarray, delta: float) -> float:
    """Mean over all elements of the Huber penalty on residuals y - yhat.

    The penalty is computed elementwise in the inputs' dtype (float32 for a
    training batch) and summed in float64, so the mean of a float32 batch is
    not cut to float32 and no float64 copy of the batch is made."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape:
        raise DataError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    r = y - yhat
    a = np.abs(r)
    quad = 0.5 * r * r
    lin = delta * (a - 0.5 * delta)
    return float(np.mean(np.where(a <= delta, quad, lin), dtype=np.float64))


def huber_loss_grad(y: np.ndarray, yhat: np.ndarray, delta: float) -> np.ndarray:
    """d(mean Huber)/d(yhat); the mean is over every element."""
    if y.shape != yhat.shape:
        raise DataError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    r = y - yhat
    return -np.clip(r, -delta, delta) / r.size


@dataclass
class ForwardCache:
    """Intermediates needed by backward; pinned to the parameter versions it
    was computed with so a stale cache is rejected."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    output: np.ndarray
    versions: tuple[int, ...]


def forward(
    layers: list[DenseLayer],
    activations: list[bool],
    x: np.ndarray,
    slope: float,
    with_cache: bool = False,
):
    """Run a stack of affine layers with optional LeakyReLU after each, in
    the dtype of the first layer's weights (``x`` is cast to it).

    Returns the batch output, or (output, cache) when with_cache is set.
    """
    if len(activations) != len(layers):
        raise DataError("activation plan length must match layer count")
    x = np.asarray(x, dtype=layers[0].W.dtype if layers else np.float64)
    if x.ndim != 2:
        raise DataError(f"input must be a batch matrix, got shape {x.shape}")
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    a = x
    for i, (layer, act) in enumerate(zip(layers, activations)):
        if a.shape[1] != layer.fan_in:
            raise DataError(
                f"layer {i}: input width {a.shape[1]} does not match fan-in {layer.fan_in}"
            )
        if with_cache:
            inputs.append(a)
        z = a @ layer.W.T
        z += layer.b
        if with_cache:
            preacts.append(z)
        a = leaky_relu(z, slope) if act else z
    if not with_cache:
        return a
    cache = ForwardCache(
        inputs=inputs, preacts=preacts, output=a, versions=tuple(l.version for l in layers)
    )
    return a, cache


def backward(
    layers: list[DenseLayer],
    activations: list[bool],
    cache: ForwardCache,
    grad_output: np.ndarray,
    slope: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate d(loss)/d(output) into per-layer (dW, db) gradients."""
    if cache.versions != tuple(l.version for l in layers):
        raise DataError("stale forward cache: parameters changed since the forward pass")
    if grad_output.shape != cache.output.shape:
        raise DataError("grad_output shape does not match forward output")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    da = grad_output
    for i in range(len(layers) - 1, -1, -1):
        if activations[i]:
            dz = leaky_relu_grad(cache.preacts[i], slope)
            dz *= da
        else:
            dz = da
        grads[i] = (dz.T @ cache.inputs[i], dz.sum(axis=0))
        if i > 0:
            da = dz @ layers[i].W
    return grads


def global_grad_norm(grads: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The L2 norm of all gradients together, with the squares summed in
    float64: a float32 sum of squares overflows from a norm of about 1.8e19,
    and clipping by an infinite norm would zero every gradient."""
    total = 0.0
    for dW, db in grads:
        total += float(np.sum(np.square(dW, dtype=np.float64))) + float(np.sum(np.square(db, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_global_norm(
    grads: list[tuple[np.ndarray, np.ndarray]], max_norm: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scale all gradients jointly so their global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise DataError("max_norm must be positive")
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return [(dW * scale, db * scale) for dW, db in grads]


def adam_step(
    layers: list[DenseLayer],
    grads: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    step_count: int,
    learning_rate: float | None = None,
) -> None:
    """In-place Adam update with bias correction.

    Weight decay couples as an L2 term added to the raw weight gradient
    before the moment update (biases exempt). Pass learning_rate to override
    config.learning_rate, e.g. from a scheduler.
    """
    if step_count < 1:
        raise DataError("step_count starts at 1")
    lr = config.learning_rate if learning_rate is None else learning_rate
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    bc1 = 1.0 - b1**step_count
    bc2 = 1.0 - b2**step_count
    for layer, (dW, db) in zip(layers, grads):
        gW = dW
        if config.weight_decay != 0.0 and not config.decoupled_weight_decay:
            gW = dW + config.weight_decay * layer.W
        layer.m_W = b1 * layer.m_W + (1.0 - b1) * gW
        layer.v_W = b2 * layer.v_W + (1.0 - b2) * gW * gW
        layer.m_b = b1 * layer.m_b + (1.0 - b1) * db
        layer.v_b = b2 * layer.v_b + (1.0 - b2) * db * db
        if config.weight_decay != 0.0 and config.decoupled_weight_decay:
            layer.W -= lr * config.weight_decay * layer.W
        layer.W -= lr * (layer.m_W / bc1) / (np.sqrt(layer.v_W / bc2) + eps)
        layer.b -= lr * (layer.m_b / bc1) / (np.sqrt(layer.v_b / bc2) + eps)
        layer.version += 1


def init_layers(dims: list[int], slope: float, seed) -> list[DenseLayer]:
    """Seeded uniform fan-in initialization adjusted for the leaky slope.

    Weights are uniform in +-sqrt(6 / ((1 + slope^2) * fan_in)); biases zero.
    ``seed`` may be an int or a numpy SeedSequence.
    """
    if len(dims) < 2:
        raise DataError("need at least input and output dims")
    if any(d < 1 for d in dims):
        raise DataError(f"all dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / ((1.0 + slope * slope) * fan_in))
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(W=W, b=np.zeros(fan_out)))
    return layers

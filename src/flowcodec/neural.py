"""Minimal dense-network machinery with exact analytic gradients.

Everything here is plain numpy and deterministic: seeded initialization,
LeakyReLU activations, mean Huber loss, global-norm gradient clipping and
Adam with L2-coupled weight decay. A full training step is a pure function
of (parameters, batch, step count, seed). The training recipe's
hyperparameters are module constants, listed together below; `TrainConfig`
holds only what a run may vary.

A training run keeps its state in a `TrainState`: the parameters, the
gradients and both Adam moments are each one contiguous vector, every
layer's weights first and then every layer's biases, and each layer's
``W`` and ``b`` (and ``dW`` and ``db``) are views into them. `backward`
writes into the gradient views, and `clip_global_norm` and `adam_step` run
as a few in-place passes over whole vectors. Each element still goes
through the same operations, in the same order, as a per-layer update, so
the weights do not depend on the layout.

Every kernel computes in the dtype of the arrays it is given: float32
layers, batches, gradients and Adam moments stay float32, and float64 ones
stay float64. Scalars enter as Python floats, which numpy never lets widen
an array (a numpy float64 scalar would, under numpy 2's promotion rules).
`huber_loss` alone returns a Python float, averaged in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

# Rows per block of an uncached `forward`. At the default 21 -> 128 -> 64
# -> 16 encoder a float64 block's activations peak near 6 MB. 2048-row
# blocks made a 5k-row decompress 6-10% slower.
_BLOCK_ROWS = 4096
_SCRATCH_ROWS = 512  # rows per chunk of an in-place LeakyReLU (`leaky_relu`)


@dataclass
class DenseLayer:
    """Affine layer y = x W^T + b. ``version`` counts the updates applied,
    so a forward cache from before one is refused."""

    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    version: int = field(init=False, default=0)

    def __post_init__(self):
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise DataError(f"inconsistent layer shapes W={self.W.shape} b={self.b.shape}")

    @property
    def fan_in(self) -> int:
        return self.W.shape[1]

    @property
    def fan_out(self) -> int:
        return self.W.shape[0]


def _views(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (W, b) pair of views into ``vec`` per weight shape: every
    layer's weights in layer order come first, then every layer's biases."""
    pairs = []
    w = 0
    b = sum(rows * cols for rows, cols in shapes)
    for rows, cols in shapes:
        pairs.append((vec[w : w + rows * cols].reshape(rows, cols), vec[b : b + rows]))
        w += rows * cols
        b += rows
    return pairs


class TrainState:
    """A training run's parameters, gradients and Adam moments, each held in
    one contiguous vector of ``dtype``.

    ``params``, ``grad``, ``m`` and ``v`` share one layout: every layer's
    weights, then every layer's biases, so weight decay touches the one
    slice ``[:n_weights]``. ``layers`` are views into ``params``, and
    ``grads`` holds one ``(dW, db)`` pair of views into ``grad`` per layer,
    for `backward` to write into. A step copies nothing between the two
    forms. `adam_step` uses ``grad`` as working space, so after a step it
    holds no gradient until `backward` fills it again.
    """

    def __init__(self, layers: list[DenseLayer], dtype):
        self.shapes = [layer.W.shape for layer in layers]
        self.n_weights = sum(layer.W.size for layer in layers)
        self.params = np.concatenate([l.W.ravel() for l in layers] + [l.b for l in layers]).astype(dtype)
        self.layers = [DenseLayer(W=W, b=b) for W, b in _views(self.params, self.shapes)]
        self.grad = np.zeros_like(self.params)
        self.grads = _views(self.grad, self.shapes)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self._scratch = np.empty_like(self.params)
        # global_grad_norm's squares: float64 whatever the dtype.
        self._squares = np.empty(self.params.size, dtype=np.float64)
        self._square_pairs = _views(self._squares, self.shapes)

    def snapshot(self, dtype) -> list[DenseLayer]:
        """Layers whose weights are views into a new ``dtype`` copy of
        ``params``, which later steps leave as it is."""
        return [DenseLayer(W=W, b=b) for W, b in _views(self.params.astype(dtype), self.shapes)]


# The one training recipe. The first four values are Adam's published
# defaults (Kingma & Ba, ICLR 2015). `adam_step` reads the betas, epsilon
# and the weight decay; `autoencoder.train` reads the rest.
LEARNING_RATE = 0.001  # Adam's step size until the first plateau
ADAM_BETA1 = 0.9  # decay of the first-moment (mean) estimate
ADAM_BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
ADAM_EPSILON = 1e-8  # added to the root of the second moment; a float32 step keeps it (normal)
WEIGHT_DECAY = 1e-5  # L2 coefficient added to each weight gradient; biases are exempt
HUBER_DELTA = 1.0  # residual at which the Huber penalty turns from quadratic to linear
CLIP_MAX_NORM = 1.0  # global L2 norm each step's gradients are clipped to
BATCH_SIZE = 256  # rows per step; an epoch's last batch holds the remainder
IMPROVEMENT_THRESHOLD = 1e-6  # how far a test loss must beat the best to count as improved
PLATEAU_PATIENCE = 5  # epochs without improvement before the rate is cut
PLATEAU_FACTOR = 0.5  # the cut: the rate is multiplied by this
MIN_LR = 1e-6  # the floor no cut takes the rate below
EARLY_STOP_PATIENCE = 20  # epochs without improvement that end training


@dataclass
class TrainConfig:
    """What a training run may vary: its epoch cap and its seed. Every other
    hyperparameter is one of the module constants above."""

    max_epochs: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def leaky_relu(x: np.ndarray, slope: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(x*slope, x), in one new array; or, given a flat
    ``scratch`` of x's dtype, in place in the 2-D ``x``, which is returned.

    A new array is made as the product, and the maximum is taken into it.
    In place, each chunk of rows that fits in ``scratch`` has its product
    made there and its maximum written back. Either way the operands meet
    as max(x*slope, x), so NaN and -0.0 come out alike. ``x`` must have at
    least one dimension: numpy returns a scalar, not an array, for the
    product of a 0-d array.
    """
    if not 0.0 < slope < 1.0:
        raise DataError(f"slope must be in (0, 1), got {slope}")
    if scratch is None:
        a = x * slope
        return np.maximum(a, x, out=a)
    step = scratch.size // x.shape[1]
    for lo in range(0, len(x), step):
        part = x[lo : lo + step]
        np.maximum(np.multiply(part, slope, out=scratch[: part.size].reshape(part.shape)), part, out=part)
    return x


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
    not cut to float32 and no float64 copy of the batch is made. At most
    three arrays of the inputs' size, and one bool mask, are alive at once:
    the linear branch is formed in place in ``|r|``, the quadratic one in a
    second array, and the residual is dropped before ``where`` picks."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape:
        raise DataError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    r = y - yhat
    penalty = np.abs(r)
    small = penalty <= delta
    quad = 0.5 * r
    quad *= r
    del r
    penalty -= 0.5 * delta
    penalty *= delta
    return float(np.mean(np.where(small, quad, penalty), dtype=np.float64))


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

    Without a cache, each LeakyReLU runs in place, and an input of
    ``2 * _BLOCK_ROWS`` rows or more runs in blocks of ``_BLOCK_ROWS`` rows,
    the last block taking the remainder, each written into one output array.
    So two activations of one block (under ``2 * _BLOCK_ROWS`` rows), a
    layer's input and output, and a ``_SCRATCH_ROWS``-row scratch are alive
    at a time, not those of every row. A row's output is bit-identical
    either way: each of its values is a dot product over that row alone, and
    no block is short enough for BLAS to take its small-row path, which can
    round differently (75 rows or fewer, on one OpenBLAS build).
    """
    if len(activations) != len(layers):
        raise DataError("activation plan length must match layer count")
    x = np.asarray(x, dtype=layers[0].W.dtype if layers else np.float64)
    if x.ndim != 2:
        raise DataError(f"input must be a batch matrix, got shape {x.shape}")
    width = x.shape[1]
    for i, layer in enumerate(layers):
        if width != layer.fan_in:
            raise DataError(f"layer {i}: input width {width} does not match fan-in {layer.fan_in}")
        width = layer.fan_out
    if with_cache:
        inputs: list[np.ndarray] = []
        preacts: list[np.ndarray] = []
        a = _forward_rows(layers, activations, x, slope, inputs, preacts)
        cache = ForwardCache(
            inputs=inputs, preacts=preacts, output=a, versions=tuple(l.version for l in layers)
        )
        return a, cache
    n = x.shape[0]
    if n < 2 * _BLOCK_ROWS:
        return _forward_rows(layers, activations, x, slope)
    out = np.empty((n, width), dtype=np.result_type(x.dtype, *(l.W.dtype for l in layers)))
    edges = [*range(0, n // _BLOCK_ROWS * _BLOCK_ROWS, _BLOCK_ROWS), n]
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = _forward_rows(layers, activations, x[lo:hi], slope)
    return out


def _forward_rows(layers, activations, a, slope, inputs=None, preacts=None):
    """The layer stack over every row of ``a`` in one pass, appending each
    layer's input and pre-activation to ``inputs`` and ``preacts`` when they
    are given. Without ``preacts`` each LeakyReLU overwrites its layer's
    product (never ``a``), through one scratch of ``_SCRATCH_ROWS`` rows of
    the widest activated layer."""
    scratch = None
    if preacts is None:
        width = max((l.fan_out for l, act in zip(layers, activations) if act), default=0)
        scratch = np.empty(_SCRATCH_ROWS * width, np.result_type(a, *(l.W for l in layers)))
    for layer, act in zip(layers, activations):
        if inputs is not None:
            inputs.append(a)
        z = a @ layer.W.T
        z += layer.b
        if preacts is not None:
            preacts.append(z)
        a = leaky_relu(z, slope, scratch) if act else z
    return a


def backward(
    layers: list[DenseLayer],
    activations: list[bool],
    cache: ForwardCache,
    grad_output: np.ndarray,
    slope: float,
    out: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate d(loss)/d(output) into per-layer (dW, db) gradients.

    They are written into ``out`` (a `TrainState`'s ``grads``) when it is
    given, else into new arrays, and returned. ``grad_output`` must have the
    parameters' dtype: through ``out`` another dtype would be cast silently.
    """
    if cache.versions != tuple(l.version for l in layers):
        raise DataError("stale forward cache: parameters changed since the forward pass")
    if grad_output.shape != cache.output.shape:
        raise DataError("grad_output shape does not match forward output")
    if grad_output.dtype != layers[-1].W.dtype:
        raise DataError(f"grad_output is {grad_output.dtype}, but the parameters are {layers[-1].W.dtype}")
    if out is None:
        out = [(np.empty_like(l.W), np.empty_like(l.b)) for l in layers]
    da = grad_output
    for i in range(len(layers) - 1, -1, -1):
        if activations[i]:
            dz = leaky_relu_grad(cache.preacts[i], slope)
            dz *= da
        else:
            dz = da
        dW, db = out[i]
        np.matmul(dz.T, cache.inputs[i], out=dW)
        np.add.reduce(dz, axis=0, out=db)
        if i > 0:
            da = dz @ layers[i].W
    return out


def global_grad_norm(state: TrainState) -> float:
    """The L2 norm of ``state.grad``.

    The squares are taken in float64, as one pass into a preallocated
    buffer: a float32 sum of squares overflows from a norm of about 1.8e19,
    and clipping by an infinite norm would zero every gradient. They are
    summed per array, in layer order and each layer's weights before its
    biases, so the norm rounds as a layer-by-layer sum does."""
    np.square(state.grad, out=state._squares, dtype=np.float64)
    total = 0.0
    for sq_W, sq_b in state._square_pairs:
        total += float(np.add.reduce(sq_W, axis=None)) + float(np.add.reduce(sq_b))
    return float(np.sqrt(total))


def clip_global_norm(state: TrainState, max_norm: float) -> None:
    """Scale ``state.grad`` in place so its global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise DataError("max_norm must be positive")
    norm = global_grad_norm(state)
    if norm <= max_norm or norm == 0.0:
        return
    state.grad *= max_norm / norm


def adam_step(state: TrainState, step_count: int, learning_rate: float) -> None:
    """In-place Adam update with bias correction, from ``state.grad``, at
    ``learning_rate`` (a scheduler's current rate).

    Weight decay couples as an L2 term (``WEIGHT_DECAY``) added to the raw
    weight gradient before the moment update (biases exempt); ``b1``, ``b2``
    and ``eps`` below are ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``.

    Each pass runs over a whole vector, or over its weight slice for decay,
    and each element goes through one per-layer update's operations in its
    order: ``dW + wd*W``, ``b1*m + (1-b1)*g``, ``b2*v + ((1-b2)*g)*g``, then
    ``W - lr*(m/bc1) / (sqrt(v/bc2) + eps)``. ``grad`` and one scratch
    vector hold the intermediates, so no array is allocated.
    """
    if step_count < 1:
        raise DataError("step_count starts at 1")
    if state.grad.dtype != state.params.dtype:
        raise DataError(f"gradient is {state.grad.dtype}, but the parameters are {state.params.dtype}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**step_count
    bc2 = 1.0 - b2**step_count
    p, g, m, v, t = state.params, state.grad, state.m, state.v, state._scratch
    n = state.n_weights
    np.multiply(p[:n], WEIGHT_DECAY, out=t[:n])
    g[:n] += t[:n]
    m *= b1
    np.multiply(g, 1.0 - b1, out=t)
    m += t
    v *= b2
    np.multiply(g, 1.0 - b2, out=t)
    t *= g
    v += t
    np.divide(m, bc1, out=g)
    g *= learning_rate
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPSILON
    g /= t
    p -= g
    for layer in state.layers:
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

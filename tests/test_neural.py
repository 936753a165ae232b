import dataclasses
import tracemalloc

import numpy as np
import pytest

from flowcodec import neural
from flowcodec.errors import DataError
from flowcodec.neural import (
    _SCRATCH_ROWS,
    LEARNING_RATE,
    DenseLayer,
    TrainConfig,
    TrainState,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    global_grad_norm,
    huber_loss,
    huber_loss_grad,
    init_layers,
    leaky_relu,
    leaky_relu_grad,
)

SLOPE = 0.2


# ---------------------------------------------------------------- activations


def test_leaky_relu_values():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 2.0])
    out = leaky_relu(x, SLOPE)
    assert np.allclose(out, [-0.2, -0.1, 0.0, 0.5, 2.0])
    with pytest.raises(DataError):
        leaky_relu(x, 1.5)


def test_leaky_relu_in_place_matches_the_new_array_bit_for_bit():
    # Given a scratch, x is overwritten in chunks of the rows that fit in
    # it; signed zeros, NaNs, infinities and subnormals come out as the
    # new-array form gives them.
    edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    x = np.tile(edges, (7, 1))
    want = leaky_relu(x, SLOPE)
    scratch = np.empty(3 * edges.size + 2)  # chunks of 3, 3 and 1 rows
    got = leaky_relu(x, SLOPE, scratch)
    assert got is x
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DataError):
        leaky_relu(x, 1.5, scratch)


def test_leaky_relu_grad_values():
    x = np.array([-3.0, 0.0, 4.0])
    assert np.allclose(leaky_relu_grad(x, SLOPE), [0.2, 0.2, 1.0])


@pytest.mark.parametrize("slope", [0.2, 0.01, 0.99])
def test_leaky_relu_grad_matches_where_on_edge_values(slope):
    # The gradient must be exactly 1.0 or the slope, as np.where gives, also
    # at signed zeros, NaN, infinities and subnormals.
    edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    pre = np.tile(edges, (7, 1))
    da = np.random.default_rng(4).standard_normal(pre.shape)
    da[0] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0]
    want = np.where(pre > 0.0, 1.0, slope)
    assert (da * leaky_relu_grad(pre, slope)).tobytes() == (da * want).tobytes()
    assert leaky_relu_grad(pre, slope).tobytes() == want.tobytes()


# ---------------------------------------------------------------- huber


def test_huber_loss_hand_values():
    # Quadratic branch: 0.5 * 0.5^2 = 0.125. Linear: 1*(2 - 0.5) = 1.5.
    # Boundary |r| = delta stays quadratic: 0.5.
    assert huber_loss(np.array([0.5]), np.array([0.0]), 1.0) == pytest.approx(0.125)
    assert huber_loss(np.array([2.0]), np.array([0.0]), 1.0) == pytest.approx(1.5)
    assert huber_loss(np.array([1.0]), np.array([0.0]), 1.0) == pytest.approx(0.5)


def test_huber_loss_means_over_all_elements():
    y = np.array([[0.5, 2.0], [1.0, 0.0]])
    yhat = np.zeros((2, 2))
    expected = (0.125 + 1.5 + 0.5 + 0.0) / 4.0
    assert huber_loss(y, yhat, 1.0) == pytest.approx(expected)
    with pytest.raises(DataError):
        huber_loss(y, np.zeros(3), 1.0)


def test_huber_loss_matches_the_two_branch_formula():
    # The same float as the penalty written out with both branches whole.
    rng = np.random.default_rng(5)
    for dtype in (np.float32, np.float64):
        for delta in (1e-3, 0.5, 1.0, 2.0):
            for scale in (1e-4, 0.01, 1.0, 10.0):
                y = (rng.normal(size=(64, 21)) * scale).astype(dtype)
                yhat = rng.normal(size=(64, 21)).astype(dtype)
                r = y - yhat
                a = np.abs(r)
                expected = np.mean(np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta)), dtype=np.float64)
                assert huber_loss(y, yhat, delta) == float(expected)


def test_huber_loss_holds_at_most_three_input_sized_arrays():
    rng = np.random.default_rng(6)
    y, yhat = rng.normal(size=(25_000, 21)), rng.normal(size=(25_000, 21))
    tracemalloc.start()
    try:
        huber_loss(y, yhat, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Three float64 arrays and one bool mask of the inputs' shape, and slack.
    assert peak < 3.5 * y.nbytes


def test_huber_grad_matches_finite_differences():
    rng = np.random.default_rng(21)
    for delta in (1.0, 0.7):
        y = rng.normal(size=(4, 3))
        yhat = rng.normal(size=(4, 3))
        grad = huber_loss_grad(y, yhat, delta)
        h = 1e-7
        for i in range(4):
            for j in range(3):
                up = yhat.copy()
                up[i, j] += h
                down = yhat.copy()
                down[i, j] -= h
                fd = (huber_loss(y, up, delta) - huber_loss(y, down, delta)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------- forward/backward


def test_forward_shapes_and_validation():
    layers = init_layers([4, 8, 2], SLOPE, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 4))
    out = forward(layers, [True, False], x, SLOPE)
    assert out.shape == (5, 2)
    with pytest.raises(DataError):
        forward(layers, [True], x, SLOPE)
    with pytest.raises(DataError, match="layer 0"):
        forward(layers, [True, False], np.ones((5, 3)), SLOPE)
    with pytest.raises(DataError, match="slope"):
        forward(layers, [True, False], x, 1.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, _SCRATCH_ROWS - 1, _SCRATCH_ROWS, _SCRATCH_ROWS + 1, 3 * _SCRATCH_ROWS + 7])
def test_uncached_forward_matches_the_cached_one_bit_for_bit(dtype, rows):
    # Uncached, each LeakyReLU overwrites its layer's product in place in
    # chunks of _SCRATCH_ROWS rows; cached, it makes a new array and keeps
    # the pre-activation. The outputs agree bit for bit below, at and above
    # the scratch height, and neither form writes to its input.
    dims, plan = [21, 128, 64, 16, 64, 128, 21], [True] * 5 + [False]
    layers = [DenseLayer(W=l.W.astype(dtype), b=l.b.astype(dtype)) for l in init_layers(dims, SLOPE, seed=rows)]
    x = np.random.default_rng(rows).standard_normal((rows, dims[0])).astype(dtype)
    before = x.copy()
    cached, _ = forward(layers, plan, x, SLOPE, with_cache=True)
    uncached = forward(layers, plan, x, SLOPE)
    assert uncached.dtype == cached.dtype == dtype
    assert uncached.tobytes() == cached.tobytes()
    assert x.tobytes() == before.tobytes()


def test_backward_rejects_stale_cache():
    state = TrainState(init_layers([3, 4, 3], SLOPE, seed=2), np.float64)
    x = np.random.default_rng(3).normal(size=(6, 3))
    out, cache = forward(state.layers, [True, False], x, SLOPE, with_cache=True)
    backward(state.layers, [True, False], cache, np.ones_like(out), SLOPE, out=state.grads)
    adam_step(state, 1, LEARNING_RATE)
    with pytest.raises(DataError, match="stale"):
        backward(state.layers, [True, False], cache, np.ones_like(out), SLOPE)


def grad_check(dims, activations, seed, batch, rel_tol=1e-4):
    """Central finite differences over every parameter of a small net."""
    layers = init_layers(dims, SLOPE, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(batch, dims[0]))
    target = rng.normal(size=(batch, dims[-1]))
    delta = 1.0

    out, cache = forward(layers, activations, x, SLOPE, with_cache=True)
    grads = backward(layers, activations, cache, huber_loss_grad(target, out, delta), SLOPE)

    h = 1e-5
    worst = 0.0
    for li, layer in enumerate(layers):
        for arr, g in ((layer.W, grads[li][0]), (layer.b, grads[li][1])):
            flat = arr.ravel()
            gflat = np.asarray(g).ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = huber_loss(target, forward(layers, activations, x, SLOPE), delta)
                flat[idx] = orig - h
                down = huber_loss(target, forward(layers, activations, x, SLOPE), delta)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]), abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst < rel_tol, f"gradient mismatch: relative error {worst}"


def test_gradients_match_finite_differences_small_net():
    grad_check([4, 6, 3, 6, 4], [True, True, True, False], seed=5, batch=6)


def test_gradients_match_finite_differences_asymmetric_net():
    grad_check([3, 7, 2], [True, False], seed=8, batch=4)


# ---------------------------------------------------------------- precision
#
# Training steps run in float32 and everything else in float64, so each
# kernel must compute in the dtype it is given. A numpy float64 scalar in a
# kernel would widen a float32 array under numpy 2's promotion rules (NEP 50)
# but not under numpy 1.24's, so these run on both.

DIMS = [21, 128, 64, 16, 64, 128, 21]
PLAN = [True] * 5 + [False]


def _layers(dtype, seed=0):
    """The production architecture with float32-representable weights and
    biases, as ``dtype``."""
    rng = np.random.default_rng(seed + 1)
    return [
        DenseLayer(
            W=l.W.astype(np.float32).astype(dtype),
            b=rng.normal(0.0, 0.1, l.b.shape).astype(np.float32).astype(dtype),
        )
        for l in init_layers(DIMS, SLOPE, seed=seed)
    ]


def _batch(dtype, seed=0, rows=256):
    return np.random.default_rng(seed + 2).standard_normal((rows, DIMS[0])).astype(np.float32).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("weight_decay", [1e-2, 0.0], ids=["coupled", "no-decay"])
def test_step_kernels_keep_their_dtype(monkeypatch, dtype, max_norm, weight_decay):
    monkeypatch.setattr(neural, "WEIGHT_DECAY", weight_decay)
    state = TrainState(_layers(dtype), dtype)
    layers = state.layers
    x = _batch(dtype)
    out, cache = forward(layers, PLAN, x, SLOPE, with_cache=True)
    assert out.dtype == dtype
    assert all(a.dtype == dtype for a in cache.inputs + cache.preacts)
    assert leaky_relu_grad(cache.preacts[0], SLOPE).dtype == dtype
    grad_out = huber_loss_grad(x, out, 1.0)
    assert grad_out.dtype == dtype
    assert isinstance(huber_loss(x, out, 1.0), float)
    grads = backward(layers, PLAN, cache, grad_out, SLOPE, out=state.grads)
    assert grads is state.grads
    assert all(g.dtype == dtype for pair in grads for g in pair)
    unclipped, norm = state.grad.copy(), global_grad_norm(state)
    clip_global_norm(state, max_norm)
    assert np.array_equal(state.grad, unclipped) == (max_norm > norm)
    assert all(g.dtype == dtype for pair in state.grads for g in pair)
    clipped = state.grad.copy()
    for step in (1, 2):
        state.grad[...] = clipped  # adam_step uses the gradient as working space
        adam_step(state, step, LEARNING_RATE / 2)
    for layer in layers:
        for arr in (layer.W, layer.b):
            assert arr.dtype == dtype
    for arr in (state.params, state.grad, state.m, state.v):
        assert arr.dtype == dtype
    # A float64 batch through float32 layers is cast to the layers' dtype.
    assert forward(layers, PLAN, x.astype(np.float64), SLOPE).dtype == dtype


def test_huber_loss_sums_a_float32_batch_in_float64():
    # One linear-branch penalty of 1.5 beside 1023 quadratic ones of 2**-41.
    # Each penalty is exact in float32, and every partial sum is exact in
    # float64; a float32 sum would drop the small ones against the 1.5.
    y = np.full((32, 32), 2.0**-20, dtype=np.float32)
    y[0, 0] = 2.0
    loss = huber_loss(y, np.zeros_like(y), 1.0)
    assert loss == (1.5 + 1023 * 2.0**-41) / 1024
    assert loss != float(np.float32(1.5) / np.float32(1024))


# Backward sums up to 256 products per gradient entry and chains six layers;
# in float32 that leaves a relative error of about 1e-6 (8 float32 epsilons)
# on this batch. 64 epsilons is the stated bound.
FLOAT32_GRAD_TOL = 64 * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_backward_matches_float64_backward(seed):
    grads = {}
    for dtype in (np.float32, np.float64):
        layers = _layers(dtype, seed)
        x = _batch(dtype, seed)
        out, cache = forward(layers, PLAN, x, SLOPE, with_cache=True)
        grads[dtype] = backward(layers, PLAN, cache, huber_loss_grad(x, out, 1.0), SLOPE)
    for pair32, pair64 in zip(grads[np.float32], grads[np.float64]):
        for g32, g64 in zip(pair32, pair64):
            err = g32.astype(np.float64) - g64
            assert np.linalg.norm(err) <= FLOAT32_GRAD_TOL * np.linalg.norm(g64)
            assert np.abs(err).max() <= FLOAT32_GRAD_TOL * np.abs(g64).max()


# ---------------------------------------------------------------- train state


def _state(pairs, dtype=np.float64):
    """A TrainState over layers given as (W, b) pairs of nested lists."""
    return TrainState([DenseLayer(W=np.array(W, dtype=float), b=np.array(b, dtype=float)) for W, b in pairs], dtype)


def _set_grads(state, grads):
    for (dW, db), (gW, gb) in zip(state.grads, grads):
        dW[...] = gW
        db[...] = gb


def _offset(view, vec):
    """Where ``view`` starts in ``vec``, in elements."""
    return (view.__array_interface__["data"][0] - vec.__array_interface__["data"][0]) // vec.itemsize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_state_views_share_its_vectors(dtype):
    source = _layers(np.float64)
    state = TrainState(source, dtype)
    n_weights = sum(l.W.size for l in source)
    assert state.n_weights == n_weights
    assert state.params.size == n_weights + sum(l.b.size for l in source) == 24229
    for vec in (state.params, state.grad, state.m, state.v):
        assert vec.dtype == dtype and vec.shape == state.params.shape and vec.flags.c_contiguous
    # Every layer's weights in layer order, then every layer's biases.
    w, b = 0, n_weights
    for src, layer, (dW, db) in zip(source, state.layers, state.grads):
        assert np.shares_memory(layer.W, state.params) and np.shares_memory(layer.b, state.params)
        assert np.shares_memory(dW, state.grad) and np.shares_memory(db, state.grad)
        assert _offset(layer.W, state.params) == _offset(dW, state.grad) == w
        assert _offset(layer.b, state.params) == _offset(db, state.grad) == b
        assert dW.shape == layer.W.shape == src.W.shape and db.shape == layer.b.shape == src.b.shape
        assert layer.W.tobytes() == src.W.astype(dtype).tobytes()
        assert layer.b.tobytes() == src.b.astype(dtype).tobytes()
        w += src.W.size
        b += src.b.size
    assert (w, b) == (n_weights, state.params.size)
    # A snapshot is a copy: writing the parameters leaves it as it was.
    snap = state.snapshot(np.float64)
    before = [(l.W.copy(), l.b.copy()) for l in snap]
    state.params[...] = 0.0
    for l, (W, bias), layer in zip(snap, before, state.layers):
        assert l.W.dtype == np.float64 and not np.shares_memory(l.W, state.params)
        assert np.array_equal(l.W, W) and np.array_equal(l.b, bias) and W.any()
        assert not layer.W.any() and not layer.b.any()


def reference_clip(grads, max_norm):
    """Global-norm clipping of per-layer (dW, db) pairs, written out as the
    per-layer code ran it: float64 squares summed array by array."""
    total = 0.0
    for dW, db in grads:
        total += float(np.sum(np.square(dW, dtype=np.float64))) + float(np.sum(np.square(db, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return [(dW * scale, db * scale) for dW, db in grads]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("weight_decay", [1e-2, 0.0], ids=["coupled", "no-decay"])
def test_vector_clip_and_adam_match_the_per_layer_formulas(monkeypatch, dtype, max_norm, weight_decay):
    # Three steps over the production architecture against clipping and
    # Adam applied array by array; weights, gradients and moments must
    # agree bit for bit. The decay is patched to a value large enough to
    # matter, and to zero.
    monkeypatch.setattr(neural, "WEIGHT_DECAY", weight_decay)
    b1, b2, eps, wd = neural.ADAM_BETA1, neural.ADAM_BETA2, neural.ADAM_EPSILON, weight_decay
    lr = LEARNING_RATE / 2
    state = TrainState(_layers(dtype), dtype)
    want = [(l.W.copy(), l.b.copy()) for l in state.layers]
    moments = [[np.zeros_like(a) for a in (l.W, l.W, l.b, l.b)] for l in state.layers]
    for step in (1, 2, 3):
        x = _batch(dtype, seed=step)
        out, cache = forward(state.layers, PLAN, x, SLOPE, with_cache=True)
        backward(state.layers, PLAN, cache, huber_loss_grad(x, out, 1.0), SLOPE, out=state.grads)
        ref_grads = reference_clip([(dW.copy(), db.copy()) for dW, db in state.grads], max_norm)
        clip_global_norm(state, max_norm)
        for (dW, db), (rW, rb) in zip(state.grads, ref_grads):
            assert dW.tobytes() == rW.tobytes() and db.tobytes() == rb.tobytes()
        adam_step(state, step, lr)
        for i, ((W, b), (gW, gb), (mW, vW, mb, vb)) in enumerate(zip(want, ref_grads, moments)):
            gW = gW + wd * W
            W, mW, vW = reference_adam(W, gW, mW, vW, step, lr, b1, b2, eps)
            b, mb, vb = reference_adam(b, gb, mb, vb, step, lr, b1, b2, eps)
            want[i], moments[i] = (W, b), [mW, vW, mb, vb]
        for layer, (W, b) in zip(state.layers, want):
            assert layer.W.tobytes() == W.tobytes() and layer.b.tobytes() == b.tobytes()
        for vec, k in ((state.m, 0), (state.v, 1)):
            flat = [mom[k].ravel() for mom in moments] + [mom[k + 2] for mom in moments]
            assert vec.tobytes() == np.concatenate(flat).tobytes()


def test_backward_and_adam_refuse_a_gradient_of_another_dtype():
    # A float64 gradient through float32 parameters would be cast silently
    # into the gradient views, or widen the Adam moments.
    state = TrainState(_layers(np.float32), np.float32)
    x = _batch(np.float32)
    out, cache = forward(state.layers, PLAN, x, SLOPE, with_cache=True)
    grad_out = huber_loss_grad(x, out, 1.0).astype(np.float64)
    with pytest.raises(DataError, match="float64"):
        backward(state.layers, PLAN, cache, grad_out, SLOPE, out=state.grads)
    with pytest.raises(DataError, match="float64"):
        backward(state.layers, PLAN, cache, grad_out, SLOPE)
    params = state.params.copy()
    state.grad = state.grad.astype(np.float64)
    with pytest.raises(DataError, match="float64"):
        adam_step(state, 1, LEARNING_RATE)
    assert state.params.tobytes() == params.tobytes()
    assert not state.m.any() and not state.v.any() and state.m.dtype == np.float32


# ---------------------------------------------------------------- clipping


def test_global_grad_norm_hand_value():
    state = _state([([[0.0]], [0.0])])
    _set_grads(state, [([[3.0]], [4.0])])
    assert global_grad_norm(state) == pytest.approx(5.0)


def test_clip_global_norm_scales_to_max():
    state = _state([([[0.0]], [0.0])])
    _set_grads(state, [([[3.0]], [4.0])])
    clip_global_norm(state, 1.0)
    assert global_grad_norm(state) == pytest.approx(1.0, rel=1e-12)
    assert state.grads[0][0][0, 0] == pytest.approx(0.6)
    assert state.grads[0][1][0] == pytest.approx(0.8)
    # Finite float32 gradients whose squares overflow float32: a float32
    # norm would be inf and scale them to 0.
    big = _state([([[0.0]], [0.0])], np.float32)
    _set_grads(big, [([[3e20]], [4e20])])
    assert global_grad_norm(big) == pytest.approx(5e20)
    clip_global_norm(big, 1.0)
    assert big.grads[0][0][0, 0] == pytest.approx(0.6) and big.grads[0][1][0] == pytest.approx(0.8)


def test_clip_global_norm_noop_below_max_and_on_zero():
    state = _state([([[0.0]], [0.0])])
    _set_grads(state, [([[0.3]], [0.4])])
    clip_global_norm(state, 1.0)
    assert state.grads[0][0][0, 0] == 0.3 and state.grads[0][1][0] == 0.4
    zero = _state([(np.zeros((2, 2)), np.zeros(2))])
    clip_global_norm(zero, 1.0)
    assert np.all(zero.grads[0][0] == 0.0)


# ---------------------------------------------------------------- adam


def reference_adam(W, g, m, v, step, lr, b1, b2, eps):
    """Textbook Adam update written independently of the implementation."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1**step)
    v_hat = v / (1 - b2**step)
    return W - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_step_matches_reference_two_steps(monkeypatch):
    monkeypatch.setattr(neural, "WEIGHT_DECAY", 0.0)
    b1, b2, eps = neural.ADAM_BETA1, neural.ADAM_BETA2, neural.ADAM_EPSILON
    state = _state([([[2.0]], [1.0])])
    layer = state.layers[0]
    rng = np.random.default_rng(14)
    W, m, v = layer.W.copy(), np.zeros((1, 1)), np.zeros((1, 1))
    bexp, bm, bv = layer.b.copy(), np.zeros(1), np.zeros(1)
    for step in (1, 2):
        gW = rng.normal(size=(1, 1))
        gb = rng.normal(size=1)
        _set_grads(state, [(gW, gb)])
        adam_step(state, step, LEARNING_RATE)
        W, m, v = reference_adam(W, gW, m, v, step, LEARNING_RATE, b1, b2, eps)
        bexp, bm, bv = reference_adam(bexp, gb, bm, bv, step, LEARNING_RATE, b1, b2, eps)
        assert np.allclose(layer.W, W, rtol=0, atol=1e-15)
        assert np.allclose(layer.b, bexp, rtol=0, atol=1e-15)


def test_coupled_weight_decay_adds_l2_term_and_skips_bias():
    state = _state([([[5.0]], [5.0])])
    layer = state.layers[0]
    adam_step(state, 1, LEARNING_RATE)
    # Zero raw gradient: the weight still moves because decay couples into
    # the gradient; the bias is exempt and must not move.
    W, _, _ = reference_adam(np.array([[5.0]]), neural.WEIGHT_DECAY * np.array([[5.0]]),
                             np.zeros((1, 1)), np.zeros((1, 1)), 1,
                             LEARNING_RATE, neural.ADAM_BETA1, neural.ADAM_BETA2,
                             neural.ADAM_EPSILON)
    assert W[0, 0] != 5.0
    assert np.allclose(layer.W, W, atol=1e-15)
    assert layer.b[0] == 5.0


def test_adam_learning_rate_override():
    state1 = _state([([[1.0]], [0.0])])
    state2 = _state([([[1.0]], [0.0])])
    g = [([[0.5]], [0.0])]
    _set_grads(state1, g)
    _set_grads(state2, g)
    adam_step(state1, 1, LEARNING_RATE)
    adam_step(state2, 1, LEARNING_RATE / 2)
    d1 = 1.0 - state1.layers[0].W[0, 0]
    d2 = 1.0 - state2.layers[0].W[0, 0]
    assert d2 == pytest.approx(d1 / 2, rel=1e-12)


# ---------------------------------------------------------------- init


def test_init_layers_seeded_and_bounded():
    dims = [21, 128, 64]
    a = init_layers(dims, SLOPE, seed=42)
    b = init_layers(dims, SLOPE, seed=42)
    c = init_layers(dims, SLOPE, seed=43)
    for la, lb in zip(a, b):
        assert np.array_equal(la.W, lb.W)
        assert np.all(la.b == 0.0)
    assert not np.array_equal(a[0].W, c[0].W)
    for layer in a:
        bound = np.sqrt(6.0 / ((1.0 + SLOPE**2) * layer.fan_in))
        assert np.abs(layer.W).max() <= bound
    with pytest.raises(DataError):
        init_layers([4], SLOPE, seed=0)
    with pytest.raises(DataError):
        init_layers([4, 0], SLOPE, seed=0)


def test_train_config_validation():
    # A run varies only its epoch cap and its seed.
    assert [f.name for f in dataclasses.fields(TrainConfig)] == ["max_epochs", "seed"]
    with pytest.raises(DataError, match="max_epochs must be >= 1, got 0"):
        TrainConfig(max_epochs=0)
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)

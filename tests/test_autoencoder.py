import tracemalloc

import numpy as np
import pytest

from flowcodec.autoencoder import (
    EarlyStopper,
    PlateauScheduler,
    architecture_dims,
    decode,
    encode,
    load_model,
    reconstruct,
    save_model,
    train,
)
from flowcodec.errors import DataError, DivergenceError, ModelFormatError
from flowcodec.neural import _BLOCK_ROWS, _SCRATCH_ROWS, TrainConfig, huber_loss, huber_loss_grad, init_layers


def tiny_config(**kw):
    defaults = dict(max_epochs=6, batch_size=16, seed=42)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_data(n=80, width=21, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 5))
    mix = rng.normal(size=(5, width))
    x = z @ mix
    return x[: int(n * 0.8)], x[int(n * 0.8) :]


# ---------------------------------------------------------------- shapes


def test_architecture_dims_default_and_custom():
    assert architecture_dims(21) == [21, 128, 64, 16, 64, 128, 21]
    assert architecture_dims(10, hidden=(8,), latent=3) == [10, 8, 3, 8, 10]


# ---------------------------------------------------------------- scheduler


def test_plateau_scheduler_constant_loss_sequence():
    # Patience 5: the first call establishes the best; five bad epochs later
    # the rate halves, and again five bad epochs after that.
    sched = PlateauScheduler(lr=0.001, factor=0.5, patience=5, threshold=1e-6, min_lr=1e-6)
    rates = []
    for _ in range(12):
        sched.step(1.0)
        rates.append(sched.lr)
    assert rates[:5] == [0.001] * 5
    assert rates[5:10] == [0.0005] * 5
    assert rates[10:] == [0.00025] * 2


def test_plateau_scheduler_improvement_resets_counter():
    sched = PlateauScheduler(lr=0.001, factor=0.5, patience=2, threshold=1e-6, min_lr=1e-6)
    losses = [1.0, 1.0, 0.5, 0.5, 0.5]
    rates = [sched.step(l) or sched.lr for l in losses]
    # The improvement at step 3 arrives before patience ran out, so only the
    # two flat epochs after it trigger a cut.
    assert rates == [0.001, 0.001, 0.001, 0.001, 0.0005]


def test_plateau_scheduler_sub_threshold_improvement_counts_as_bad():
    sched = PlateauScheduler(lr=0.001, factor=0.5, patience=2, threshold=1e-3, min_lr=1e-6)
    sched.step(1.0)
    sched.step(1.0 - 1e-4)
    sched.step(1.0 - 2e-4)
    assert sched.lr == 0.0005


def test_plateau_scheduler_respects_min_lr():
    sched = PlateauScheduler(lr=0.001, factor=0.5, patience=1, threshold=1e-6, min_lr=0.0004)
    for _ in range(10):
        sched.step(1.0)
    assert sched.lr == 0.0004


def test_early_stopper_fires_after_patience():
    stopper = EarlyStopper(patience=3, threshold=1e-6)
    fired_at = None
    losses = [1.0, 0.9, 0.8, 0.8, 0.8, 0.8, 0.8]
    for epoch, loss in enumerate(losses, start=1):
        if stopper.step(loss):
            fired_at = epoch
            break
    # Best epoch is 3; three stale epochs later the stop fires.
    assert fired_at == 6


# ---------------------------------------------------------------- training


def test_train_basic_invariants():
    xtr, xte = tiny_data()
    model, hist = train(xtr, xte, tiny_config())
    assert [e.epoch for e in hist.epochs] == list(range(1, len(hist.epochs) + 1))
    assert len(hist.epochs) <= 6
    rates = [e.learning_rate for e in hist.epochs]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert hist.best_test_loss == min(e.test_loss for e in hist.epochs)
    assert hist.epochs[hist.best_epoch - 1].test_loss == hist.best_test_loss
    assert model.n_features == 21
    assert model.latent_dim == 16


def test_train_snapshots_best_epoch_weights():
    xtr, xte = tiny_data(seed=3)
    model, hist = train(xtr, xte, tiny_config())
    loss_now = huber_loss(xte, reconstruct(model, xte), 1.0)
    # The returned weights are the best-epoch snapshot, so recomputing the
    # test loss reproduces the recorded best exactly.
    assert loss_now == hist.best_test_loss


def test_train_best_epoch_snapshot_survives_later_epochs():
    # A rate high enough that the test loss rises again after epoch 6, so
    # two more epochs run after the best one. Their steps and their float64
    # copies must leave the best epoch's weights as they were.
    xtr, xte = tiny_data(seed=4)
    model, hist = train(xtr, xte, tiny_config(learning_rate=0.03, max_epochs=8))
    assert hist.best_epoch < len(hist.epochs) == 8
    assert huber_loss(xte, reconstruct(model, xte), 1.0) == hist.best_test_loss


def test_train_deterministic():
    xtr, xte = tiny_data(seed=5)
    m1, h1 = train(xtr, xte, tiny_config())
    m2, h2 = train(xtr, xte, tiny_config())
    for a, b in zip(m1.layers, m2.layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
    assert [e.test_loss for e in h1.epochs] == [e.test_loss for e in h2.epochs]

    m3, _ = train(xtr, xte, tiny_config(seed=43))
    assert not np.array_equal(m1.layers[0].W, m3.layers[0].W)


def test_train_divergence_raises_with_epoch():
    xtr, xte = tiny_data(seed=6)
    with pytest.raises(DivergenceError) as info:
        train(xtr * 1e150, xte * 1e150, tiny_config(learning_rate=1e30))
    assert info.value.epoch >= 1


def test_train_validates_inputs():
    xtr, xte = tiny_data()
    with pytest.raises(DataError):
        train(xtr, xte[:, :5], tiny_config())
    with pytest.raises(DataError):
        train(np.empty((0, 21)), xte, tiny_config())
    bad = xtr.copy()
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        train(bad, xte, tiny_config())


def test_history_csv(tmp_path):
    xtr, xte = tiny_data(seed=8)
    _, hist = train(xtr, xte, tiny_config(max_epochs=3))
    path = tmp_path / "history.csv"
    hist.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,learning_rate,seconds"
    assert len(lines) == 1 + len(hist.epochs)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == hist.epochs[0].train_loss


# ---------------------------------------------------------------- reference loop
#
# The training loop as it was before train_loss came from the batch passes:
# an exact train-loss pass over the whole matrix after every epoch, and its
# own copies of forward, backward (with the LeakyReLU gradient multiplied
# in), global-norm clipping and Adam, written out operation by operation.
# Initialization, the shuffle and the Huber loss are shared with the library.
# Its steps run in float32, on float32 casts of the float64 initial weights
# and of the training matrix; each epoch's test loss runs in float64 on
# float64 casts of the weights, and the best epoch's cast is the model.


def _ref_forward(layers, x, slope, cache=None):
    a = x
    for i, (W, b) in enumerate(layers):
        z = a @ W.T + b
        if cache is not None:
            cache.append((a, z))
        a = np.maximum(slope * z, z) if i < len(layers) - 1 else z
    return a


def _ref_backward(layers, cache, grad_out, slope):
    grads = [None] * len(layers)
    da = grad_out
    for i in range(len(layers) - 1, -1, -1):
        a_in, z = cache[i]
        dz = da * np.where(z > 0.0, 1.0, slope).astype(z.dtype) if i < len(layers) - 1 else da
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        if i > 0:
            da = dz @ layers[i][0]
    return grads


def _ref_clip(grads, max_norm):
    total = 0.0
    for dW, db in grads:
        total += float(np.sum(np.square(dW, dtype=np.float64))) + float(np.sum(np.square(db, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, False
    scale = max_norm / norm
    return [(dW * scale, db * scale) for dW, db in grads], True


def _ref_adam(layers, state, grads, cfg, step, lr):
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    for (W, b), st, (dW, db) in zip(layers, state, grads):
        gW = dW
        if cfg.weight_decay != 0.0:
            gW = dW + cfg.weight_decay * W
        st["mW"] = b1 * st["mW"] + (1.0 - b1) * gW
        st["vW"] = b2 * st["vW"] + (1.0 - b2) * gW * gW
        st["mb"] = b1 * st["mb"] + (1.0 - b1) * db
        st["vb"] = b2 * st["vb"] + (1.0 - b2) * db * db
        W -= lr * (st["mW"] / bc1) / (np.sqrt(st["vW"] / bc2) + eps)
        b -= lr * (st["mb"] / bc1) / (np.sqrt(st["vb"] / bc2) + eps)


def _reference_train(xtr, xte, cfg, slope=0.2):
    """Returns the best-epoch weights, one (test_loss, learning_rate, exact
    train loss, batch losses and rows) tuple per epoch, and the number of
    steps the clip fired on."""
    dims = architecture_dims(xtr.shape[1])
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    layers = [(l.W.astype(np.float32), l.b.astype(np.float32))
              for l in init_layers(dims, slope, init_ss)]
    xtr = xtr.astype(np.float32)
    state = [{k: np.zeros_like(W if k.endswith("W") else b) for k in ("mW", "vW", "mb", "vb")}
             for W, b in layers]
    rng = np.random.default_rng(shuffle_ss)
    sched = PlateauScheduler(cfg.learning_rate, cfg.plateau_factor, cfg.plateau_patience,
                             cfg.improvement_threshold, cfg.min_lr)
    stopper = EarlyStopper(cfg.early_stop_patience, cfg.improvement_threshold)
    epochs, best, best_loss, step, clipped = [], None, float("inf"), 0, 0
    for _ in range(cfg.max_epochs):
        lr = sched.lr
        perm = rng.permutation(xtr.shape[0])
        batches = []
        for start in range(0, xtr.shape[0], cfg.batch_size):
            batch = xtr[perm[start : start + cfg.batch_size]]
            cache = []
            out = _ref_forward(layers, batch, slope, cache)
            batches.append((huber_loss(batch, out, cfg.huber_delta), batch.shape[0]))
            grads = _ref_backward(layers, cache, huber_loss_grad(batch, out, cfg.huber_delta), slope)
            grads, fired = _ref_clip(grads, cfg.clip_max_norm)
            clipped += fired
            step += 1
            _ref_adam(layers, state, grads, cfg, step, lr)
        exact_train = huber_loss(xtr, _ref_forward(layers, xtr, slope), cfg.huber_delta)
        weights = [(W.astype(np.float64), b.astype(np.float64)) for W, b in layers]
        test_loss = huber_loss(xte, _ref_forward(weights, xte, slope), cfg.huber_delta)
        epochs.append((test_loss, lr, exact_train, batches))
        if test_loss < best_loss:
            best_loss, best = test_loss, weights
        sched.step(test_loss)
        if stopper.step(test_loss):
            break
    assert all(W.dtype == b.dtype == np.float32 for W, b in layers)
    return best, epochs, clipped


@pytest.mark.parametrize(
    "n, batch_size, max_epochs",
    [
        # 64 training rows in batches of 24, the last one short.
        pytest.param(80, 24, 4, id="batch24"),
        # The production batch size over 640 rows: 256, 256 and a short 128.
        pytest.param(800, 256, 2, id="batch256"),
    ],
)
def test_train_matches_reference_loop_bit_for_bit(n, batch_size, max_epochs):
    # A clip norm that some steps exceed and others do not; a weight decay
    # large enough to matter; and an improvement threshold no epoch can
    # meet, so the rate halves from the third epoch on.
    xtr, xte = tiny_data(n=n, seed=13)
    cfg = tiny_config(max_epochs=max_epochs, batch_size=batch_size, clip_max_norm=2.0,
                      weight_decay=1e-2, plateau_patience=1,
                      improvement_threshold=1e3)
    model, hist = train(xtr, xte, cfg)
    best, epochs, clipped = _reference_train(xtr, xte, cfg)

    n_train = xtr.shape[0]
    rows = [batch_size] * (n_train // batch_size) + [n_train % batch_size]
    assert 0 < rows[-1] < batch_size
    assert 0 < clipped < max_epochs * len(rows)
    assert len(hist.epochs) == len(epochs) == max_epochs
    for got, want in zip(model.layers, best):
        assert got.W.tobytes() == want[0].tobytes()
        assert got.b.tobytes() == want[1].tobytes()
    assert [e.test_loss for e in hist.epochs] == [e[0] for e in epochs]
    assert [e.learning_rate for e in hist.epochs] == [e[1] for e in epochs]
    assert [e.learning_rate for e in hist.epochs] == [0.001, 0.001, 0.0005, 0.00025][:max_epochs]
    for e, (_, _, exact_train, batches) in zip(hist.epochs, epochs):
        assert [r for _, r in batches] == rows
        weighted = 0.0
        for loss, r in batches:
            weighted += loss * r
        assert e.train_loss == weighted / n_train
        # The running mean lags the weights it ends with, so it differs
        # from the exact end-of-epoch loss the parent recorded.
        assert e.train_loss != exact_train


def test_encode_decode_match_the_reference_forward():
    # Each row count is checked against one reference call over all its
    # rows. From 2 * _BLOCK_ROWS rows on, encode and decode run in blocks,
    # the last one taking the remainder, and every row must keep the bits
    # that the one call gives it. The block constant itself is used: a
    # smaller one would reach row counts that BLAS may round differently.
    xtr, xte = tiny_data(seed=14)
    model, _ = train(xtr, xte, tiny_config(max_epochs=2))
    layers = [(l.W, l.b) for l in model.layers]
    rows = tiny_data(n=16000, seed=15)[0]
    for n in (3000, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 65):
        x = rows[:n]
        cache = []
        want = _ref_forward(layers, x, model.slope, cache)
        # The decoder's first input is the bottleneck's activated output.
        z = cache[model.n_encoder][0]
        assert encode(model, x).tobytes() == z.tobytes(), n
        assert decode(model, z).tobytes() == _ref_forward(layers[model.n_encoder :], z, model.slope).tobytes(), n
        assert reconstruct(model, x).tobytes() == want.tobytes(), n


def test_encode_decode_peak_memory_is_bounded_by_the_block():
    # The last block has 2 * _BLOCK_ROWS - 1 rows, the most a block holds.
    # Each LeakyReLU runs in place, so at most two activation arrays (a
    # layer's input and its output), none wider than the widest layer, and
    # one scratch of _SCRATCH_ROWS such rows are alive at once: a third
    # activation array of the last block breaks the bound. The row count
    # does not enter it: unblocked, one call over these rows would peak near
    # 63 MB.
    xtr, xte = tiny_data(seed=17)
    model, _ = train(xtr, xte, tiny_config(max_epochs=2))
    assert model.dims == architecture_dims(21)
    x = np.random.default_rng(17).standard_normal((6 * _BLOCK_ROWS - 1, 21))
    z = encode(model, x)
    bound = (2 * (2 * _BLOCK_ROWS - 1) + _SCRATCH_ROWS) * max(model.dims) * 8
    for fn, inputs in ((encode, x), (decode, z)):
        tracemalloc.start()
        try:
            out = fn(model, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < bound, fn.__name__


# ---------------------------------------------------------------- codec


def test_encode_decode_shapes_and_width_checks():
    xtr, xte = tiny_data(seed=9)
    model, _ = train(xtr, xte, tiny_config(max_epochs=2))
    z = encode(model, xte)
    assert z.shape == (xte.shape[0], 16)
    back = decode(model, z)
    assert back.shape == xte.shape
    assert np.array_equal(reconstruct(model, xte), back)
    with pytest.raises(DataError):
        encode(model, xte[:, :5])
    with pytest.raises(DataError):
        decode(model, z[:, :5])


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    xtr, xte = tiny_data(seed=10)
    model, _ = train(
        xtr, xte, tiny_config(max_epochs=2), preprocessor_fingerprint="abc123"
    )
    path = tmp_path / "model.fcae"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dims == model.dims
    assert loaded.slope == model.slope
    assert loaded.feature_names == model.feature_names
    assert loaded.preprocessor_fingerprint == "abc123"
    assert loaded.n_encoder == model.n_encoder
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
    assert np.array_equal(encode(loaded, xte), encode(model, xte))


def test_save_is_deterministic(tmp_path):
    xtr, xte = tiny_data(seed=11)
    model, _ = train(xtr, xte, tiny_config(max_epochs=2))
    save_model(model, tmp_path / "a.fcae")
    save_model(model, tmp_path / "b.fcae")
    assert (tmp_path / "a.fcae").read_bytes() == (tmp_path / "b.fcae").read_bytes()


def test_load_rejects_corrupt_files(tmp_path, reheader):
    xtr, xte = tiny_data(seed=12)
    model, _ = train(xtr, xte, tiny_config(max_epochs=2))
    path = tmp_path / "model.fcae"
    save_model(model, path)
    blob = path.read_bytes()

    (tmp_path / "magic.fcae").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "magic.fcae")

    (tmp_path / "trunc.fcae").write_bytes(blob[:-16])
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "trunc.fcae")

    (tmp_path / "padded.fcae").write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "padded.fcae")

    bad = tmp_path / "bad.fcae"
    for mutate in (
        lambda h: {k: v for k, v in h.items() if k != "dims"},
        lambda h: {**h, "dims": "21,16,21"},
        lambda h: {**h, "dims": [21, 0, 21]},
        lambda h: {**h, "n_encoder_layers": 1.5},
        lambda h: {**h, "n_encoder_layers": len(h["dims"]) - 1},  # no decoder layer
        lambda h: {**h, "slope": "0.2"},
        lambda h: {**h, "feature_names": None},
        lambda h: [h],
    ):
        bad.write_bytes(reheader(blob, mutate))
        with pytest.raises(ModelFormatError):
            load_model(bad)

    (tmp_path / "version.fcae").write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(ModelFormatError, match="version"):
        load_model(tmp_path / "version.fcae")
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.fcae")

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
from flowcodec.neural import TrainConfig, huber_loss, huber_loss_grad, init_layers


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
        dz = da * np.where(z > 0.0, 1.0, slope) if i < len(layers) - 1 else da
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        if i > 0:
            da = dz @ layers[i][0]
    return grads


def _ref_clip(grads, max_norm):
    total = 0.0
    for dW, db in grads:
        total += float(np.sum(dW * dW)) + float(np.sum(db * db))
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
        if cfg.weight_decay != 0.0 and not cfg.decoupled_weight_decay:
            gW = dW + cfg.weight_decay * W
        st["mW"] = b1 * st["mW"] + (1.0 - b1) * gW
        st["vW"] = b2 * st["vW"] + (1.0 - b2) * gW * gW
        st["mb"] = b1 * st["mb"] + (1.0 - b1) * db
        st["vb"] = b2 * st["vb"] + (1.0 - b2) * db * db
        if cfg.weight_decay != 0.0 and cfg.decoupled_weight_decay:
            W -= lr * cfg.weight_decay * W
        W -= lr * (st["mW"] / bc1) / (np.sqrt(st["vW"] / bc2) + eps)
        b -= lr * (st["mb"] / bc1) / (np.sqrt(st["vb"] / bc2) + eps)


def _reference_train(xtr, xte, cfg, slope=0.2):
    """Returns the best-epoch weights, one (test_loss, learning_rate, exact
    train loss, batch losses and rows) tuple per epoch, and the number of
    steps the clip fired on."""
    dims = architecture_dims(xtr.shape[1])
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    layers = [(l.W, l.b) for l in init_layers(dims, slope, init_ss)]
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
        test_loss = huber_loss(xte, _ref_forward(layers, xte, slope), cfg.huber_delta)
        epochs.append((test_loss, lr, exact_train, batches))
        if test_loss < best_loss:
            best_loss, best = test_loss, [(W.copy(), b.copy()) for W, b in layers]
        sched.step(test_loss)
        if stopper.step(test_loss):
            break
    return best, epochs, clipped


@pytest.mark.parametrize("decoupled", [False, True])
def test_train_matches_reference_loop_bit_for_bit(decoupled):
    # 64 training rows in batches of 24 (the last one short); a clip norm
    # that some steps exceed and others do not; a weight decay large enough
    # to matter; and an improvement threshold no epoch can meet, so the rate
    # halves from the third epoch on.
    xtr, xte = tiny_data(n=80, seed=13)
    cfg = tiny_config(max_epochs=4, batch_size=24, clip_max_norm=2.0, weight_decay=1e-2,
                      decoupled_weight_decay=decoupled, plateau_patience=1,
                      improvement_threshold=1e3)
    model, hist = train(xtr, xte, cfg)
    best, epochs, clipped = _reference_train(xtr, xte, cfg)

    assert 0 < clipped < 12
    assert len(hist.epochs) == len(epochs) == 4
    for got, want in zip(model.layers, best):
        assert got.W.tobytes() == want[0].tobytes()
        assert got.b.tobytes() == want[1].tobytes()
    assert [e.test_loss for e in hist.epochs] == [e[0] for e in epochs]
    assert [e.learning_rate for e in hist.epochs] == [e[1] for e in epochs]
    assert [e.learning_rate for e in hist.epochs] == [0.001, 0.001, 0.0005, 0.00025]
    for e, (_, _, exact_train, batches) in zip(hist.epochs, epochs):
        assert [rows for _, rows in batches] == [24, 24, 16]
        weighted = 0.0
        for loss, rows in batches:
            weighted += loss * rows
        assert e.train_loss == weighted / 64
        # The running mean lags the weights it ends with, so it differs
        # from the exact end-of-epoch loss the parent recorded.
        assert e.train_loss != exact_train


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

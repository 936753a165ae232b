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
from flowcodec.neural import TrainConfig


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
    from flowcodec.neural import huber_loss

    loss_now = huber_loss(xte, reconstruct(model, xte), 1.0)
    # The returned weights are the best-epoch snapshot, so recomputing the
    # test loss reproduces the recorded best exactly.
    assert loss_now == hist.best_test_loss


def test_train_deterministic():
    xtr, xte = tiny_data(seed=5)
    m1, h1 = train(xtr, xte, tiny_config())
    m2, h2 = train(xtr, xte, tiny_config())
    for a, b in zip(m1.encoder_layers + m1.decoder_layers, m2.encoder_layers + m2.decoder_layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
    assert [e.test_loss for e in h1.epochs] == [e.test_loss for e in h2.epochs]

    m3, _ = train(xtr, xte, tiny_config(seed=43))
    assert not np.array_equal(m1.encoder_layers[0].W, m3.encoder_layers[0].W)


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
    for a, b in zip(
        model.encoder_layers + model.decoder_layers,
        loaded.encoder_layers + loaded.decoder_layers,
    ):
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

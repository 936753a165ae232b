"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
CRITERION line with the measured values (visible with -s, or on failure).
The tests are self-contained: every fixture is generated in-process from
pinned seeds, so a green run certifies the whole pipeline on this machine.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from flowcodec import autoencoder, preprocess
from flowcodec.autoencoder import EarlyStopper, PlateauScheduler
from flowcodec.classify_eval import score
from flowcodec.cli import main
from flowcodec.eval_metrics import (
    compression_ratio,
    correlation_difference,
    kl_divergences,
    percent_errors,
)
from flowcodec.flow_data import default_class_specs, generate_synthetic, stratified_split
from flowcodec.forest import fit_forest, fit_tree, predict, predict_tree
from flowcodec.neural import (
    TrainConfig,
    backward,
    forward,
    huber_loss,
    huber_loss_grad,
    init_layers,
)

DIMS = [21, 128, 64, 16, 64, 128, 21]
SLOPE = 0.2
DELTA = 1.0


def report(n, detail):
    print(f"CRITERION {n}: PASS  {detail}")


# -------------------------------------------------------------- criterion 1


def test_criterion_01_gradient_check():
    """Analytic gradients match central finite differences on the full
    21-128-64-16-64-128-21 network, 32-row batch, h=1e-5, max relative
    error < 1e-4, in under 30 seconds."""
    acts = [True] * (len(DIMS) - 2) + [False]
    h = 1e-5

    # Fixed seed chosen so no preactivation sits within 1e-4 of a LeakyReLU
    # kink and no residual within 1e-4 of the Huber knee; finite differences
    # would straddle the nondifferentiable point otherwise. The margins are
    # asserted, not assumed.
    init_seed, data_seed = np.random.SeedSequence(209).spawn(2)
    layers = init_layers(DIMS, SLOPE, init_seed)
    x = np.random.default_rng(data_seed).normal(size=(32, 21))

    out, cache = forward(layers, acts, x, SLOPE, with_cache=True)
    pre_margin = min(float(np.min(np.abs(z))) for z in cache.preacts)
    res_margin = float(np.min(np.abs(np.abs(out - x) - DELTA)))
    assert pre_margin > 1e-4 and res_margin > 1e-4

    grads = backward(layers, acts, cache, huber_loss_grad(x, out, DELTA), SLOPE)

    def loss_now():
        return huber_loss(x, forward(layers, acts, x, SLOPE), DELTA)

    t0 = time.perf_counter()
    worst = 0.0
    n_params = 0
    for layer, (dW, db) in zip(layers, grads):
        for arr, grad in ((layer.W, dW), (layer.b, db)):
            flat, gflat = arr.ravel(), grad.ravel()
            for k in range(flat.size):
                saved = flat[k]
                flat[k] = saved + h
                up = loss_now()
                flat[k] = saved - h
                down = loss_now()
                flat[k] = saved
                fd = (up - down) / (2.0 * h)
                a = gflat[k]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
                n_params += 1
    elapsed = time.perf_counter() - t0

    assert n_params == sum(l.W.size + l.b.size for l in layers)
    assert worst < 1e-4
    assert elapsed < 30.0
    report(1, f"max rel err {worst:.3e} over {n_params} params in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_preprocessing_round_trip():
    """10,000 in-range rows invert within 1e-12 relative; the transformed
    data has per-feature |median| < 1e-9 and IQR within 1e-9 of 1."""
    rng = np.random.default_rng(77)
    n = 10_000
    X = np.column_stack(
        [rng.lognormal(mean=rng.uniform(0, 8), sigma=rng.uniform(0.3, 1.5), size=n)
         for _ in range(21)]
    )
    state = preprocess.fit(X)
    # Clipping caps the top 0.1 percent; rows at or below the thresholds
    # are "in range" and must survive the round trip bit-for-bit-ish.
    in_range = np.minimum(X, state.p99_9)
    back = preprocess.inverse_transform(preprocess.transform(in_range, state), state)
    rel = np.abs(back - in_range) / np.maximum(np.abs(in_range), 1e-300)
    assert float(np.max(rel)) < 1e-12

    z = preprocess.transform(X, state)
    med = np.abs(np.quantile(z, 0.5, axis=0, method="linear"))
    iqr = np.quantile(z, 0.75, axis=0, method="linear") - np.quantile(
        z, 0.25, axis=0, method="linear"
    )
    assert float(np.max(med)) < 1e-9
    assert float(np.max(np.abs(iqr - 1.0))) < 1e-9
    report(2, f"max rel {np.max(rel):.2e}, worst |median| {np.max(med):.2e}, "
              f"worst |IQR-1| {np.max(np.abs(iqr - 1.0)):.2e}")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_low_rank_reconstruction():
    """21 features driven by 16 latent factors, 20,000 rows, default training
    config: final test loss < 1% of epoch 1, per-feature median percent
    error < 5% in original units."""
    rng = np.random.default_rng(12345)
    n = 20_000
    factors = rng.standard_normal((n, 16))
    mixing = rng.uniform(0.5, 2.0, size=(16, 21)) * rng.choice([-1.0, 1.0], size=(16, 21))
    offsets = rng.uniform(50.0, 150.0, size=21)
    X = offsets + factors @ mixing

    cut = int(n * 0.8)
    state = preprocess.fit(X[:cut])
    xtr = preprocess.transform(X[:cut], state)
    xte = preprocess.transform(X[cut:], state)

    model, hist = autoencoder.train(
        xtr, xte, TrainConfig(seed=42), preprocessor_fingerprint=state.fingerprint()
    )
    assert len(hist.epochs) <= 200
    first = hist.epochs[0].test_loss
    final = hist.epochs[-1].test_loss
    assert final < 0.01 * first

    recon = preprocess.inverse_transform(autoencoder.reconstruct(model, xte), state)
    worst = 0.0
    for value in percent_errors(X[cut:], recon).median_percent_error:
        worst = max(worst, value)
    assert worst < 5.0
    report(3, f"loss ratio {final / first:.4%} after {len(hist.epochs)} epochs, "
              f"worst median %% error {worst:.3f}%")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_scheduler_and_early_stop():
    """A forced plateau walks the learning rate through 0.001, 0.0005,
    0.00025 exactly; early stop fires at best_epoch + patience."""
    sched = PlateauScheduler(lr=0.001, factor=0.5, patience=5, threshold=1e-6, min_lr=1e-6)
    rates = []
    for _ in range(15):
        rates.append(sched.lr)  # rate used during the epoch, then stepped
        sched.step(1.0)
    distinct = sorted(set(rates), reverse=True)
    assert distinct == [0.001, 0.0005, 0.00025]
    # The first step records the initial loss as the best, so each plateau
    # phase is patience + 1 epochs long at the start.
    assert rates[:6] == [0.001] * 6
    assert rates[6:11] == [0.0005] * 5
    assert rates[11:] == [0.00025] * 4

    stopper = EarlyStopper(patience=20, threshold=0.0)
    losses = [1.0, 0.5, 0.4] + [0.4] * 40  # best at epoch 3, flat after
    stopped_at = None
    for epoch, loss in enumerate(losses, start=1):
        if stopper.step(loss):
            stopped_at = epoch
            break
    assert stopped_at == 3 + 20
    report(4, f"lr ladder {distinct}, stop at epoch {stopped_at} (best 3 + patience 20)")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_classification_analogue():
    """5-class, 10,000-flow synthetic dataset through both arms: original
    accuracy >= 0.97 and the compressed arm within 2 percentage points."""
    t0 = time.perf_counter()
    ds = generate_synthetic(2000, default_class_specs(), seed=42)
    assert len(ds) == 10_000 and len(ds.class_names) == 5
    split = stratified_split(ds, 0.2, 42)
    tr = np.asarray(split.train)
    te = np.asarray(split.test)

    state = preprocess.fit(ds.features[tr], ds.schema.compressible_columns)
    xtr = preprocess.transform(ds.features[tr], state)
    xte = preprocess.transform(ds.features[te], state)
    model, _ = autoencoder.train(
        xtr, xte, TrainConfig(seed=42),
        feature_names=ds.schema.compressible_columns,
        preprocessor_fingerprint=state.fingerprint(),
    )

    latents = autoencoder.encode(model, preprocess.transform(ds.features, state))
    y = ds.label_ids
    acc = {}
    for arm, feats in (("original", ds.features), ("compressed", latents)):
        forest = fit_forest(feats[tr], y[tr], n_classes=5, n_trees=100, seed=42)
        acc[arm] = score(y[te], predict(forest, feats[te]), tuple(ds.class_names)).accuracy
    elapsed = time.perf_counter() - t0

    assert acc["original"] >= 0.97
    assert acc["compressed"] >= acc["original"] - 0.020
    assert elapsed < 600.0
    report(5, f"original {acc['original']:.4f}, compressed {acc['compressed']:.4f}, "
              f"gap {(acc['original'] - acc['compressed']) * 100:.2f}pp in {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_metric_identities():
    """rmse = sqrt(mse); KL nonnegative and zero on identical columns;
    correlation difference vanishes under positive per-column affine maps;
    accuracy equals trace over N."""
    rng = np.random.default_rng(606)
    for _ in range(25):
        y = rng.normal(size=400)
        yhat = y + rng.normal(scale=0.3, size=400)
        g = percent_errors(y, yhat)
        assert abs(g.rmse - np.sqrt(g.mse)) <= 1e-9 * max(g.rmse, 1e-30)

    worst_kl = np.inf
    for _ in range(1000):
        kind = rng.integers(3)
        if kind == 0:
            a, b = rng.normal(size=300), rng.normal(loc=rng.uniform(-2, 2), size=300)
        elif kind == 1:
            a, b = rng.lognormal(size=300), rng.lognormal(sigma=1.5, size=300)
        else:
            a, b = rng.uniform(size=300), rng.uniform(high=rng.uniform(0.5, 3), size=300)
        kl = float(kl_divergences(a, b)[0])
        worst_kl = min(worst_kl, kl)
        assert kl >= 0.0
    col = rng.normal(size=500)
    assert kl_divergences(col, col.copy())[0] == 0.0

    X = rng.normal(size=(300, 8))
    X[:, 3] = 2.0 * X[:, 0] + rng.normal(scale=0.1, size=300)  # correlated pair
    scales = rng.uniform(0.1, 5.0, size=8)  # orientation-preserving maps only
    shifts = rng.uniform(-100.0, 100.0, size=8)
    delta = correlation_difference(X, X * scales + shifts)
    assert float(np.nanmax(np.abs(delta))) < 1e-12

    for _ in range(50):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(20, 300))
        yt = rng.integers(0, k, size=n).astype(np.int64)
        yt[:k] = np.arange(k)
        yp = rng.integers(0, k, size=n).astype(np.int64)
        rep = score(yt, yp, [f"c{i}" for i in range(k)])
        assert rep.accuracy == np.trace(rep.confusion) / n
    report(6, f"min KL over 1000 pairs {worst_kl:.3e}, "
              f"max |corr delta| {np.nanmax(np.abs(delta)):.2e}")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_forest_oracle():
    """Forest predictions reproduce an independent per-tree traversal and
    majority vote on 100 rows, exactly; one tree memorizes clean data."""
    rng = np.random.default_rng(707)
    X = rng.normal(size=(600, 9))
    y = ((X[:, 0] > 0).astype(np.int64) * 2 + (X[:, 4] + X[:, 7] > 0.3).astype(np.int64))
    model = fit_forest(X, y, n_classes=4, n_trees=20, seed=11)

    probe = rng.normal(size=(100, 9))
    got = predict(model, probe)
    for i in range(100):
        votes = np.zeros(4, dtype=np.int64)
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                if probe[i, tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            counts = tree.class_counts[node]
            winner = 0
            for c in range(1, 4):
                if counts[c] > counts[winner]:
                    winner = c
            votes[winner] += 1
        expect = 0
        for c in range(1, 4):
            if votes[c] > votes[expect]:
                expect = c
        assert got[i] == expect, f"row {i}: {got[i]} != {expect}"

    Xc = rng.normal(size=(500, 6))
    Xc += np.arange(500)[:, None] * 1e-9  # no duplicate rows
    yc = (np.sin(Xc[:, 0]) + Xc[:, 1] > 0).astype(np.int64)
    tree = fit_tree(Xc, yc, n_classes=2, seed=5)
    train_acc = float(np.mean(predict_tree(tree, Xc) == yc))
    assert train_acc == 1.0
    report(7, "100/100 oracle matches, single-tree training accuracy 1.0")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_compression_ratio_values():
    """21 features at 8 bytes against 16 latents at 4 bytes is exactly
    2.625; equal widths give exactly 1.3125."""
    assert compression_ratio(21, 16, 8, 4) == 2.625
    assert compression_ratio(21, 16, 8, 8) == 1.3125
    assert compression_ratio(21, 16, 4, 4) == 1.3125
    # A previously reported value of 3.28 for this 21 -> 16 reduction is not
    # reachable from the size formula under any uniform byte-width pairing;
    # the nearest candidates are below. It is flagged, not reproduced.
    widths = {compression_ratio(21, 16, ow, lw) for ow in (2, 4, 8, 16) for lw in (2, 4, 8, 16)}
    assert 3.28 not in widths
    assert not any(abs(w - 3.28) < 0.01 for w in widths)
    report(8, f"2.625 and 1.3125 exact; 3.28 unreachable from uniform widths {sorted(widths)}")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_pipeline_determinism(tmp_path):
    """The CLI pipeline, run twice with seed 42, produces byte-identical
    models, containers, and reports. The epoch timing log is the only
    artifact allowed to differ."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 42,
        "train": {"max_epochs": 25},
        "synth": {"n_per_class": 120},
        "forest": {"n_trees": 40},
    }))

    def run(root):
        root.mkdir()
        data = root / "flows.csv"
        out = root / "train"
        assert main(["synth", "--config", str(cfg_path), "--output", str(data)]) == 0
        assert main(["train", "--config", str(cfg_path), "--input", str(data),
                     "--output-dir", str(out)]) == 0
        model = str(out / "autoencoder.fcae")
        pre = str(out / "preprocessor.json")
        assert main(["compress", "--config", str(cfg_path), "--model", model,
                     "--preprocessor", pre, "--input", str(data),
                     "--output", str(root / "flows.fclz")]) == 0
        assert main(["decompress", "--model", model, "--preprocessor", pre,
                     "--input", str(root / "flows.fclz"),
                     "--output", str(root / "recon.csv")]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--original", str(data),
                     "--reconstructed", str(root / "recon.csv"),
                     "--output-dir", str(root / "eval")]) == 0
        assert main(["compare", "--config", str(cfg_path), "--input", str(data),
                     "--model", model, "--preprocessor", pre,
                     "--output-dir", str(root / "cmp")]) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")

    compared = []
    for rel in (
        "flows.csv",
        "train/autoencoder.fcae",
        "train/preprocessor.json",
        "train/train_summary.json",
        "flows.fclz",
        "recon.csv",
        "eval/reconstruction_report.json",
        "eval/feature_reconstruction.csv",
        "eval/correlation_difference.csv",
        "eval/row_percent_errors.csv",
        "cmp/comparison_report.json",
        "cmp/comparison.txt",
        "cmp/classification_report_original.json",
        "cmp/classification_report_compressed.json",
        "cmp/confusion_original.csv",
        "cmp/confusion_compressed.csv",
    ):
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared.append(rel)
    report(9, f"{len(compared)} artifacts byte-identical across runs "
              "(epoch timing log excluded)")


# ------------------------------------------------------------- criterion 10


REAL_DATASET = os.environ.get("FLOWCODEC_REAL_DATASET", "")


@pytest.mark.skipif(
    not REAL_DATASET,
    reason="full-scale labeled flow dataset not available; "
    "set FLOWCODEC_REAL_DATASET to its CSV path to enable",
)
def test_criterion_10_full_scale_accuracy():
    """Against the full-scale labeled dataset: original-feature accuracy
    0.9977 +- 0.002, compressed 0.9922 +- 0.004, and every per-feature
    median percent error at most 2.5."""
    from flowcodec.flow_data import load_csv

    ds = load_csv(REAL_DATASET, None)
    split = stratified_split(ds, 0.2, 42)
    tr = np.asarray(split.train)
    te = np.asarray(split.test)

    state = preprocess.fit(ds.features[tr], ds.schema.compressible_columns)
    model, _ = autoencoder.train(
        preprocess.transform(ds.features[tr], state),
        preprocess.transform(ds.features[te], state),
        TrainConfig(seed=42),
        feature_names=ds.schema.compressible_columns,
        preprocessor_fingerprint=state.fingerprint(),
    )
    scaled = preprocess.transform(ds.features, state)
    latents = autoencoder.encode(model, scaled)
    recon = preprocess.inverse_transform(autoencoder.reconstruct(model, scaled[te]), state)

    worst = 0.0
    for value in percent_errors(ds.features[te], recon).median_percent_error:
        if value is not None:
            worst = max(worst, value)
    assert worst <= 2.5

    y = ds.label_ids
    acc = {}
    for arm, feats in (("original", ds.features), ("compressed", latents)):
        forest = fit_forest(feats[tr], y[tr], n_classes=len(ds.class_names),
                            n_trees=100, seed=42)
        acc[arm] = score(y[te], predict(forest, feats[te]), tuple(ds.class_names)).accuracy
    assert abs(acc["original"] - 0.9977) <= 0.002
    assert abs(acc["compressed"] - 0.9922) <= 0.004
    report(10, f"original {acc['original']:.4f}, compressed {acc['compressed']:.4f}, "
               f"worst median %% error {worst:.2f}%")

import json

import numpy as np
import pytest

from flowcodec.errors import DataError, ModelFormatError
from flowcodec.preprocess import (
    PreprocessorState,
    fit,
    inverse_transform,
    transform,
)


def test_quantile_clip_oracle_sequential():
    # 1..1000: the 99.9th percentile with linear interpolation sits at rank
    # 0.999*(1000-1) = 998.001, i.e. 999 + 0.001*(1000-999).
    col = np.arange(1.0, 1001.0).reshape(-1, 1)
    state = fit(col)
    assert state.p99_9[0] == pytest.approx(999.001, abs=1e-9)
    assert state.median[0] == pytest.approx(500.5)
    # IQR on clipped values: p75 - p25 = 750.25 - 250.75.
    assert state.iqr[0] == pytest.approx(499.5)


def test_quantile_clip_oracle_outlier():
    # Rank 0.999*3 = 2.997 interpolates between 0 and 1e6.
    col = np.array([[0.0], [0.0], [0.0], [1e6]])
    state = fit(col)
    assert state.p99_9[0] == pytest.approx(997000.0)
    # Statistics come from the clipped column [0, 0, 0, 997000].
    assert state.median[0] == 0.0
    assert state.iqr[0] == pytest.approx(0.25 * 997000.0)


def test_statistics_use_clipped_values():
    # Identical except for one extreme outlier: the clip threshold changes,
    # and so must the IQR computed after clipping.
    rng = np.random.default_rng(4)
    base = rng.uniform(0.0, 100.0, size=(2000, 1))
    spiked = base.copy()
    spiked[-1, 0] = 1e9
    s1, s2 = fit(base), fit(spiked)
    assert s2.p99_9[0] > s1.p99_9[0]
    clipped = np.minimum(spiked[:, 0], s2.p99_9[0])
    assert s2.median[0] == np.median(clipped)
    expected_iqr = np.quantile(clipped, 0.75) - np.quantile(clipped, 0.25)
    assert s2.iqr[0] == pytest.approx(expected_iqr, rel=1e-12)


def test_quartiles_match_one_quantile_call_per_statistic():
    # fit takes both quartiles and the median from one np.quantile call; each
    # must have the bytes that its own call gives. Half the matrices are
    # rounded to integers so that ties occur.
    rng = np.random.default_rng(21)
    for i in range(40):
        m = rng.lognormal(3.0, 2.0, size=(int(rng.integers(4, 3000)), 21))
        if i % 2:
            m = np.round(m)
        state = fit(m)
        p = np.quantile(m, 0.999, axis=0, method="linear")
        clipped = np.minimum(m, p)
        q1, q2, q3 = (np.quantile(clipped, q, axis=0, method="linear") for q in (0.25, 0.5, 0.75))
        assert state.p99_9.tobytes() == p.tobytes()
        assert state.median.tobytes() == q2.tobytes()
        assert state.iqr.tobytes() == np.where(q3 - q1 == 0.0, 1.0, q3 - q1).tobytes()


def test_constant_column_gets_unit_scale():
    m = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    state = fit(m)
    assert state.iqr[0] == 1.0
    z = transform(m, state)
    assert np.all(z[:, 0] == 0.0)


def test_round_trip_exact_for_in_range_data():
    rng = np.random.default_rng(7)
    m = rng.lognormal(3.0, 1.0, size=(5000, 21))
    state = fit(m)
    in_range = np.minimum(m, state.p99_9)
    back = inverse_transform(transform(in_range, state), state)
    assert np.allclose(back, in_range, rtol=1e-12, atol=0.0)


def test_clipping_is_lossy_above_threshold():
    m = np.array([[0.0], [1.0], [2.0], [1000.0]])
    state = fit(m)
    back = inverse_transform(transform(m, state), state)
    assert back[-1, 0] < 1000.0
    assert back[-1, 0] == pytest.approx(state.p99_9[0])


def test_transform_centers_and_scales():
    rng = np.random.default_rng(12)
    m = rng.normal(50.0, 9.0, size=(4000, 6))
    z = transform(m, fit(m))
    med = np.median(z, axis=0)
    iqr = np.quantile(z, 0.75, axis=0) - np.quantile(z, 0.25, axis=0)
    assert np.max(np.abs(med)) < 1e-9
    # Clipping the top 0.1% nudges the upper quantile slightly; the IQR of the
    # transformed fitting data still sits at 1 within clip-induced slack.
    assert np.max(np.abs(iqr - 1.0)) < 1e-2


def test_fit_validation():
    with pytest.raises(DataError):
        fit(np.ones((3, 2)))
    bad = np.ones((10, 2))
    bad[3, 1] = np.nan
    with pytest.raises(DataError, match="1"):
        fit(bad)


def test_transform_width_mismatch():
    state = fit(np.random.default_rng(0).normal(size=(50, 3)))
    with pytest.raises(DataError):
        transform(np.ones((5, 4)), state)


def test_state_save_load_fingerprint(tmp_path):
    state = fit(np.random.default_rng(3).normal(size=(100, 4)))
    path = tmp_path / "state.json"
    state.save(path)
    loaded = PreprocessorState.load(path)
    assert loaded.feature_names == state.feature_names
    assert np.array_equal(loaded.p99_9, state.p99_9)
    assert np.array_equal(loaded.median, state.median)
    assert np.array_equal(loaded.iqr, state.iqr)
    assert loaded.fingerprint() == state.fingerprint()

    other = fit(np.random.default_rng(4).normal(size=(100, 4)))
    assert other.fingerprint() != state.fingerprint()


def test_state_load_rejects_bad_files(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(ModelFormatError):
        PreprocessorState.load(p)
    p.write_text('{"version": 999}')
    with pytest.raises(ModelFormatError):
        PreprocessorState.load(p)
    p.write_text('{"version": 1, "feature_names": ["a"]}')
    with pytest.raises(ModelFormatError):
        PreprocessorState.load(p)

    state = fit(np.random.default_rng(5).normal(size=(50, 2)), ("a", "b"))
    state.save(p)
    good = json.loads(p.read_text())
    for change in (
        {"iqr": "abc"},
        {"iqr": [1.0, float("nan")]},
        {"iqr": [1.0, 0.0]},
        {"iqr": [1.0, -2.0]},
        {"median": [0.0, float("inf")]},
        {"p99_9": [1.0]},
        {"p99_9": [[1.0, 2.0]]},
        {"median": [True, False]},
        {"feature_names": "ab"},
        {"fitted_on": "50"},
        {"fitted_on": None},
        # JSON true and 1.0 compare equal to 1 in Python, but are not the integer version.
        {"version": True},
        {"version": 1.0},
    ):
        p.write_text(json.dumps({**good, **change}))
        with pytest.raises(ModelFormatError):
            PreprocessorState.load(p)
    p.write_text(json.dumps([good]))
    with pytest.raises(ModelFormatError):
        PreprocessorState.load(p)
    with pytest.raises(ModelFormatError):
        PreprocessorState.load(tmp_path / "missing.json")

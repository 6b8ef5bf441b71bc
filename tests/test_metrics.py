"""Metric tests against an independent naive reimplementation.

The oracle below uses pure-Python loops and shares no helpers with the
library implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapts.errors import DataError, ShapeError
from leapts.metrics import mae, mape, mase, metrics, mse, smape


def oracle_metrics(pred, truth, history, s):
    """Naive per-variate loops; no numpy vectorization, no shared code."""
    P, N = len(pred), len(pred[0])
    L = len(history)
    out = {"mse": 0.0, "mae": 0.0, "smape": 0.0, "mape": 0.0, "mase": 0.0}
    for j in range(N):
        se = ae = sm = mp = 0.0
        for i in range(P):
            d = truth[i][j] - pred[i][j]
            se += d * d
            ae += abs(d)
            denom = abs(truth[i][j]) + abs(pred[i][j])
            sm += 200.0 * abs(d) / denom if denom > 0 else 0.0
            mp += 100.0 * abs(d) / abs(truth[i][j])
        scale = 0.0
        for i in range(s, L):
            scale += abs(history[i][j] - history[i - s][j])
        scale /= L - s
        out["mse"] += se / P
        out["mae"] += ae / P
        out["smape"] += sm / P
        out["mape"] += mp / P
        out["mase"] += (ae / P) / scale
    for k in out:
        out[k] /= N
    return out


def test_perfect_prediction_all_zero():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    history = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
    rep = metrics(truth, truth, history, s=1)
    assert rep.mse == rep.mae == rep.smape == rep.mape == rep.mase == 0.0


def test_mase_hand_case():
    # mean |delta history| = 1, forecast MAE = 1 -> MASE = 1
    assert mase([4.0, 5.0], [3.0, 4.0], [1.0, 2.0, 3.0], s=1) == pytest.approx(1.0, abs=1e-15)


def test_smape_hand_case():
    assert smape([3.0], [1.0]) == pytest.approx(100.0, abs=1e-12)


def test_smape_zero_terms_contribute_zero():
    assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert smape([0.0], [2.0]) == pytest.approx(200.0)


def test_mase_zero_denominator_rejected():
    with pytest.raises(DataError, match="denominator"):
        mase([1.0], [2.0], [5.0, 5.0, 5.0], s=1)


def test_mase_seasonality_validation():
    with pytest.raises(DataError):
        mase([1.0], [2.0], [1.0, 2.0], s=0)
    with pytest.raises(DataError):
        mase([1.0], [2.0], [1.0, 2.0], s=2)


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(np.ones((2, 2)), np.ones((3, 2)))


def test_oracle_equivalence_100_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        P = int(rng.integers(1, 12))
        N = int(rng.integers(1, 5))
        L = int(rng.integers(3, 20))
        s = int(rng.integers(1, max(2, L // 2)))
        pred = rng.normal(loc=1.0, size=(P, N))
        truth = rng.normal(loc=2.0, size=(P, N)) + 0.1  # keep |truth| > 0
        history = rng.normal(size=(L, N)).cumsum(axis=0) + rng.normal(size=(L, N))
        rep = metrics(pred, truth, history, s=s)
        want = oracle_metrics(pred.tolist(), truth.tolist(), history.tolist(), s)
        for key in ("mse", "mae", "smape", "mape", "mase"):
            assert abs(getattr(rep, key) - want[key]) < 1e-10, key


def test_owa_from_references():
    pred = np.array([[2.0]])
    truth = np.array([[1.0]])
    history = np.array([[0.0], [2.0], [1.0]])
    rep = metrics(pred, truth, history, s=1, smape_ref=50.0, mase_ref=1.0)
    # smape = 200*1/3, mase = 1/1.5
    assert rep.owa == pytest.approx(0.5 * ((200.0 / 3) / 50.0 + (2.0 / 3) / 1.0), abs=1e-12)
    assert metrics(pred, truth, history, s=1).owa is None
    with pytest.raises(DataError):
        metrics(pred, truth, history, s=1, smape_ref=0.0, mase_ref=1.0)


def test_per_horizon_breakdown():
    pred = np.array([[1.0, 1.0], [2.0, 2.0]])
    truth = np.array([[2.0, 2.0], [2.0, 2.0]])
    rep = metrics(pred, truth, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), s=1)
    assert rep.per_horizon_mse == [1.0, 0.0]
    assert rep.per_horizon_mae == [1.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(0.1, 1000.0),
    seed=st.integers(0, 10_000),
)
def test_mase_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(4, 2))
    truth = rng.normal(size=(4, 2))
    history = rng.normal(size=(9, 2)).cumsum(axis=0)
    try:
        base = mase(pred, truth, history, s=2)
    except DataError:
        return
    scaled = mase(scale * pred, scale * truth, scale * history, s=2)
    assert scaled == pytest.approx(base, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_smape_range(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(6, 3))
    truth = rng.normal(size=(6, 3))
    val = smape(pred, truth)
    assert 0.0 <= val <= 200.0


def test_metrics_submodule_not_shadowed_by_package():
    import leapts.metrics as m

    assert callable(m.metrics) and m.mse is mse

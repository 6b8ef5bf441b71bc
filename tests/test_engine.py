import collections
import contextlib
import copy
import dataclasses
import functools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leapts.engine as engine
import tape_ops as ops
import leapts.forward as forward
from leapts.autodiff import Tape, Tensor
from leapts.diagnostics import fixed_partition, partition_to_steps, sample_partition
from leapts.engine import (
    build_control_signal,
    cluster_variates,
    evolve_state,
    increments,
    routed_segment,
    run_schedule_rows,
    series_features,
    soft_mask,
    summarize_segment,
    write_segment,
)
from leapts.errors import ConfigError, DataError, NumericError
from leapts.forward import forward_rows, predict_batch
from leapts.model import LeapTS, ModelConfig
from leapts.traces import build_traces

from conftest import toy_config
from step_records import StepDebug, debug_run


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# -- soft mask ---------------------------------------------------------------


def mask_row(length, cursor, P, gamma):
    """One-row call of the batched soft mask."""
    return soft_mask(np.array([[float(length)]]), np.array([cursor]), P, gamma)


def test_soft_mask_hand_values():
    m = mask_row(2.0, cursor=1, P=4, gamma=0.1)[0]
    expected = [sigmoid(15.0), sigmoid(5.0), sigmoid(-5.0), sigmoid(-15.0)]
    assert np.allclose(m, expected, rtol=1e-12)
    assert m[0] == pytest.approx(0.99999969, abs=1e-8)
    assert m[1] == pytest.approx(0.993307, abs=1e-6)
    assert m[2] == pytest.approx(0.006693, abs=1e-6)
    assert m[3] == pytest.approx(3.06e-7, abs=1e-9)


def test_soft_mask_zero_before_cursor():
    m = mask_row(2.0, cursor=3, P=4, gamma=0.1)[0]
    assert m[0] == 0.0 and m[1] == 0.0
    assert m[2] > 0.9


def test_soft_mask_sharp_limit_matches_hard_indicator():
    P = 20
    for length in (1, 3, 7, 20):
        for cursor in (1, 5, 14):
            m = mask_row(length, cursor=cursor, P=P, gamma=1e-3)[0]
            hard = np.zeros(P)
            hard[cursor - 1 : min(cursor - 1 + length, P)] = 1.0
            assert np.abs(m - hard).max() < 1e-6
            covered = min(length, P - cursor + 1)
            assert covered - 0.01 <= m.sum() <= covered + 0.01


def test_soft_mask_zero_on_finished_rows():
    """A row past the horizon (cursor P+1) writes nothing, whatever its
    length; the other rows are unaffected."""
    sel = np.array([[2.0], [3.0], [2.0]])
    m = soft_mask(sel, np.array([1, 5, 3]), 4, 0.1)
    assert np.array_equal(m[1], np.zeros(4))
    assert np.array_equal(m[0], mask_row(2.0, cursor=1, P=4, gamma=0.1)[0])
    assert np.array_equal(m[2], mask_row(2.0, cursor=3, P=4, gamma=0.1)[0])


def test_soft_mask_gradient_flows_to_length():
    """A single-step loop's forecast rises with its continuous length, so
    the length head's bias gets a positive gradient of the masked sum."""
    model = LeapTS(toy_config(horizon=4, look_back=48, mask_temp=0.5))
    assert model.anchors.degenerate
    s = model.store
    s["seg_head_single_w"].data[:] = 0.0
    s["seg_head_single_b"].data[:] = 1.0  # a segment of ones: the forecast is the mask
    s["len_head_single_w"].data[:] = 0.0
    s["len_head_single_b"].data[:] = 0.0  # length 2.5 of [1, 4]
    records = []
    with Tape():
        y, steps, _ = run_schedule_rows(model, np.zeros((1, 8)), one_cluster(1), records=records)
    grads = {}
    engine.schedule_vjp(model, steps, np.ones_like(y), grads)
    traces = build_traces(records, (np.zeros(1), np.zeros(1), np.zeros(1)), ["single"])
    assert [st.len_cont for st in traces[0].steps] == [2.5, 2.5]
    assert grads["len_head_single_b"][0] > 0.0


def _four_op_mask(sel, cursor, P, gamma):
    """The soft mask as sub, mul, sigmoid and mul nodes."""
    tau = np.arange(1, P + 1, dtype=np.float64)
    indicator = (tau[None, :] >= cursor[:, None]).astype(np.float64)
    offs = tau[None, :] - cursor[:, None].astype(np.float64) + 0.5
    return ops.mul(ops.sigmoid(ops.mul(ops.sub(sel, offs), 1.0 / gamma)), indicator)


def test_soft_mask_matches_the_four_op_composition_bit_for_bit(rng):
    """Values equal the four-op chain's on a row at the start, one partway
    along the horizon and a finished one. (Its gradient is part of the
    loop's reverse pass, checked against the per-op tape below.)"""
    P, gamma = 12, 0.1
    cursor = np.array([1, 5, P + 1])
    lengths = rng.uniform(1.0, 8.0, size=(3, 1))
    mask = soft_mask(lengths, cursor, P, gamma)
    assert np.array_equal(mask, _four_op_mask(Tensor(lengths), cursor, P, gamma).data)
    assert np.all(mask[1, :4] == 0.0) and np.all(mask[2] == 0.0)


# -- write / summarize / control / evolve -------------------------------------


def test_write_segment_zero_mask_noop():
    accum = np.array([1.0, 2.0, 3.0, 4.0])
    out, masked = write_segment(np.ones(4), np.zeros(4), accum)
    assert np.array_equal(out, accum)
    assert np.array_equal(masked, np.zeros(4))


def test_write_segment_hard_gate():
    accum = np.zeros(4)
    mask = np.array([1.0, 1.0, 0.0, 0.0])
    out, _ = write_segment(np.ones(4), mask, accum)
    assert np.array_equal(out, [1.0, 1.0, 0.0, 0.0])


def test_sequential_disjoint_writes_concatenate():
    accum = np.zeros(4)
    accum, _ = write_segment(np.array([5.0, 6.0, 99.0, 99.0]), np.array([1.0, 1.0, 0.0, 0.0]), accum)
    accum, _ = write_segment(np.array([99.0, 99.0, 7.0, 8.0]), np.array([0.0, 0.0, 1.0, 1.0]), accum)
    assert np.array_equal(accum, [5.0, 6.0, 7.0, 8.0])


def one_hot_route(category, n_rows=1):
    route = np.zeros((n_rows, 3))
    route[:, category] = 1.0
    return route


def test_segment_head_full_horizon_and_zero_case(toy_model):
    h = np.zeros((1, 8))
    for cat in range(3):
        seg = routed_segment(toy_model, h, one_hot_route(cat))
        assert seg.shape == (1, 8)  # full horizon regardless of length
        assert np.array_equal(seg, np.zeros((1, 8)))  # zero h, zero bias


def test_segment_heads_differ_across_categories(toy_model, rng):
    h = rng.normal(size=(1, 8))
    a = routed_segment(toy_model, h, one_hot_route(0))
    b = routed_segment(toy_model, h, one_hot_route(2))
    assert not np.allclose(a, b)


def test_routed_segment_mixes_heads_by_route(toy_model, rng):
    h = rng.normal(size=(2, 8))
    heads = [routed_segment(toy_model, h, one_hot_route(c, 2)) for c in range(3)]
    route = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]])
    mixed = routed_segment(toy_model, h, route)
    assert np.allclose(mixed, sum(route[:, c : c + 1] * heads[c] for c in range(3)), atol=1e-12)
    gathered = routed_segment(toy_model, h, one_hot_route(1, 2), chosen=np.array([2, 0]))
    assert np.allclose(gathered, np.stack([heads[2][0], heads[0][1]]), rtol=1e-12, atol=0)


def test_summarize_hand_case():
    w = np.zeros((8, 2))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    s = np.zeros((1, 8))
    s[0, 0], s[0, 1] = 0.5, -0.5
    c, pre = summarize_segment(s, w, np.zeros(2))
    assert np.allclose(c, [[math.tanh(0.5), math.tanh(-0.5)]], atol=1e-12)
    assert c[0, 0] == pytest.approx(0.4621, abs=1e-4)
    assert np.array_equal(pre, [[0.5, -0.5]])


def test_summarize_zero_segment_zero_bias():
    c, _ = summarize_segment(np.zeros((1, 8)), np.ones((8, 3)), np.zeros(3))
    assert np.array_equal(c, np.zeros((1, 3)))


def test_cold_start_temporal_increment_is_lower_clip():
    """First step: the previous normalized length is 0, so the temporal
    increment clips up to dt_min; with the control field zeroed and the
    drift field stubbed to 1, the first state change is exactly dt_min."""
    cfg = toy_config(seed=2)
    model = LeapTS(cfg)
    stub_fields(model, 0, f_const=0.0, g_const=1.0)
    _, debug = debug_run(run_rows, model)
    first = debug[0]
    assert np.allclose(first.h_after - first.h_before, cfg.dt_min, atol=1e-15)


def test_summary_bounded(rng):
    w = rng.normal(size=(8, 4))
    c, _ = summarize_segment(rng.normal(size=(3, 8)), w, np.zeros(4))
    assert np.abs(c).max() < 1.0
    big, _ = summarize_segment(rng.normal(scale=1e6, size=(3, 8)), w, np.zeros(4))
    assert np.abs(big).max() <= 1.0


def test_control_signal_hand_case():
    w = np.zeros((7, 1))
    w[0, 0] = 1.0  # picks out the remaining-horizon ratio
    u, ctx, _ = build_control_signal(
        rho=np.array([[0.5]]),
        prev_len_norm=np.array([[0.0]]),
        prev_soft=np.full((1, 3), 1.0 / 3.0),
        prev_summary=np.zeros((1, 2)),
        control_w=w,
        control_b=np.zeros(1),
    )
    assert u[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-12)
    assert np.array_equal(ctx, [[0.5, 0.0, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0]])


def test_control_signal_zero_weights():
    u, _, _ = build_control_signal(
        rho=np.array([[1.0]]),
        prev_len_norm=np.array([[0.0]]),
        prev_soft=np.full((1, 3), 1.0 / 3.0),
        prev_summary=np.zeros((1, 2)),
        control_w=np.zeros((7, 4)),
        control_b=np.zeros(4),
    )
    assert np.array_equal(u, np.zeros((1, 4)))


def test_increments():
    u = np.array([[0.3, -0.2]])
    du, dtau = increments(u, u, prev_len_norm=[[0.4]], dt_min=0.01, dt_max=1.0)
    assert np.array_equal(du, np.zeros((1, 2)))
    assert dtau[0, 0] == 0.4
    _, dtau = increments(u, u, prev_len_norm=[[0.0]], dt_min=0.01, dt_max=1.0)
    assert dtau[0, 0] == 0.01
    with pytest.raises(ValueError):
        increments(u, u, [[0.1]], dt_min=0.0, dt_max=1.0)


def stub_fields(model, cluster, f_const, g_const):
    """Make the evolution fields output constants (zero hidden, bias out)."""
    s = model.store
    for prefix, const, width in (
        (f"ctrl_field_g{cluster}", f_const, model.config.hidden_dim * model.config.control_dim),
        (f"time_field_g{cluster}", g_const, model.config.hidden_dim),
    ):
        s[f"{prefix}_w0"].data[:] = 0.0
        s[f"{prefix}_b0"].data[:] = 0.0
        s[f"{prefix}_w1"].data[:] = 0.0
        s[f"{prefix}_b1"].data[:] = const


def one_cluster(n_rows):
    """Row clusters for rows that all belong to cluster 0."""
    return np.zeros(n_rows, dtype=np.int64)


def test_evolve_hand_arithmetic():
    cfg = ModelConfig(look_back=8, horizon=2, n_variates=1, hidden_dim=1, control_dim=1,
                      summary_dim=2, enc_hidden=(4,), field_hidden=4)
    model = LeapTS(cfg)
    stub_fields(model, 0, f_const=2.0, g_const=3.0)
    h = np.array([[1.0]])
    u = np.array([[0.2]])
    du = np.array([[0.5]])
    h_next, d_ctrl, d_time, _ = evolve_state(model, h, u, du, np.array([[0.1]]), one_cluster(1),
                                             keep=False)
    assert d_ctrl[0, 0] == pytest.approx(1.0, abs=1e-12)  # 2 * 0.5
    assert d_time[0, 0] == pytest.approx(0.3, abs=1e-12)  # 3 * 0.1
    assert h_next[0, 0] == pytest.approx(2.3, abs=1e-12)


def test_evolve_no_driving_signal_keeps_state(toy_model, rng):
    h = rng.normal(size=(2, 8))
    u = rng.normal(size=(2, 4))
    du = np.zeros((2, 4))
    stub_fields(toy_model, 0, f_const=1.7, g_const=0.0)
    h_next, d_ctrl, d_time, _ = evolve_state(toy_model, h, u, du, np.zeros((2, 1)), one_cluster(2),
                                             keep=False)
    assert np.array_equal(h_next, h)
    assert np.array_equal(d_ctrl, np.zeros((2, 8)))


def test_evolve_pure_temporal_drift(toy_model, rng):
    stub_fields(toy_model, 0, f_const=0.0, g_const=0.5)
    h = rng.normal(size=(1, 8))
    u = rng.normal(size=(1, 4))
    du = rng.normal(size=(1, 4))
    h_next, d_ctrl, d_time, _ = evolve_state(toy_model, h, u, du, np.array([[0.2]]), one_cluster(1),
                                             keep=False)
    assert np.allclose(d_ctrl, 0.0)
    assert np.allclose(h_next, h + 0.5 * 0.2, atol=1e-12)


def test_evolve_routes_rows_to_their_cluster(rng):
    model = LeapTS(toy_config(n_clusters=2))
    stub_fields(model, 0, f_const=0.0, g_const=1.0)
    stub_fields(model, 1, f_const=0.0, g_const=2.0)
    h = rng.normal(size=(3, 8))
    u = rng.normal(size=(3, 4))
    du = rng.normal(size=(3, 4))
    dtau = np.array([[0.1], [0.2], [0.3]])
    h_next, _, d_time, _ = evolve_state(model, h, u, du, dtau, np.array([0, 1, 0]), keep=False)
    assert np.allclose(d_time[:, 0], [0.1, 0.4, 0.3], atol=1e-15)
    assert np.allclose(h_next, h + d_time, atol=1e-15)


def test_evolve_under_a_tape_concatenates_state_and_control_once(monkeypatch, rng):
    """G=3: the rows of one concatenation of [h, u] feed every cluster's
    field MLPs, each of which runs on that cluster's rows only, and each
    cluster keeps those rows for the reverse pass."""
    model = LeapTS(toy_config(n_variates=3, n_clusters=3))
    calls = []
    dense = engine._dense
    monkeypatch.setattr(engine, "_dense",
                        lambda x, *a, **kw: calls.append(x.shape[0]) or dense(x, *a, **kw))
    h, u = rng.normal(size=(6, 8)), rng.normal(size=(6, 4))
    clusters = np.array([0, 1, 2, 2, 1, 2])
    *_, fields = evolve_state(model, h, u, u, np.full((6, 1), 0.5), clusters, keep=True)
    assert calls == [1] * 4 + [2] * 4 + [3] * 4
    inp = np.concatenate([h, u], axis=1)
    for g, rows, x, *_ in fields:
        assert np.array_equal(rows, np.flatnonzero(clusters == g))
        assert np.array_equal(x, inp[rows])


# -- clustering ----------------------------------------------------------------


def test_cluster_single_group(rng):
    values = rng.normal(size=(50, 5))
    out = cluster_variates(values, 1)
    assert np.array_equal(out.assignment, np.zeros(5, dtype=int))


def test_cluster_constants_vs_sine():
    t = np.arange(200)
    values = np.stack([np.zeros(200), np.zeros(200), np.sin(t * 2.5)], axis=1)
    out = cluster_variates(values, 2, seed=1)
    assert out.assignment[0] == out.assignment[1]
    assert out.assignment[2] != out.assignment[0]


def test_cluster_each_variate_alone(rng):
    values = np.stack([rng.normal(loc=3 * i, size=100) for i in range(4)], axis=1)
    out = cluster_variates(values, 4, seed=0)
    assert len(set(out.assignment.tolist())) == 4


def test_cluster_degenerate_all_constant():
    values = np.ones((50, 6)) * 2.5
    out = cluster_variates(values, 3)
    assert np.array_equal(out.assignment, np.zeros(6, dtype=int))


def test_cluster_validates_inputs(rng):
    with pytest.raises(DataError):
        cluster_variates(rng.normal(size=(50, 3)), 4)
    with pytest.raises(DataError):
        series_features(rng.normal(size=(2, 3)))


# -- the scheduling loop ---------------------------------------------------------


def run_rows(model, n_windows=1, mode="eval", rng=None, seed=0, fwd=forward_rows, **kw):
    """``fwd`` (the model's forward, or the per-op oracle's) on random windows."""
    data_rng = np.random.default_rng(seed)
    x = data_rng.normal(size=(n_windows, model.config.look_back, model.config.n_variates))
    return fwd(model, x, mode=mode, rng=rng, traces_from=0, **kw)


def test_forced_lengths_two_steps():
    model = LeapTS(toy_config(horizon=4, look_back=8))  # non-degenerate: 8//4+1=3 < 4
    forced = [[(0, 2.0, 2), (0, 2.0, 2)]] * 2
    out = run_rows(model, override=forced)
    for tr in out["traces"]:
        assert tr.n_steps == 2
        assert [s.cursor_before for s in tr.steps] == [1, 3]
        assert tr.steps[-1].cursor_after == 5


_BUILTIN = {"int": int, "float": float, "str": str, "bool": bool}


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("case", ["eval", "capped", "override"])
def test_trace_fields_have_builtin_types(case, tape):
    """Every `TraceStep` field is a builtin value of its annotated type, not
    a numpy scalar: the loop collects them from `.tolist()` columns."""
    model = LeapTS(toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3,
                              max_steps=1 if case == "capped" else None))
    assert not model.anchors.degenerate
    kw = {}
    if case == "override":
        kw["override"] = [[(c % 3, 4.0, 4)] * 3 for c in range(6)]
    with Tape() if tape else contextlib.nullcontext():
        traces = run_rows(model, n_windows=2, **kw)["traces"]
    steps = [s for tr in traces for s in tr.steps]
    assert steps and any(s.forced for s in steps) == (case == "capped")
    for s in steps:
        for f in dataclasses.fields(s):
            value = getattr(s, f.name)
            if f.type == "list[float]":
                assert type(value) is list and all(type(v) is float for v in value), f.name
            else:
                assert type(value) is _BUILTIN[f.type], (f.name, type(value))


def test_override_errors_name_row_and_step():
    model = LeapTS(toy_config(horizon=4, look_back=8))
    with pytest.raises(DataError, match=r"override for row 1 exhausted at step 1$"):
        run_rows(model, override=[[(0, 4.0, 4)], [(0, 2.0, 2)]])
    with pytest.raises(DataError, match=r"override length 5 outside 1\.\.3 \(row 0, step 1\)$"):
        run_rows(model, override=[[(0, 1.0, 1), (0, 5.0, 5)], [(0, 4.0, 4)]])
    with pytest.raises(DataError, match=r"override length 0 outside 1\.\.4 \(row 1, step 0\)$"):
        run_rows(model, override=[[(0, 4.0, 4)], [(0, 0.0, 0)]])
    malformed = [  # (override, row, step): category -1, C and 1.5; a pair; a NaN len_cont
        ([[(0, 4.0, 4)], [(-1, 4.0, 4)]], 1, 0),
        ([[(0, 1.0, 1), (3, 3.0, 3)], [(0, 4.0, 4)]], 0, 1),
        ([[(1.5, 4.0, 4)], [(0, 4.0, 4)]], 0, 0),
        ([[(0, 4.0, 4)], [(0, 4.0)]], 1, 0),
        ([[(0, 2.0, 2), (0, np.nan, 2)], [(0, 4.0, 4)]], 0, 1),
    ]
    for override, r, k in malformed:
        message = (rf"^override step {re.escape(repr(override[r][k]))} is not a \(category in "
                   rf"0\.\.2, finite len_cont, integral len_int\) triple \(row {r}, step {k}\)$")
        with pytest.raises(DataError, match=message):
            run_rows(model, override=override)


def test_bad_loop_mode_and_train_mode_without_noise_are_config_errors():
    """Both are a caller's configuration, not data: `ConfigError`, which
    is also a `ValueError`, from the model's forward and the oracle's."""
    model = LeapTS(toy_config(horizon=12, look_back=16, n_variates=3))
    assert not model.anchors.degenerate  # three scales: train mode draws noise
    for fwd in (forward_rows, ops.forward_rows):
        with pytest.raises(ConfigError, match=r"^unknown schedule mode 'bogus'$"):
            run_rows(model, mode="bogus", fwd=fwd)
        with pytest.raises(ConfigError, match=r"^train mode needs an rng"):
            run_rows(model, mode="train", fwd=fwd)


def test_nonfinite_noise_names_its_loop_step():
    """Frozen Gumbel noise that is infinite only at step 2 stops the loop
    there, at the scale distribution it makes non-finite."""
    model = LeapTS(toy_config(horizon=12, look_back=16, n_variates=3, n_clusters=3))
    noise = [np.zeros((6, 3)) for _ in range(4)]
    noise[2][:, 1] = np.inf
    override = [[(0, 4.0, 4)] * 3] * 6
    message = r"^schedule step 2: non-finite values in scale distribution$"
    with pytest.raises(NumericError, match=message), np.errstate(invalid="ignore"):
        run_rows(model, n_windows=2, mode="soft", frozen_noise=noise, override=override)


def test_horizon_one_single_step():
    model = LeapTS(toy_config(horizon=1, look_back=24))
    out = run_rows(model)
    for tr in out["traces"]:
        assert tr.n_steps == 1
        assert tr.steps[0].len_int == 1


def test_max_steps_cap_forces_completion():
    model = LeapTS(toy_config(horizon=8, look_back=8, max_steps=1, seed=2))
    # bias the single-level/short heads low so one step cannot cover P
    for name in model.anchors.category_names():
        model.store[f"len_head_{name}_w"].data[:] = 0.0
        model.store[f"len_head_{name}_b"].data[:] = -50.0
    out = run_rows(model)
    for tr in out["traces"]:
        assert tr.n_steps == 2
        assert not tr.steps[0].forced
        assert tr.steps[1].forced
        assert tr.steps[1].cursor_after == 9
        assert tr.total_int_length() >= 8


def test_schedule_invariants_over_random_models(rng):
    for trial in range(30):
        cfg = toy_config(
            look_back=int(rng.integers(8, 40)),
            horizon=int(rng.integers(2, 16)),
            n_variates=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 10_000)),
        )
        model = LeapTS(cfg)
        out, debug = debug_run(run_rows, model, mode="train", rng=np.random.default_rng(trial))
        for tr in out["traces"]:
            assert tr.n_steps <= cfg.horizon
            assert tr.total_int_length() >= cfg.horizon
            cursors = [s.cursor_before for s in tr.steps]
            assert cursors == sorted(cursors)
            assert tr.steps[-1].cursor_after > cfg.horizon
        for step in debug:
            for r in range(step.mask.shape[0]):
                q = step.cursor_before[r]
                assert np.all(step.mask[r, : q - 1] == 0.0)


def hard_paste_oracle(debug, n_rows, horizon):
    """Independent accumulation: paste each step's raw segment values hard
    over [cursor, cursor + len) with no mask arithmetic."""
    out = np.zeros((n_rows, horizon))
    for step in debug:
        for r in range(n_rows):
            if not step.active[r]:
                continue
            q = int(step.cursor_before[r])
            li = int(step.len_int[r])
            out[r, q - 1 : q - 1 + li] += step.segment[r, q - 1 : q - 1 + li]
    return out


def test_hard_limit_equivalence_with_paste_oracle():
    """With a sharp mask and integer forced lengths, the scheduled
    accumulation equals hard-pasting each segment at [q, q+len)."""
    cfg = toy_config(horizon=8, look_back=16, mask_temp=1e-3, seed=4)
    model = LeapTS(cfg)
    forced = [[(0, 3.0, 3), (1, 4.0, 4), (0, 1.0, 1)]] * 2
    out, debug = debug_run(run_rows, model, override=forced)
    sched = out["sched"].data
    oracle = hard_paste_oracle(debug, n_rows=2, horizon=8)
    assert np.abs(oracle - sched).max() < 1e-5


def test_hard_limit_equivalence_natural_schedule():
    """Same check on the model's own (unforced) integer-valued schedule:
    round each natural length and replay it as a forced trace."""
    cfg = toy_config(horizon=8, look_back=16, mask_temp=1e-3, seed=21)
    model = LeapTS(cfg)
    probe = run_rows(model)
    forced = [
        [(s.category, float(s.len_int), s.len_int) for s in tr.steps]
        for tr in probe["traces"]
    ]
    out, debug = debug_run(run_rows, model, override=forced)
    oracle = hard_paste_oracle(debug, n_rows=2, horizon=8)
    assert np.abs(oracle - out["sched"].data).max() < 1e-5


def test_decomposition_identity_exact(rng):
    model = LeapTS(toy_config(seed=8))
    out, debug = debug_run(run_rows, model, n_windows=2)
    assert len(debug) >= 1
    for step in debug:
        reconstructed = step.h_before + (step.ctrl_delta + step.time_delta)
        assert np.array_equal(step.h_after, reconstructed)
    for tr in out["traces"]:
        for s in tr.steps:
            if s.ctrl_mag + s.time_mag > 0:
                assert s.ctrl_ratio + s.time_ratio == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= s.ctrl_ratio <= 1.0


def test_end_to_end_gradient_through_loop(rng):
    """Soft-mode full-loop gradients (including through the mask length)
    match finite differences."""
    from leapts.forward import _rows_from_batch
    from gradcheck import finite_difference_grads, max_relative_error

    cfg = toy_config(seed=3)
    model = LeapTS(cfg)
    x = rng.normal(size=(1, 24, 2))
    y = rng.normal(size=(1, 8, 2))
    ty = _rows_from_batch(y)
    noise_rng = np.random.default_rng(11)
    frozen = [noise_rng.gumbel(size=(2, 3)) for _ in range(cfg.horizon + 1)]

    with Tape() as tape:
        out = forward_rows(model, x, mode="soft", frozen_noise=frozen)
        diff = ops.sub(out["fused"], Tensor(ty))
        model.store.zero_grads()
        tape.backward(ops.mul(ops.tsum(ops.mul(diff, diff)), 1.0 / ty.size))
    analytic = model.store.grads()

    names = ["len_head_short_w", "category_proj", "ctrl_field_g0_b1", "summary_w", "fuse_logit"]

    def loss_fn():
        out = forward_rows(model, x, mode="soft", frozen_noise=frozen)
        d = out["fused"].data - ty
        return float((d * d).mean())

    numeric = finite_difference_grads(loss_fn, model.store, names=names)
    worst, name = max_relative_error({k: analytic[k] for k in names}, numeric)
    assert worst < 1e-4, f"{name}: {worst}"


def test_run_schedule_public_surface(toy_model):
    z = toy_model.encode_rows(np.random.default_rng(1).normal(size=(2, 24)))[-1]
    h = toy_model.init_state_rows(z)
    meta = (np.zeros(2), np.arange(2), np.zeros(2))
    clusters = np.zeros(2, dtype=np.int64)
    records = []
    y, steps, noise = run_schedule_rows(toy_model, h, clusters, records=records)
    traces = build_traces(records, meta, toy_model.anchors.category_names())
    assert y.shape == (2, 8) and steps == []  # no tape: nothing saved
    assert len(traces) == 2
    assert all(tr.steps[-1].cursor_after > 8 for tr in traces)
    assert len(noise) == max(tr.n_steps for tr in traces)


# -- finished rows leave the batch --------------------------------------------


def _schedule(traces):
    return [
        (tr.window, tr.variate, [(s.step, s.category, s.len_int, s.cursor_before, s.cursor_after,
                                  s.forced) for s in tr.steps])
        for tr in traces
    ]


def _each_row_alone(model, h, row_clusters, mode="eval", rng=None, frozen_noise=None,
                    override=None, records=None, gumbel_temp=None):
    """`run_schedule_rows` on each row alone (R=1, so no row ever leaves
    early), with the given noise sliced to that row; forecasts in row order,
    each row's saved steps for `_each_row_alone_vjp`, and each row's
    records, row after row, under its original row index."""
    out, steps = np.zeros((h.shape[0], model.config.horizon)), []
    for r in range(h.shape[0]):
        row_records = []
        out[r], row_steps, _ = run_schedule_rows(
            model, h[[r]], row_clusters[[r]], mode=mode,
            frozen_noise=None if frozen_noise is None else [
                None if n is None else n[[r]] for n in frozen_noise],
            override=None if override is None else [override[r]],
            records=row_records, gumbel_temp=gumbel_temp,
        )
        records += [rec._replace(rows=np.full(1, r)) for rec in row_records]
        steps.append(row_steps)
    return out, steps, frozen_noise


def _each_row_alone_vjp(model, steps, g_out, grads, spread=None):
    """`engine.schedule_vjp` of each row alone, as `_each_row_alone` ran it;
    each row's parameter cotangents are summed, then added into ``grads``
    from the last row to the first. ``spread`` (if given) receives the
    elementwise sum of their absolute values."""
    g_h = np.zeros((len(steps), model.config.hidden_dim))
    for r in reversed(range(len(steps))):
        row_grads = {}
        g_h[r] = engine.schedule_vjp(model, steps[r], g_out[[r]], row_grads)[0]
        for name, g in row_grads.items():
            if spread is not None:
                engine._accumulate(spread, name, np.abs(g))
            engine._accumulate(grads, name, g)
    return g_h


def _assert_close(got, want, what):
    """Within 1e-12 of the largest entry of ``want``."""
    assert got.shape == want.shape, what
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), what


@settings(max_examples=40, deadline=None)
@given(
    n_clusters=st.sampled_from([1, 3]),
    degenerate=st.booleans(),
    case=st.sampled_from(["eval", "train", "soft", "fixed", "monte_carlo", "capped"]),
    window_norm=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(n_clusters=3, degenerate=True, case="soft", window_norm=False, seed=100)
@example(n_clusters=1, degenerate=False, case="monte_carlo", window_norm=True, seed=8006)
def test_batched_run_matches_each_row_run_alone(n_clusters, degenerate, case, window_norm, seed):
    """Rows leaving the batch change no output: each row run alone is the
    oracle for the forecasts and schedules of a batched run, with and
    without a tape, and for its tape gradients (the sum of the rows').

    The two runs add the rows' cotangents in different orders, and a sum
    that cancels keeps the rounding of its parts: each entry of a loop
    parameter's gradient is held within 1e-12 of the larger of the sum of
    the rows' absolute contributions to it and the largest entry. The
    fusion gate's logit is such a sum, over every row and horizon step of
    g·sched times gate·(1 - gate)."""
    horizon = 4 if degenerate else 12  # L=16: single level iff P <= 5
    cfg = toy_config(look_back=16, horizon=horizon, n_variates=3, n_clusters=n_clusters,
                     window_norm=window_norm, seed=seed, max_steps=2 if case == "capped" else None)
    model = LeapTS(cfg)
    model.cluster_of_variate = np.arange(3) % n_clusters
    assert model.anchors.degenerate == degenerate
    data_rng = np.random.default_rng(seed + 1)
    n_windows = 4
    rows = n_windows * 3
    kw = {"mode": "eval"}
    if case == "train":
        kw = {"mode": "train"}
    elif case == "soft":
        c = model.anchors.n_categories
        kw = {"mode": "soft", "frozen_noise": [data_rng.gumbel(size=(rows, c))
                                               for _ in range(horizon + 1)]}
    elif case == "fixed":
        steps = partition_to_steps(fixed_partition(horizon, int(data_rng.integers(1, 5))),
                                   model.anchors)
        kw["override"] = [steps] * rows
    elif case == "monte_carlo":
        kw["override"] = [partition_to_steps(sample_partition(horizon, data_rng), model.anchors)
                          for _ in range(rows)]
    weight = data_rng.normal(size=(rows, horizon))

    def run(tape, **extra):
        model.store.zero_grads()
        with Tape() if tape else contextlib.nullcontext() as t:
            out = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(seed), seed=seed,
                           **{**kw, **extra})
            if tape:
                t.backward(ops.tsum(ops.mul(out["fused"], weight)))
        return out, model.store.grads() if tape else None

    free, _ = run(tape=False)
    taped, grads = run(tape=True)
    spread = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "run_schedule_rows", _each_row_alone)
        mp.setattr(forward, "schedule_vjp", functools.partial(_each_row_alone_vjp, spread=spread))
        alone, alone_grads = run(tape=True, frozen_noise=kw.get("frozen_noise", free["noise"]))
    gate = 1.0 / (1.0 + np.exp(-model.store["fuse_logit"].data))
    spread["fuse_logit"] = np.abs(weight * alone["sched"].data).sum() * gate * (1.0 - gate)
    assert free["fused"].data.shape == (rows, horizon)
    for out in (free, taped):
        for name in ("sched", "fused"):
            _assert_close(out[name].data, alone[name].data, name)
        assert _schedule(out["traces"]) == _schedule(alone["traces"])
    assert [None if n is None else n.shape for n in free["noise"]] == [
        None if n is None else n.shape for n in taped["noise"]
    ]
    assert len(free["noise"]) == max(tr.n_steps for tr in free["traces"])
    assert grads.keys() == alone_grads.keys()
    for name in grads:
        if name in spread:  # a loop parameter, or the gate's logit
            want = alone_grads[name]
            err = np.abs(grads[name] - want)
            assert np.all(err <= 1e-12 * np.maximum(spread[name], np.abs(want).max())), name
        else:
            _assert_close(grads[name], alone_grads[name], name)


def _count_rows(monkeypatch) -> list:
    """Rows in each loop step, counted at ``evolve_state``."""
    rows = []

    def counting(model, h, *args):
        rows.append(h.shape[0])
        return evolve_state(model, h, *args)

    monkeypatch.setattr(engine, "evolve_state", counting)
    return rows


def _staggered_run(override, tape, **kw):
    """A 4-window single-level run with per-row lengths ``override``."""
    model = LeapTS(toy_config(look_back=48, horizon=12, n_variates=1))
    assert model.anchors.degenerate
    override = [[(0, float(n), n) for n in seq] for seq in override]
    with Tape() if tape else contextlib.nullcontext():
        return run_rows(model, n_windows=4, override=override, **kw)


def test_tape_free_loop_drops_finished_rows(monkeypatch):
    """Rows finish after 1, 2, 3 and 4 steps: with or without a tape each
    finished row leaves the batch at the next step. Forecasts and traces
    stay in row order, and a row that has left reads as finished in the
    debug records. A tape changes no forecast bit, also with three scales
    and three clusters in every loop mode."""
    staggered = [[12], [6, 6], [4, 4, 4], [3, 3, 3, 3]]
    rows = _count_rows(monkeypatch)
    runs = {}
    for tape in (False, True):
        rows.clear()
        runs[tape], debug = debug_run(_staggered_run, staggered, tape=tape)
        assert rows == [4, 3, 2, 1]
        assert [tr.window for tr in runs[tape]["traces"]] == [0, 1, 2, 3]
        assert [[s.len_int for s in tr.steps] for tr in runs[tape]["traces"]] == staggered
        final = [debug[len(seq) - 1].h_after[r] for r, seq in enumerate(staggered)]
        for k, step in enumerate(debug):
            assert np.array_equal(step.active, np.arange(4) >= k)
            for r in range(k):  # rows 0..k-1 have left
                assert step.cursor_before[r] == 13 and step.len_int[r] == 0
                assert not step.mask[r].any() and not step.segment[r].any()
                assert not step.ctrl_delta[r].any() and not step.time_delta[r].any()
                assert np.array_equal(step.h_before[r], final[r])
                assert np.array_equal(step.h_after[r], final[r])
    assert np.array_equal(runs[False]["fused"].data, runs[True]["fused"].data)
    for mode in ("train", "eval", "soft", "override", "forced"):
        model, n_windows, kw, _ = _loop_case("g3c3", mode)
        free = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), **kw)
        with Tape():
            taped = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), **kw)
        assert np.array_equal(taped["fused"].data, free["fused"].data), mode
        assert _schedule(taped["traces"]) == _schedule(free["traces"]), mode


def test_override_errors_name_the_original_row_after_rows_have_left(monkeypatch):
    """Row 3 fails at step 3, when it is the only row left in the batch."""
    rows = _count_rows(monkeypatch)
    with pytest.raises(DataError, match=r"override for row 3 exhausted at step 3$"):
        _staggered_run([[12], [6, 6], [4, 4, 4], [2, 2, 2]], tape=False)
    assert rows == [4, 3, 2]
    rows.clear()
    with pytest.raises(DataError, match=r"override length 9 outside 1\.\.6 \(row 3, step 3\)$"):
        _staggered_run([[12], [6, 6], [4, 4, 4], [2, 2, 2, 9]], tape=False)
    assert rows == [4, 3, 2]


def test_tape_free_step_runs_only_the_routed_head_and_own_cluster_fields(monkeypatch):
    """Rows seen by each dense layer, per weight name, with and without a
    tape: each cluster's field MLPs see only that cluster's running rows,
    and each segment head only the running rows routed to it."""
    model = LeapTS(toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3))
    model.cluster_of_variate = np.arange(3)
    n_windows, rows = 4, 12
    clusters = np.tile(model.cluster_of_variate, n_windows)
    names = {id(t.data): name.rsplit("_", 1)[0] for name, t in model.store.params.items()}
    layers = [f"seg_head_{c}" for c in model.anchors.category_names()] + [
        f"{kind}_g{g}" for kind in ("ctrl_field", "time_field") for g in range(3)
    ]
    seen = collections.defaultdict(list)
    dense = engine._dense

    def counting(x, w, *args, **kw):
        seen[names[id(w)]].append(x.shape[0])
        return dense(x, w, *args, **kw)

    monkeypatch.setattr(engine, "_dense", counting)

    def run(tape):
        seen.clear()
        kw = dict(n_windows=n_windows, mode="train", rng=np.random.default_rng(4))
        if not tape:
            return run_rows(model, **kw)
        with Tape():
            return run_rows(model, **kw)

    def wanted(traces):
        want = collections.defaultdict(list)
        for k in range(max(tr.n_steps for tr in traces)):
            running = [(r, tr.steps[k]) for r, tr in enumerate(traces) if tr.n_steps > k]
            for c, name in enumerate(model.anchors.category_names()):
                n = sum(step.category == c for _, step in running)
                want[f"seg_head_{name}"] += [n] if n else []
            for g in range(3):
                n = sum(clusters[r] == g for r, _ in running)
                for kind in ("ctrl_field", "time_field"):
                    want[f"{kind}_g{g}"] += [n, n] if n else []  # two layers each
        return {name: want[name] for name in layers}

    out = run(tape=False)
    want = wanted(out["traces"])
    assert {name: seen[name] for name in layers} == want
    heads = layers[:3]
    assert sum(1 for name in heads if want[name]) >= 2  # rows took different heads
    assert sum(sum(want[name]) for name in heads) < rows * len(out["noise"])  # some finished early

    taped = run(tape=True)
    assert _schedule(taped["traces"]) == _schedule(out["traces"])
    assert {name: seen[name] for name in layers} == want


# -- the one-node model against the per-op tape --------------------------------

_SHAPES = ("desk", "g3c3", "window_norm", "no_sched", "no_high_level")


def _loop_case(shape, mode):
    """A fixed untrained model and the `run_rows` arguments of one loop mode:
    "desk" is single level with one cluster; "g3c3" has three scales and
    three clusters; "window_norm" is g3c3 with window normalization and a
    two-layer encoder; "no_sched" and "no_high_level" are g3c3's ablations.
    Returns (model, n_windows, kwargs, the data rng)."""
    capped = 2 if mode == "forced" else None
    if shape == "desk":  # single level, one cluster
        cfg = toy_config(look_back=48, horizon=12, n_variates=1, seed=5, max_steps=capped)
        n_windows = 8
    else:  # three scales, three clusters
        extra = {"window_norm": True, "enc_hidden": (16, 8)} if shape == "window_norm" else {}
        cfg = toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3, seed=5,
                         max_steps=capped, **extra)
        n_windows = 4
    model = LeapTS(cfg, ablation=shape if shape in ("no_sched", "no_high_level") else "none")
    model.cluster_of_variate = np.arange(cfg.n_variates) % cfg.n_clusters
    assert model.anchors.degenerate == (shape in ("desk", "no_high_level"))
    rows, C = n_windows * cfg.n_variates, model.anchors.n_categories
    data_rng = np.random.default_rng(17)
    kw = {"mode": mode}
    if mode == "soft":
        kw["frozen_noise"] = [data_rng.gumbel(size=(rows, C)) for _ in range(cfg.horizon + 1)]
    elif mode == "override":
        kw = {"mode": "eval", "override": [
            partition_to_steps(sample_partition(cfg.horizon, data_rng), model.anchors)
            for _ in range(rows)]}
    elif mode == "forced":
        kw["mode"] = "eval"
        for name in model.anchors.category_names() if shape != "no_sched" else ():
            model.store[f"len_head_{name}_b"].data[:] = -3.0  # too short to finish in 2 steps
    return model, n_windows, kw, data_rng


@pytest.mark.parametrize("shape, mode", [
    *((shape, mode) for shape in _SHAPES if shape != "no_sched"
      for mode in ("train", "eval", "soft", "override", "forced")),
    ("no_sched", "eval"),
])
def test_loop_node_gradients_match_the_per_op_tape(shape, mode):
    """The model's one tape node (array forward, hand-written reverse pass
    with ``step_vjp`` over the loop) against the same model composed one
    tape node per operation (tests/tape_ops.py): schedules and noise equal;
    forecasts and every parameter's gradient equal bit for bit for a single
    category, within 1e-12 of the largest entry for three (the oracle sums
    every segment head under a one-hot route where the loop runs only the
    chosen one). The taped forecasts equal a tape-free run's bit for bit.
    Both loops emit the same step records: the schedule columns equal, the
    float columns within the forecasts' tolerance."""
    model, n_windows, kw, data_rng = _loop_case(shape, mode)
    cfg = model.config
    weight = data_rng.normal(size=(n_windows * cfg.n_variates, cfg.horizon))

    def run(fwd):
        model.store.zero_grads()
        records = []
        with Tape() as tape:
            out = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), fwd=fwd,
                           debug=records, **kw)
            tape.backward(ops.tsum(ops.mul(out["fused"], weight)))
        return out, {k: g.copy() for k, g in model.store.grads().items()}, len(tape.nodes), records

    node, node_grads, n_nodes, node_records = run(forward_rows)
    free = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), **kw)
    per_op, per_op_grads, per_op_nodes, per_op_records = run(ops.forward_rows)
    assert np.array_equal(node["fused"].data, free["fused"].data)
    assert n_nodes == 3  # the model, the weighting and the sum
    if shape == "no_sched":
        assert node["traces"] is per_op["traces"] is None and per_op_nodes == 5
    else:
        assert _schedule(node["traces"]) == _schedule(per_op["traces"])
        assert any(s.forced for tr in node["traces"] for s in tr.steps) == (mode == "forced")
        for a, b in zip(node["noise"], per_op["noise"]):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert per_op_nodes > 50
    exact = model.anchors.n_categories == 1 or shape == "no_sched"
    assert len(node_records) == len(per_op_records) == len(node["noise"] or ())
    for got, want in zip(node_records, per_op_records):
        for name, a in got._asdict().items():
            if exact or name not in ("soft", "sel", "ctrl_delta", "time_delta"):
                assert np.array_equal(a, getattr(want, name)), name
            else:
                _assert_close(a, getattr(want, name), name)
    pairs = [(name, node[name].data, per_op[name].data) for name in ("coarse", "sched", "fused")]
    pairs += [(name, node_grads[name], want) for name, want in per_op_grads.items()]
    for name, got, want in pairs:
        if exact:
            assert np.array_equal(got, want), name
        else:
            _assert_close(got, want, name)
        unread = name.startswith("len_head") and mode in ("override", "forced")
        assert np.abs(want).max() > 0.0 or unread or name == "sched" and shape == "no_sched"


@pytest.mark.parametrize("shape", ["no_sched", "no_high_level", "window_norm"])
def test_tape_changes_no_forecast_bit_in_any_variant(shape):
    """Both ablations and window normalization: taped and tape-free coarse,
    scheduled and fused forecasts and schedules are bit-identical in every
    loop mode."""
    for mode in ("train", "eval", "soft", "override", "forced"):
        model, n_windows, kw, _ = _loop_case(shape, mode)
        free = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), **kw)
        with Tape() as tape:
            taped = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(3), **kw)
        assert len(tape.nodes) == 1, mode
        for name in ("coarse", "sched", "fused"):
            assert np.array_equal(taped[name].data, free[name].data), (mode, name)
        if shape != "no_sched":
            assert _schedule(taped["traces"]) == _schedule(free["traces"]), mode


def _arrays(obj):
    """Every numpy array in a nest of tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)


def test_taped_loop_saves_no_horizon_wide_array():
    """Under a tape the loop keeps no [rows x horizon] array: a step saves
    its cursor, ``sel`` and chosen category, and `step_vjp` recomputes the
    segment, mask and masked write from them. The horizon, 13, is no other
    width of the model and more than the batch's rows."""
    model = LeapTS(toy_config(look_back=16, horizon=13, n_variates=3, n_clusters=3))
    C = model.anchors.n_categories
    h = model.init_state_rows(model.encode_rows(np.random.default_rng(0).normal(size=(6, 16)))[-1])
    noise = [np.random.default_rng(1).gumbel(size=(6, C)) for _ in range(14)]
    for kw in ({"mode": "train", "rng": np.random.default_rng(2)}, {"mode": "eval"},
               {"mode": "soft", "frozen_noise": noise}):
        with Tape():
            _, steps, _ = run_schedule_rows(model, h, np.arange(6) % 3, **kw)
        shapes = {a.shape for a in _arrays(steps)}
        assert len(steps) > 1 and shapes, kw["mode"]
        assert not any(13 in shape for shape in shapes), (kw["mode"], shapes)


_BLAS_DIGEST = """
import hashlib
import numpy as np
from leapts.autodiff import Tape, Tensor, huber_loss
from leapts.forward import _rows_from_batch, forward_rows, predict_batch
from leapts.model import LeapTS, ModelConfig
model = LeapTS(ModelConfig(look_back=96, horizon=96, n_variates=30, hidden_dim=16,
                           enc_hidden=(32,), n_clusters=3, seed=0))
model.cluster_of_variate = np.arange(30) % 3
x, y = np.random.default_rng(0).normal(size=(2, 8, 96, 30))
digest = hashlib.sha256(predict_batch(model, x)[0].tobytes())
with Tape() as tape:
    out = forward_rows(model, x, mode="train", rng=np.random.default_rng(1))
    loss = huber_loss(out["fused"], Tensor(_rows_from_batch(y)))
    tape.backward(loss)
for a in (loss.data, *(g for _, g in sorted(model.store.grads().items()))):
    digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_changes_no_bit():
    """Tape-free forecasts and one taped batch's loss and gradients, at
    forecast-clustered's widths (8 windows, 240 rows), have the same
    SHA-256 at ``OPENBLAS_NUM_THREADS`` 1 and 2: the README tells users to
    set it, and it may not change a result."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    digests = [
        subprocess.run([sys.executable, "-c", _BLAS_DIGEST], capture_output=True, text=True,
                       check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                       ).stdout
        for threads in ("1", "2")
    ]
    assert len(digests[0].strip()) == 64 and digests[0] == digests[1]


def test_tape_free_calls_and_debug_records_share_no_work_array(monkeypatch):
    """The tape-free loop writes each step's mask and segment into work
    arrays it makes once per call. A second `predict_batch` call on other
    windows leaves the first call's forecasts and traces as they were, and
    in every loop mode a debug run records what a run whose steps each make
    fresh arrays records. No step record holds memory of a work array."""
    model, n_windows, kw, data_rng = _loop_case("g3c3", "eval")
    n = model.config.n_variates
    x1, x2 = (data_rng.normal(size=(n_windows, model.config.look_back, n)) for _ in range(2))
    first, traces = predict_batch(model, x1, traces_from=0)
    kept = first.copy(), copy.deepcopy(traces)
    second, _ = predict_batch(model, x2, traces_from=0)
    assert not np.array_equal(second, first)
    assert np.array_equal(first, kept[0]) and traces == kept[1]

    step, shrank = engine.step, []
    for mode in ("train", "eval", "soft", "override", "forced"):
        model, n_windows, kw, _ = _loop_case("g3c3", mode)
        runs = {}
        for fresh in (False, True):
            work = []

            def stepping(*args):
                work.extend(args[7])  # the [n x P] views this step may write into
                return step(*args[:7]) if fresh else step(*args)  # fresh: as a direct call

            records = []
            with monkeypatch.context() as mp:
                mp.setattr(engine, "step", stepping)
                _, debug = debug_run(run_rows, model, n_windows=n_windows,
                                     rng=np.random.default_rng(3), records=records, **kw)
            for rec in records:
                for name, a in rec._asdict().items():
                    assert not any(np.shares_memory(a, w) for w in work), (mode, name)
            runs[fresh] = records, debug
        (records, debug), (own_records, own_debug) = runs[False], runs[True]
        assert len(records) == len(own_records) > 1, mode
        shrank.append(len(records[-1].rows) < len(records[0].rows))
        for shared, own in zip(records, own_records):
            for name, a in shared._asdict().items():
                assert np.array_equal(a, getattr(own, name)), (mode, name)
        for shared, own in zip(debug, own_debug):
            for field in dataclasses.fields(StepDebug):
                a, b = getattr(shared, field.name), getattr(own, field.name)
                assert np.array_equal(a, b), (mode, field.name)
    assert any(shrank)  # rows left the batch early, so later steps wrote fewer rows


def test_warm_tape_free_forecast_makes_few_page_faults():
    """A warm tape-free `predict_batch` at forecast-clustered's shape (a
    batch of 64 of its 256 test windows, 30 variates, L=P=96, three
    clusters; 1,920 rows) makes fewer than 100 minor page faults. Steps
    that allocated and freed [rows x horizon] arrays made the heap hand its
    top back to the system and fault it in again, about 3,200 faults per
    call.

    The count depends on what the process freed before: freeing the 256
    windows first, as a caller that forecasts them in batches does, puts
    glibc's trim threshold above one call's arrays. A process that never
    freed a block that large still faults each call's arrays back in."""
    resource = pytest.importorskip("resource")
    model = LeapTS(ModelConfig(look_back=96, horizon=96, n_variates=30, n_clusters=3, seed=0))
    model.cluster_of_variate = np.arange(30) % 3
    windows = np.random.default_rng(0).normal(size=(256, 96, 30))
    x = windows[:64].copy()
    del windows
    predict_batch(model, x)  # warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    predict_batch(model, x)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults


_STAGE_OF_FAULT = {
    "summary_w": "segment summary pre-activation",
    "len_head_short_b": "short length head output",
    "category_proj": "category logits",
    "ctrl_field_g1_w1": "state update",
    "time_field_g2_b0": "cluster 2 drift field pre-activation",
    "seg_head_long_w": "written forecast",
}


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("name, value", [
    ("summary_w", np.inf), ("len_head_short_b", np.nan), ("category_proj", np.nan),
    ("ctrl_field_g1_w1", np.inf), ("time_field_g2_b0", -np.inf), ("seg_head_long_w", np.inf),
])
def test_nonfinite_step_names_the_op_the_per_op_tape_named(name, value, tape):
    """Detection parity: a non-finite parameter that the per-op composition
    (tests/tape_ops.py) stops at is caught by the loop too, with and
    without a tape. The loop's `NumericError` names the loop step and the
    stage that made the first non-finite value."""
    model = LeapTS(toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3, seed=2))
    model.cluster_of_variate = np.arange(3)
    model.store[name].data.flat[0] = value
    messages = []
    for fwd in (forward_rows, ops.forward_rows):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as err, Tape() if tape else contextlib.nullcontext():
                run_rows(model, n_windows=2, mode="train", rng=np.random.default_rng(0), fwd=fwd)
        messages.append(str(err.value))
    assert messages[0] == f"schedule step 0: non-finite values in {_STAGE_OF_FAULT[name]}"

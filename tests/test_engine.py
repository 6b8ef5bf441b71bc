import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leapts.autodiff as ad
import leapts.engine as engine
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
from leapts.errors import DataError
from leapts.forward import forward_rows
from leapts.model import LeapTS, ModelConfig

from conftest import toy_config


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# -- soft mask ---------------------------------------------------------------


def mask_row(length, cursor, P, gamma, active=True):
    """One-row call of the batched soft mask."""
    sel = length if isinstance(length, Tensor) else Tensor([[float(length)]])
    return soft_mask(sel, np.array([cursor]), np.array([active]), P, gamma)


def test_soft_mask_hand_values():
    m = mask_row(2.0, cursor=1, P=4, gamma=0.1).data[0]
    expected = [sigmoid(15.0), sigmoid(5.0), sigmoid(-5.0), sigmoid(-15.0)]
    assert np.allclose(m, expected, rtol=1e-12)
    assert m[0] == pytest.approx(0.99999969, abs=1e-8)
    assert m[1] == pytest.approx(0.993307, abs=1e-6)
    assert m[2] == pytest.approx(0.006693, abs=1e-6)
    assert m[3] == pytest.approx(3.06e-7, abs=1e-9)


def test_soft_mask_zero_before_cursor():
    m = mask_row(2.0, cursor=3, P=4, gamma=0.1).data[0]
    assert m[0] == 0.0 and m[1] == 0.0
    assert m[2] > 0.9


def test_soft_mask_sharp_limit_matches_hard_indicator():
    P = 20
    for length in (1, 3, 7, 20):
        for cursor in (1, 5, 14):
            m = mask_row(length, cursor=cursor, P=P, gamma=1e-3).data[0]
            hard = np.zeros(P)
            hard[cursor - 1 : min(cursor - 1 + length, P)] = 1.0
            assert np.abs(m - hard).max() < 1e-6
            covered = min(length, P - cursor + 1)
            assert covered - 0.01 <= m.sum() <= covered + 0.01


def test_soft_mask_zero_on_finished_rows():
    """Rows past the horizon (cursor P+1) or gated out by ``active`` write
    nothing, whatever their length; the other rows are unaffected."""
    sel = Tensor(np.array([[2.0], [3.0], [2.0]]))
    m = soft_mask(sel, np.array([1, 5, 2]), np.array([True, True, False]), 4, 0.1).data
    assert np.array_equal(m[1], np.zeros(4))
    assert np.array_equal(m[2], np.zeros(4))
    assert np.array_equal(m[0], mask_row(2.0, cursor=1, P=4, gamma=0.1).data[0])


def test_soft_mask_gradient_flows_to_length():
    l = Tensor([[2.0]], requires_grad=True)
    with Tape() as tape:
        m = mask_row(l, cursor=1, P=4, gamma=0.5)
        tape.backward(m.sum())
    assert l.grad[0, 0] > 0.0


def _four_op_mask(sel, cursor, active, P, gamma):
    """The soft mask as sub, mul, sigmoid and mul nodes."""
    tau = np.arange(1, P + 1, dtype=np.float64)
    indicator = ((tau[None, :] >= cursor[:, None]) & active[:, None]).astype(np.float64)
    offs = tau[None, :] - cursor[:, None].astype(np.float64) + 0.5
    return ad.mul(ad.sigmoid(ad.mul(ad.sub(sel, offs), 1.0 / gamma)), indicator)


def test_soft_mask_matches_the_four_op_composition_bit_for_bit(rng):
    """Values and length gradients equal the four-op chain's on a row at the
    start, one partway along the horizon and a finished one; the mask is one
    tape node."""
    P, gamma = 12, 0.1
    cursor, active = np.array([1, 5, P + 1]), np.array([True, True, False])
    lengths, weight = rng.uniform(1.0, 8.0, size=(3, 1)), rng.normal(size=(3, P))

    def run(mask_fn):
        sel = Tensor(lengths, requires_grad=True)
        with Tape() as tape:
            mask = mask_fn(sel, cursor, active, P, gamma)
            n_nodes = len(tape.nodes)
            tape.backward(ad.tsum(ad.mul(mask, weight)))
        return mask.data, sel.grad, n_nodes

    fused, chain = run(soft_mask), run(_four_op_mask)
    assert np.array_equal(fused[0], chain[0]) and np.array_equal(fused[1], chain[1])
    assert (fused[2], chain[2]) == (1, 4)
    assert np.all(fused[0][1, :4] == 0.0) and np.all(fused[0][2] == 0.0)
    assert fused[1][2, 0] == 0.0 and fused[1][1, 0] > 0.0


# -- write / summarize / control / evolve -------------------------------------


def test_write_segment_zero_mask_noop():
    accum = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    out, masked = write_segment(Tensor(np.ones(4)), Tensor(np.zeros(4)), accum)
    assert np.array_equal(out.data, accum.data)
    assert np.array_equal(masked.data, np.zeros(4))


def test_write_segment_hard_gate():
    accum = Tensor(np.zeros(4))
    mask = Tensor(np.array([1.0, 1.0, 0.0, 0.0]))
    out, _ = write_segment(Tensor(np.ones(4)), mask, accum)
    assert np.array_equal(out.data, [1.0, 1.0, 0.0, 0.0])


def test_sequential_disjoint_writes_concatenate():
    accum = Tensor(np.zeros(4))
    accum, _ = write_segment(
        Tensor(np.array([5.0, 6.0, 99.0, 99.0])), Tensor(np.array([1.0, 1.0, 0.0, 0.0])), accum
    )
    accum, _ = write_segment(
        Tensor(np.array([99.0, 99.0, 7.0, 8.0])), Tensor(np.array([0.0, 0.0, 1.0, 1.0])), accum
    )
    assert np.array_equal(accum.data, [5.0, 6.0, 7.0, 8.0])


def one_hot_route(category, n_rows=1):
    route = np.zeros((n_rows, 3))
    route[:, category] = 1.0
    return Tensor(route)


def test_segment_head_full_horizon_and_zero_case(toy_model):
    h = Tensor(np.zeros((1, 8)))
    for cat in range(3):
        seg = routed_segment(toy_model, h, one_hot_route(cat))
        assert seg.shape == (1, 8)  # full horizon regardless of length
        assert np.array_equal(seg.data, np.zeros((1, 8)))  # zero h, zero bias


def test_segment_heads_differ_across_categories(toy_model, rng):
    h = Tensor(rng.normal(size=(1, 8)))
    a = routed_segment(toy_model, h, one_hot_route(0)).data
    b = routed_segment(toy_model, h, one_hot_route(2)).data
    assert not np.allclose(a, b)


def test_routed_segment_mixes_heads_by_route(toy_model, rng):
    h = Tensor(rng.normal(size=(2, 8)))
    heads = [routed_segment(toy_model, h, one_hot_route(c, 2)).data for c in range(3)]
    route = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]])
    mixed = routed_segment(toy_model, h, Tensor(route)).data
    assert np.allclose(mixed, sum(route[:, c : c + 1] * heads[c] for c in range(3)), atol=1e-12)


def test_summarize_hand_case():
    w = np.zeros((8, 2))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    s = np.zeros((1, 8))
    s[0, 0], s[0, 1] = 0.5, -0.5
    c = summarize_segment(Tensor(s), Tensor(w), Tensor(np.zeros(2)))
    assert np.allclose(c.data, [[math.tanh(0.5), math.tanh(-0.5)]], atol=1e-12)
    assert c.data[0, 0] == pytest.approx(0.4621, abs=1e-4)


def test_summarize_zero_segment_zero_bias():
    c = summarize_segment(Tensor(np.zeros((1, 8))), Tensor(np.ones((8, 3))), Tensor(np.zeros(3)))
    assert np.array_equal(c.data, np.zeros((1, 3)))


def test_cold_start_temporal_increment_is_lower_clip():
    """First step: the previous normalized length is 0, so the temporal
    increment clips up to dt_min; with the control field zeroed and the
    drift field stubbed to 1, the first state change is exactly dt_min."""
    cfg = toy_config(seed=2)
    model = LeapTS(cfg)
    stub_fields(model, 0, f_const=0.0, g_const=1.0)
    debug = []
    run_rows(model, debug=debug)
    first = debug[0]
    assert np.allclose(first.h_after - first.h_before, cfg.dt_min, atol=1e-15)


def test_summary_bounded(rng):
    w = Tensor(rng.normal(size=(8, 4)))
    c = summarize_segment(Tensor(rng.normal(size=(3, 8))), w, Tensor(np.zeros(4)))
    assert np.abs(c.data).max() < 1.0
    big = summarize_segment(Tensor(rng.normal(scale=1e6, size=(3, 8))), w, Tensor(np.zeros(4)))
    assert np.abs(big.data).max() <= 1.0


def test_control_signal_hand_case():
    w = np.zeros((7, 1))
    w[0, 0] = 1.0  # picks out the remaining-horizon ratio
    u = build_control_signal(
        rho=np.array([[0.5]]),
        prev_len_norm=np.array([[0.0]]),
        prev_soft=Tensor(np.full((1, 3), 1.0 / 3.0)),
        prev_summary=Tensor(np.zeros((1, 2))),
        control_w=Tensor(w),
        control_b=Tensor(np.zeros(1)),
    )
    assert u.data[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_control_signal_zero_weights():
    u = build_control_signal(
        rho=np.array([[1.0]]),
        prev_len_norm=np.array([[0.0]]),
        prev_soft=Tensor(np.full((1, 3), 1.0 / 3.0)),
        prev_summary=Tensor(np.zeros((1, 2))),
        control_w=Tensor(np.zeros((7, 4))),
        control_b=Tensor(np.zeros(4)),
    )
    assert np.array_equal(u.data, np.zeros((1, 4)))


def test_increments():
    u = Tensor(np.array([[0.3, -0.2]]))
    du, dtau = increments(u, u, prev_len_norm=[[0.4]], dt_min=0.01, dt_max=1.0)
    assert np.array_equal(du.data, np.zeros((1, 2)))
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
    """(row_clusters, active) for rows that all belong to cluster 0."""
    return np.zeros(n_rows, dtype=np.int64), np.ones(n_rows, dtype=bool)


def test_evolve_hand_arithmetic():
    cfg = ModelConfig(look_back=8, horizon=2, n_variates=1, hidden_dim=1, control_dim=1,
                      summary_dim=2, enc_hidden=(4,), field_hidden=4)
    model = LeapTS(cfg)
    stub_fields(model, 0, f_const=2.0, g_const=3.0)
    h = Tensor(np.array([[1.0]]))
    u = Tensor(np.array([[0.2]]))
    du = Tensor(np.array([[0.5]]))
    h_next, d_ctrl, d_time = evolve_state(model, h, u, du, np.array([[0.1]]), *one_cluster(1))
    assert d_ctrl.data[0, 0] == pytest.approx(1.0, abs=1e-12)  # 2 * 0.5
    assert d_time.data[0, 0] == pytest.approx(0.3, abs=1e-12)  # 3 * 0.1
    assert h_next.data[0, 0] == pytest.approx(2.3, abs=1e-12)


def test_evolve_no_driving_signal_keeps_state(toy_model, rng):
    h = Tensor(rng.normal(size=(2, 8)))
    u = Tensor(rng.normal(size=(2, 4)))
    du = Tensor(np.zeros((2, 4)))
    stub_fields(toy_model, 0, f_const=1.7, g_const=0.0)
    h_next, d_ctrl, d_time = evolve_state(toy_model, h, u, du, np.zeros((2, 1)), *one_cluster(2))
    assert np.array_equal(h_next.data, h.data)
    assert np.array_equal(d_ctrl.data, np.zeros((2, 8)))


def test_evolve_pure_temporal_drift(toy_model, rng):
    stub_fields(toy_model, 0, f_const=0.0, g_const=0.5)
    h = Tensor(rng.normal(size=(1, 8)))
    u = Tensor(rng.normal(size=(1, 4)))
    du = Tensor(rng.normal(size=(1, 4)))
    h_next, d_ctrl, d_time = evolve_state(toy_model, h, u, du, np.array([[0.2]]), *one_cluster(1))
    assert np.allclose(d_ctrl.data, 0.0)
    assert np.allclose(h_next.data, h.data + 0.5 * 0.2, atol=1e-12)


def test_evolve_routes_rows_to_their_cluster_and_gates_finished(rng):
    model = LeapTS(toy_config(n_clusters=2))
    stub_fields(model, 0, f_const=0.0, g_const=1.0)
    stub_fields(model, 1, f_const=0.0, g_const=2.0)
    h = Tensor(rng.normal(size=(3, 8)))
    u = Tensor(rng.normal(size=(3, 4)))
    du = Tensor(rng.normal(size=(3, 4)))
    dtau = np.array([[0.1], [0.2], [0.3]])
    h_next, _, d_time = evolve_state(
        model, h, u, du, dtau, np.array([0, 1, 1]), np.array([True, True, False])
    )
    assert np.allclose(d_time.data[:, 0], [0.1, 0.4, 0.0], atol=1e-15)
    assert np.array_equal(h_next.data[2], h.data[2])


def test_evolve_under_a_tape_concatenates_state_and_control_once(monkeypatch, rng):
    """G=3: one `concat` of [h, u] feeds every cluster's field MLPs, each of
    which runs on that cluster's rows only."""
    model = LeapTS(toy_config(n_variates=3, n_clusters=3))
    calls = []
    concat, linear = ad.concat, ad.linear
    monkeypatch.setattr(ad, "concat", lambda ts: calls.append("concat") or concat(ts))
    monkeypatch.setattr(ad, "linear", lambda x, *a: calls.append(x.shape[0]) or linear(x, *a))
    h = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    u = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    with Tape() as tape:
        h_next, _, _ = evolve_state(model, h, u, u, np.full((6, 1), 0.5),
                                    np.array([0, 1, 2, 2, 1, 2]), np.ones(6, dtype=bool))
        tape.backward(h_next.sum())
    assert calls == ["concat"] + [1] * 4 + [2] * 4 + [3] * 4
    assert h.grad is not None and u.grad is not None


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


def run_rows(model, n_windows=1, mode="eval", rng=None, seed=0, **kw):
    data_rng = np.random.default_rng(seed)
    x = data_rng.normal(size=(n_windows, model.config.look_back, model.config.n_variates))
    n = model.config.n_variates
    r = n_windows * n
    meta = (np.repeat(np.arange(n_windows), n), np.tile(np.arange(n), n_windows), np.zeros(r))
    return forward_rows(model, x, mode=mode, rng=rng, trace_meta=meta, **kw)


def test_forced_lengths_two_steps():
    model = LeapTS(toy_config(horizon=4, look_back=8))  # non-degenerate: 8//4+1=3 < 4
    forced = [[(0, 2.0, 2), (0, 2.0, 2)]] * 2
    out = run_rows(model, override=forced)
    for tr in out["traces"]:
        assert tr.n_steps == 2
        assert [s.cursor_before for s in tr.steps] == [1, 3]
        assert tr.steps[-1].cursor_after == 5


def test_override_errors_name_row_and_step():
    model = LeapTS(toy_config(horizon=4, look_back=8))
    with pytest.raises(DataError, match=r"override for row 1 exhausted at step 1$"):
        run_rows(model, override=[[(0, 4.0, 4)], [(0, 2.0, 2)]])
    with pytest.raises(DataError, match=r"override length 5 outside 1\.\.3 \(row 0, step 1\)$"):
        run_rows(model, override=[[(0, 1.0, 1), (0, 5.0, 5)], [(0, 4.0, 4)]])
    with pytest.raises(DataError, match=r"override length 0 outside 1\.\.4 \(row 1, step 0\)$"):
        run_rows(model, override=[[(0, 4.0, 4)], [(0, 0.0, 0)]])


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
        debug = []
        out = run_rows(model, mode="train", rng=np.random.default_rng(trial), debug=debug)
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
    debug = []
    out = run_rows(model, override=forced, debug=debug)
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
    debug = []
    out = run_rows(model, override=forced, debug=debug)
    oracle = hard_paste_oracle(debug, n_rows=2, horizon=8)
    assert np.abs(oracle - out["sched"].data).max() < 1e-5


def test_decomposition_identity_exact(rng):
    model = LeapTS(toy_config(seed=8))
    debug = []
    out = run_rows(model, n_windows=2, debug=debug)
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
    from leapts.gradcheck import finite_difference_grads, max_relative_error

    cfg = toy_config(seed=3)
    model = LeapTS(cfg)
    x = rng.normal(size=(1, 24, 2))
    y = rng.normal(size=(1, 8, 2))
    ty = _rows_from_batch(y)
    noise_rng = np.random.default_rng(11)
    frozen = [noise_rng.gumbel(size=(2, 3)) for _ in range(cfg.horizon + 1)]

    with Tape() as tape:
        out = forward_rows(model, x, mode="soft", frozen_noise=frozen)
        diff = ad.sub(out["fused"], Tensor(ty))
        model.store.zero_grads()
        tape.backward(ad.tmean(ad.mul(diff, diff)))
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
    z = toy_model.encode_rows(Tensor(np.random.default_rng(1).normal(size=(2, 24))))
    h = toy_model.init_state_rows(z)
    meta = (np.zeros(2), np.arange(2), np.zeros(2))
    clusters = np.zeros(2, dtype=np.int64)
    y, traces, noise = run_schedule_rows(toy_model, h, clusters, trace_meta=meta)
    assert y.shape == (2, 8)
    assert len(traces) == 2
    assert all(tr.steps[-1].cursor_after > 8 for tr in traces)
    assert len(noise) == max(tr.n_steps for tr in traces)


# -- tape-free runs drop finished rows ----------------------------------------


def _debug_fields(step):
    return [getattr(step, f.name) for f in dataclasses.fields(step)]


def _schedule(traces):
    return [
        (tr.window, tr.variate, [(s.step, s.category, s.len_int, s.cursor_before, s.cursor_after,
                                  s.forced) for s in tr.steps])
        for tr in traces
    ]


@settings(max_examples=40, deadline=None)
@given(
    n_clusters=st.sampled_from([1, 3]),
    degenerate=st.booleans(),
    case=st.sampled_from(["eval", "train", "soft", "fixed", "monte_carlo", "capped"]),
    window_norm=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_tape_free_run_matches_lockstep_run_under_a_tape(
    n_clusters, degenerate, case, window_norm, seed
):
    """Dropping finished rows changes no output: the same call inside a
    `Tape` (where the loop runs in lockstep) is the oracle."""
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

    def run():
        debug = []
        out = run_rows(model, n_windows=n_windows, rng=np.random.default_rng(seed), seed=seed,
                       debug=debug, **kw)
        return out, debug

    with Tape():
        lock, lock_debug = run()
    free, free_debug = run()
    assert lock["fused"].data.shape == free["fused"].data.shape == (rows, horizon)
    for name in ("sched", "fused"):
        np.testing.assert_allclose(free[name].data, lock[name].data, rtol=1e-12, atol=1e-300)
    assert _schedule(free["traces"]) == _schedule(lock["traces"])
    assert [None if n is None else n.shape for n in free["noise"]] == [
        None if n is None else n.shape for n in lock["noise"]
    ]
    assert len(free_debug) == len(lock_debug)
    for f_step, l_step in zip(free_debug, lock_debug):
        assert [a.shape for a in _debug_fields(f_step)] == [a.shape for a in _debug_fields(l_step)]
        for name in ("active", "len_int", "cursor_before"):
            assert np.array_equal(getattr(f_step, name), getattr(l_step, name))
        # a row that has left reads as finished: zero mask and deltas, its
        # final state before and after; its segment is no longer computed
        for name in ("mask", "h_before", "h_after", "ctrl_delta", "time_delta"):
            np.testing.assert_allclose(
                getattr(f_step, name), getattr(l_step, name), rtol=1e-12, atol=1e-14
            )
        same = np.isclose(f_step.segment, l_step.segment, rtol=1e-12, atol=1e-14).all(axis=1)
        left = ~l_step.active & ~f_step.segment.any(axis=1)
        assert np.all(same | left)


def _count_rows(monkeypatch) -> list:
    """Rows in each loop step, counted at ``evolve_state``."""
    rows = []

    def counting(model, h, *args):
        rows.append(h.shape[0])
        return evolve_state(model, h, *args)

    monkeypatch.setattr(engine, "evolve_state", counting)
    return rows


def _staggered_run(override, tape):
    """A 4-window single-level run with per-row lengths ``override``."""
    model = LeapTS(toy_config(look_back=48, horizon=12, n_variates=1))
    assert model.anchors.degenerate
    override = [[(0, float(n), n) for n in seq] for seq in override]
    if not tape:
        return run_rows(model, n_windows=4, override=override)
    with Tape():
        return run_rows(model, n_windows=4, override=override)


def test_tape_free_loop_drops_finished_rows(monkeypatch):
    """Rows finish after 1, 2, 3 and 4 steps: without a tape each finished
    row leaves the batch at the next step; under a tape it keeps all four.
    Forecasts and traces stay in row order."""
    staggered = [[12], [6, 6], [4, 4, 4], [3, 3, 3, 3]]
    rows = _count_rows(monkeypatch)
    free = _staggered_run(staggered, tape=False)
    assert rows == [4, 3, 2, 1]
    rows.clear()
    lock = _staggered_run(staggered, tape=True)
    assert rows == [4, 4, 4, 4]
    np.testing.assert_allclose(free["fused"].data, lock["fused"].data, rtol=1e-12)
    assert [tr.window for tr in free["traces"]] == [0, 1, 2, 3]
    assert [[s.len_int for s in tr.steps] for tr in free["traces"]] == staggered


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
    """Rows seen by each dense layer, per weight name: each cluster's field
    MLPs see only that cluster's rows (its active rows without a tape);
    without a tape each segment head sees only the active rows routed to
    it, under a tape every row at every step."""
    model = LeapTS(toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3))
    model.cluster_of_variate = np.arange(3)
    n_windows, rows = 4, 12
    clusters = np.tile(model.cluster_of_variate, n_windows)
    names = {id(t): name.rsplit("_", 1)[0] for name, t in model.store.params.items()}
    layers = [f"seg_head_{c}" for c in model.anchors.category_names()] + [
        f"{kind}_g{g}" for kind in ("ctrl_field", "time_field") for g in range(3)
    ]
    seen = collections.defaultdict(list)
    linear = ad.linear

    def counting(x, w, *args):
        seen[names[id(w)]].append(x.shape[0])
        return linear(x, w, *args)

    monkeypatch.setattr(ad, "linear", counting)

    def run(tape):
        seen.clear()
        kw = dict(n_windows=n_windows, mode="train", rng=np.random.default_rng(4))
        if not tape:
            return run_rows(model, **kw)
        with Tape():
            return run_rows(model, **kw)

    out = run(tape=False)
    want = collections.defaultdict(list)
    traces = out["traces"]
    for k in range(max(tr.n_steps for tr in traces)):
        running = [(r, tr.steps[k]) for r, tr in enumerate(traces) if tr.n_steps > k]
        for c, name in enumerate(model.anchors.category_names()):
            n = sum(step.category == c for _, step in running)
            want[f"seg_head_{name}"] += [n] if n else []
        for g in range(3):
            n = sum(clusters[r] == g for r, _ in running)
            for kind in ("ctrl_field", "time_field"):
                want[f"{kind}_g{g}"] += [n, n] if n else []  # two layers each
    assert {name: seen[name] for name in layers} == {name: want[name] for name in layers}
    heads = layers[:3]
    assert sum(1 for name in heads if want[name]) >= 2  # rows took different heads
    assert sum(sum(want[name]) for name in heads) < rows * len(out["noise"])  # some finished early

    out = run(tape=True)
    n_steps = len(out["noise"])
    assert {name: seen[name] for name in layers} == {
        name: [rows] * n_steps if name.startswith("seg") else [rows // 3] * (2 * n_steps)
        for name in layers
    }

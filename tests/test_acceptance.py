"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

The scenario-3 training fixture is shared between the ablation-gap and
trace-override criteria; everything else is self-contained.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import tape_ops as ops
from leapts.autodiff import Tape, Tensor
from leapts.bounds import BoundInstance, bound_direct, bound_leapts_optimal, bound_recursive
from leapts.anchors import scale_anchors
from leapts.controller import gumbel_softmax_select
from leapts.data import Dataset, make_windows
from leapts.diagnostics import trace_override
from leapts.engine import soft_mask
from leapts.forward import forward_rows, _rows_from_batch
from gradcheck import finite_difference_grads, max_relative_error
from step_records import debug_run
from leapts.metrics import metrics
from leapts.model import LeapTS, ModelConfig
from leapts.synth import ScenarioSpec, gen_scenario1, gen_scenario2, gen_scenario3, integrate_ode
from leapts.training import TrainConfig, ablate, evaluate, train, _normalized_dataset


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS - {description} ({time.monotonic() - start:.1f}s)")


# -- shared trained model (criteria 8 and 9) -----------------------------------

DESK = dict(look_back=96, horizon=24, n_variates=1, hidden_dim=16, enc_hidden=(32,), seed=0)
DESK_TRAIN = dict(lr=2e-3, batch_size=128, max_epochs=30, patience=10, seed=0)


@pytest.fixture(scope="module")
def scenario3_dataset():
    batch = gen_scenario3(ScenarioSpec(3, total_steps=20000, seed=0))
    return Dataset(values=batch.values, split_fractions=(0.6, 0.2, 0.2))


@pytest.fixture(scope="module")
def trained_scenario3(scenario3_dataset):
    model = LeapTS(ModelConfig(**DESK))
    t0 = time.monotonic()
    model, report = train(model, scenario3_dataset, TrainConfig(**DESK_TRAIN))
    return model, report, time.monotonic() - t0


def test_criterion_1_gradient_integrity():
    with criterion(1, "full-model gradients match finite differences (<1e-4)"):
        t0 = time.monotonic()
        cfg = ModelConfig(
            look_back=24, horizon=8, n_variates=2, hidden_dim=8, n_clusters=1,
            summary_dim=4, control_dim=4, enc_hidden=(16,), field_hidden=8, seed=3,
        )
        model = LeapTS(cfg)
        assert not model.anchors.degenerate  # the hierarchical path is exercised
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 24, 2))
        y = _rows_from_batch(rng.normal(size=(2, 8, 2)))
        noise_rng = np.random.default_rng(11)
        frozen = [noise_rng.gumbel(size=(4, 3)) for _ in range(cfg.horizon + 1)]

        # guard: no continuous length sits near a rounding boundary
        probe = forward_rows(model, x, mode="soft", frozen_noise=frozen, traces_from=0)
        margins = [abs((s.len_cont % 1.0) - 0.5) for tr in probe["traces"] for s in tr.steps]
        assert min(margins) > 1e-3

        with Tape() as tape:
            out = forward_rows(model, x, mode="soft", frozen_noise=frozen)
            diff = ops.sub(out["fused"], Tensor(y))
            model.store.zero_grads()
            tape.backward(ops.mul(ops.tsum(ops.mul(diff, diff)), 1.0 / y.size))
        analytic = model.store.grads()

        def loss_fn():
            out = forward_rows(model, x, mode="soft", frozen_noise=frozen)
            d = out["fused"].data - y
            return float((d * d).mean())

        numeric = finite_difference_grads(loss_fn, model.store, h=1e-5)
        worst, name = max_relative_error(analytic, numeric, floor=1e-6)
        assert worst < 1e-4, f"max relative error {worst:.2e} at {name}"
        assert time.monotonic() - t0 < 120.0


def test_criterion_2_soft_mask_hard_limit():
    with criterion(2, "sharp mask equals hard indicator; accumulation matches paste oracle"):
        P = 24
        for length in (1, 5, 12, 24):
            for cursor in (1, 7, 20):
                m = soft_mask(np.array([[float(length)]]), np.array([cursor]), P, 1e-3)[0]
                hard = np.zeros(P)
                hard[cursor - 1 : min(cursor - 1 + length, P)] = 1.0
                assert np.abs(m - hard).max() < 1e-6
                covered = min(length, P - cursor + 1)
                assert covered - 0.01 <= m.sum() <= covered + 0.01

        cfg = ModelConfig(
            look_back=16, horizon=8, n_variates=2, hidden_dim=8, mask_temp=1e-3,
            summary_dim=4, control_dim=4, enc_hidden=(16,), field_hidden=8, seed=4,
        )
        model = LeapTS(cfg)
        forced = [[(0, 3.0, 3), (1, 4.0, 4), (0, 1.0, 1)]] * 2
        x = np.random.default_rng(0).normal(size=(1, 16, 2))
        out, debug = debug_run(forward_rows, model, x, override=forced)
        paste = np.zeros((2, 8))
        for step in debug:
            for r in range(2):
                if step.active[r]:
                    q, li = int(step.cursor_before[r]), int(step.len_int[r])
                    paste[r, q - 1 : q - 1 + li] += step.segment[r, q - 1 : q - 1 + li]
        assert np.abs(paste - out["sched"].data).max() < 1e-5


def test_criterion_3_scale_anchors():
    with criterion(3, "anchor hand cases exact; coverage over a 500-point grid"):
        a = scale_anchors(96, 60)
        assert (a.mins, a.maxs) == ((1, 25, 49), (24, 48, 60)) and not a.degenerate
        a = scale_anchors(36, 36)
        assert (a.mins, a.maxs) == ((1, 10, 19), (9, 18, 36)) and not a.degenerate
        a = scale_anchors(96, 18)
        assert a.degenerate and (a.mins, a.maxs) == ((1,), (18,))

        grid_l = np.linspace(8, 720, 25).astype(int)
        grid_p = np.linspace(2, 720, 20).astype(int)
        points = 0
        for L in grid_l:
            for P in grid_p:
                anchors = scale_anchors(int(L), int(P))
                covered = np.zeros(P + 1, dtype=bool)
                for lo, hi in zip(anchors.mins, anchors.maxs):
                    assert 1 <= lo <= hi <= P
                    covered[lo : hi + 1] = True
                assert covered[1:].all(), f"gap at (L={L}, P={P})"
                points += 1
        assert points == 500


def test_criterion_4_gumbel_st_statistics():
    with criterion(4, "1e5 hard draws match softmax(logits) within 0.01 per class"):
        rng = np.random.default_rng(2024)
        n = 100_000
        for _ in range(10):
            logits = rng.normal(scale=1.2, size=3)
            noise = rng.gumbel(size=(n, 3))
            _, hard = gumbel_softmax_select(np.tile(logits, (n, 1)), tau=1.0, noise=noise)
            freq = hard.mean(axis=0)
            target = np.exp(logits - logits.max())
            target /= target.sum()
            assert np.abs(freq - target).max() < 0.01


def test_criterion_5_theorem_one():
    with criterion(5, "B* <= min(B_dir, B_rec) on 500 instances; worked case (16, 15, 15)"):
        t0 = time.monotonic()
        inst = BoundInstance(lam=2.0, eps_a=1.0, eps_p=2.0, P=4)
        res = bound_leapts_optimal(inst)
        assert bound_direct(inst) == 16.0
        assert bound_recursive(inst) == 15.0
        assert res.value == 15.0 and res.best_partition == (1, 1, 1, 1)

        rng = np.random.default_rng(99)
        for _ in range(500):
            inst = BoundInstance(
                lam=float(rng.uniform(1.0, 3.0)),
                eps_a=float(rng.uniform(1e-6, 2.0)),
                eps_p=float(rng.uniform(1.0 + 1e-9, 3.0)),
                P=int(rng.integers(2, 13)),
            )
            best = bound_leapts_optimal(inst).value
            assert best <= min(bound_direct(inst), bound_recursive(inst)) + 1e-9
        assert time.monotonic() - t0 < 60.0


def test_criterion_6_decomposition_identity():
    with criterion(6, "ctrl+time deltas equal realized state change; ratios sum to 1"):
        rng = np.random.default_rng(5)
        for trial in range(20):
            cfg = ModelConfig(
                look_back=16, horizon=int(rng.integers(4, 10)), n_variates=2,
                hidden_dim=8, summary_dim=4, control_dim=4, enc_hidden=(16,),
                field_hidden=8, seed=int(rng.integers(0, 1000)),
            )
            model = LeapTS(cfg)
            x = rng.normal(size=(2, 16, 2))
            out, debug = debug_run(forward_rows, model, x, mode="eval", traces_from=0)
            assert debug
            for step in debug:
                assert np.array_equal(
                    step.h_after, step.h_before + (step.ctrl_delta + step.time_delta)
                )
            for tr in out["traces"]:
                for s in tr.steps:
                    assert abs(s.ctrl_ratio + s.time_ratio - 1.0) < 1e-9 or (
                        s.ctrl_mag + s.time_mag == 0.0
                    )


def oracle_metrics(pred, truth, history, s):
    """Independent naive reimplementation (pure Python loops)."""
    P, N = len(pred), len(pred[0])
    L = len(history)
    acc = {"mse": 0.0, "mae": 0.0, "smape": 0.0, "mape": 0.0, "mase": 0.0}
    for j in range(N):
        se = ae = sm = mp = 0.0
        for i in range(P):
            d = truth[i][j] - pred[i][j]
            se += d * d
            ae += abs(d)
            denom = abs(truth[i][j]) + abs(pred[i][j])
            sm += 200.0 * abs(d) / denom if denom > 0 else 0.0
            mp += 100.0 * abs(d) / abs(truth[i][j])
        scale = sum(abs(history[i][j] - history[i - s][j]) for i in range(s, L)) / (L - s)
        acc["mse"] += se / P
        acc["mae"] += ae / P
        acc["smape"] += sm / P
        acc["mape"] += mp / P
        acc["mase"] += (ae / P) / scale
    return {k: v / N for k, v in acc.items()}


def test_criterion_7_metric_oracles():
    with criterion(7, "metrics match a naive reimplementation within 1e-10; hand cases exact"):
        rep = metrics(
            np.array([[4.0], [5.0]]), np.array([[3.0], [4.0]]),
            np.array([[1.0], [2.0], [3.0]]), s=1,
        )
        assert rep.mae == 1.0 and rep.mase == pytest.approx(1.0, abs=1e-15)
        rep = metrics(np.array([[3.0]]), np.array([[1.0]]), np.array([[0.0], [1.0]]), s=1)
        assert rep.smape == pytest.approx(100.0, abs=1e-12)

        rng = np.random.default_rng(42)
        for _ in range(100):
            P = int(rng.integers(1, 12))
            N = int(rng.integers(1, 5))
            L = int(rng.integers(3, 20))
            s = int(rng.integers(1, max(2, L // 2)))
            pred = rng.normal(loc=1.0, size=(P, N))
            truth = rng.normal(loc=2.0, size=(P, N)) + 0.1
            history = rng.normal(size=(L, N)).cumsum(axis=0) + rng.normal(size=(L, N))
            rep = metrics(pred, truth, history, s=s)
            want = oracle_metrics(pred.tolist(), truth.tolist(), history.tolist(), s)
            for key, value in want.items():
                assert abs(getattr(rep, key) - value) < 1e-10, key


def test_criterion_8_scenario3_ablation_gap(scenario3_dataset, trained_scenario3):
    with criterion(8, "scheduling branch halves the test MSE on the Lorenz scenario"):
        model, report, train_seconds = trained_scenario3
        assert len(report.epochs) <= 30
        coarse_only = ablate(model, "no_sched")
        ds_norm, _ = _normalized_dataset(scenario3_dataset)
        test_w = make_windows(ds_norm, DESK["look_back"], DESK["horizon"], "test")
        full_rep, _ = evaluate(model, test_w)
        ablated_rep, _ = evaluate(coarse_only, test_w)
        print(
            f"\n  full mse {full_rep.mse:.5f} vs coarse-only {ablated_rep.mse:.5f}"
            f" (ratio {full_rep.mse / ablated_rep.mse:.3f}, train {train_seconds:.0f}s)"
        )
        assert full_rep.mse <= 0.5 * ablated_rep.mse
        assert train_seconds < 1200.0


def test_criterion_9_trace_override_ordering(scenario3_dataset, trained_scenario3):
    with criterion(9, "learned trace beats Monte Carlo and fixed-step overrides (MAE)"):
        model, _, _ = trained_scenario3
        ds_norm, _ = _normalized_dataset(scenario3_dataset)
        test_w = make_windows(
            ds_norm, DESK["look_back"], DESK["horizon"], "test", stride=DESK["horizon"]
        )
        learned, _ = evaluate(model, test_w)
        mc = trace_override(model, test_w, "monte_carlo", 100, rng=np.random.default_rng(1))
        fixed = trace_override(model, test_w, "fixed", DESK["horizon"] // 2)
        print(
            f"\n  learned mae {learned.mae:.5f} | monte_carlo(100) {mc.mae:.5f}"
            f" | fixed({DESK['horizon'] // 2}) {fixed.mae:.5f}"
        )
        assert learned.mae <= mc.mae
        assert learned.mae <= fixed.mae


def test_criterion_10_generator_fidelity():
    with criterion(10, "seeded generators reproduce; trajectories satisfy system bounds"):
        out = integrate_ode(lambda t, x: -x, np.array([1.0]), 101, 0.01)
        assert abs(out[100, 0] - np.exp(-1.0)) < 1e-6

        spec3 = ScenarioSpec(3, total_steps=20000, seed=0)
        a = gen_scenario3(spec3)
        b = gen_scenario3(ScenarioSpec(3, total_steps=20000, seed=0))
        assert np.array_equal(a.values, b.values)
        z = a.values[100:, 0]
        assert np.all(z > 0.0) and np.all(z < 60.0)

        s1 = gen_scenario1(ScenarioSpec(1, total_steps=20000, seed=0))
        assert np.array_equal(
            s1.values, gen_scenario1(ScenarioSpec(1, total_steps=20000, seed=0)).values
        )
        assert s1.metadata["reset_indices"] == list(range(2000, 20000, 2000))
        c = s1.values[:, 20:]
        jumps = np.abs(np.diff(c, axis=0)).max(axis=1)
        detected = set((np.flatnonzero(jumps > 0.5) + 1).tolist())
        assert set(s1.metadata["reset_indices"]) <= detected
        assert detected <= set(s1.metadata["reset_indices"])

        s2 = gen_scenario2(ScenarioSpec(2, total_steps=20000, seed=0))
        assert np.array_equal(
            s2.values, gen_scenario2(ScenarioSpec(2, total_steps=20000, seed=0)).values
        )
        u = s2.values[200:, 2]
        assert np.all(u >= 0.48) and np.all(u <= 1.52)
        assert np.all(np.isfinite(s2.values))


def test_criterion_11_scheduling_loop_safety():
    with criterion(11, "1000 random initializations: terminate, cover, no backward writes"):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            L = int(rng.integers(4, 40))
            P = int(rng.integers(2, 14))
            n = int(rng.integers(1, 3))
            cfg = ModelConfig(
                look_back=L, horizon=P, n_variates=n, hidden_dim=6, summary_dim=3,
                control_dim=3, enc_hidden=(8,), field_hidden=6,
                seed=int(rng.integers(0, 100_000)),
            )
            model = LeapTS(cfg)
            x = rng.normal(scale=float(rng.uniform(0.2, 5.0)), size=(1, L, n))
            mode = "train" if trial % 2 else "eval"
            out, debug = debug_run(
                forward_rows, model, x, mode=mode, rng=np.random.default_rng(trial),
                traces_from=0,
            )
            for tr in out["traces"]:
                assert tr.n_steps <= P
                assert tr.total_int_length() >= P
                assert tr.steps[-1].cursor_after > P
            for step in debug:
                for r in range(step.mask.shape[0]):
                    q = int(step.cursor_before[r])
                    assert np.all(step.mask[r, : q - 1] == 0.0)

"""synth-bounds: the three scenario generators, each through generate ->
write_csv -> load_csv; a fixed sweep of ``bound_leapts_optimal`` with P
up to 18; cold starts of ``python -m leapts anchors``.

It runs no autodiff, model or engine code, so a change to the model path
predicts no change here, while the RK4 generators, the CSV path, the
2^(P-1) bound enumeration and the import time do all of the work. The
seed sets the generators' initial states and noise, the bound
parameters, the (L, P) of each CLI call and the oscillator checked
against its closed form.
"""

from __future__ import annotations

import math
import time

import numpy as np

import harness
import layers
from harness import Run, phase

import leapts.bounds as bounds
import leapts.data as data
import leapts.synth as synth

FULL = dict(steps={1: 2400, 2: 600, 3: 4000}, horizons=(12, 16, 18), setups=5, min_rounds=4, cli=7,
            ode_steps=2000)
TOY = dict(steps={1: 240, 2: 60, 3: 400}, horizons=(6, 8, 10), setups=1, min_rounds=1, cli=1,
           ode_steps=200)
DAMPING, DT = 0.15, 0.05


def _instances(rng, horizons):
    return [
        bounds.BoundInstance(lam=float(rng.uniform(1.0, 1.3)), eps_a=float(rng.uniform(0.5, 2.0)),
                             eps_p=float(rng.uniform(1.2, 2.5)), P=P)
        for P in horizons
    ]


def _dp_bound(inst) -> tuple[float, float]:
    """(best schedule term, direct bound) by an O(P^2) dynamic program over
    the cursor: best[c] = min over the last length l of
    best[c - l] + lam^(P - c) * eps(l)."""
    P = inst.P
    best = [0.0] + [math.inf] * P
    for c in range(1, P + 1):
        w = inst.lam ** (P - c)
        best[c] = min(best[c - l] + w * inst.eps(l) for l in range(1, c + 1))
    return best[P], inst.eps(P)


def _damped_field(t, x):
    return np.stack([x[..., 1], -DAMPING * x[..., 1] - x[..., 0]], axis=-1)


def _rk4_error(rng, n_steps: int) -> tuple[float, float]:
    """Max |integrate_ode - closed form| of the damped oscillator over
    ``n_steps``, absolute and relative to the amplitude."""
    a, b = rng.uniform(-2.0, 2.0, size=2)
    decay = DAMPING / 2
    omega = math.sqrt(1.0 - decay * decay)
    t = np.arange(n_steps) * DT
    exact = np.exp(-decay * t) * (a * np.cos(omega * t) + b * np.sin(omega * t))
    x0 = [a, -decay * a + omega * b]
    traj = synth.integrate_ode(_damped_field, x0, n_steps, DT)
    err = float(np.abs(traj[:, 0] - exact).max())
    return err, err / math.hypot(a, b)


def _gen_round(run: Run, size, paths) -> tuple[list, list]:
    """generate -> write_csv -> load_csv for every scenario; returns the
    time of each call and the (batch, loaded) pairs."""
    pairs, times = [], []
    for s in (1, 2, 3):
        spec = synth.ScenarioSpec(s, total_steps=size["steps"][s], seed=run.seed)
        ok, batch = run.op(synth.generate, spec, times=times)
        if ok and run.op(synth.write_csv, batch, paths[s], times=times)[0]:
            ok, loaded = run.op(data.load_csv, paths[s], times=times)
            if ok:
                pairs.append((batch, loaded))
    return times, pairs


def run(run: Run, tracer) -> dict:
    size = TOY if run.toy else FULL
    rng = np.random.default_rng(run.seed)

    def setup():
        """A first, small call of every kind: the files exist and every code
        path has run once before the first full-size call."""
        paths = {s: run.out_path(f"scenario{s}.csv") for s in (1, 2, 3)}
        for s, steps in ((1, 100), (2, 20), (3, 100)):
            synth.write_csv(synth.generate(synth.ScenarioSpec(s, total_steps=steps, seed=0)), paths[s])
            data.load_csv(paths[s])
        bounds.bound_leapts_optimal(bounds.BoundInstance(lam=1.1, eps_a=1.0, eps_p=1.5, P=8))
        return paths

    with phase(tracer, "bench.setup"):
        paths, setup_s = harness.timed_setups(run, 1 if tracer else size["setups"], setup)
    instances = _instances(rng, size["horizons"])
    cli_cases = [(int(rng.choice((48, 96, 192))), int(rng.integers(8, 97))) for _ in range(size["cli"])]
    run.host_reference()

    gen_times, sweep_times, results, pairs_seen = [], [], [], []
    rounds = 0
    t_measure = time.perf_counter()
    cli = harness.CliStarts(run, [] if tracer else cli_cases, run.seconds)
    while rounds < size["min_rounds"] or time.perf_counter() - t_measure < run.seconds:
        with phase(tracer, "bench.gen"):
            times, pairs = _gen_round(run, size, paths)
        gen_times.append(times)
        pairs_seen.append(pairs)
        cli.tick()
        sweep_times.append([])
        with phase(tracer, "bench.bounds"):
            results.append([run.op(bounds.bound_leapts_optimal, inst, times=sweep_times[-1])[1]
                            for inst in instances])
        rounds += 1
        run.host_reference(1)
        cli.tick()
    run.host_reference()

    # -- checks -------------------------------------------------------------------
    run.check("gen: every scenario generated, written and read in every round",
              all(len(pairs) == 3 for pairs in pairs_seen))
    for batch, _ in pairs_seen[0]:
        s = batch.spec.scenario
        run.check(f"gen scenario {s}: values finite", bool(np.all(np.isfinite(batch.values))))
        if s == 2:
            run.check("gen scenario 2: Brusselator X and Y positive", bool(np.all(batch.values[:, :2] > 0)))
    run.check("gen: write_csv -> load_csv bit for bit in every round", all(
        loaded.values.shape == batch.values.shape and np.array_equal(loaded.values, batch.values)
        for pairs in pairs_seen for batch, loaded in pairs))
    dp = [_dp_bound(inst) for inst in instances]
    for r, res in enumerate(results):
        for inst, (sched, direct), got in zip(instances, dp, res):
            ok = got is not None
            if ok:
                expect = min(sched, direct)
                ok = abs(got.value - expect) <= 1e-12 * expect and sum(got.best_partition) == inst.P
            if r == 0 or not ok:
                run.check(f"bounds P={inst.P} round {r}: equals the O(P^2) DP, partition sums to P", ok,
                          "" if got is None else f"{got.value!r} vs {min(sched, direct)!r}")
    ode_abs, ode_err = _rk4_error(rng, size["ode_steps"])
    run.check("rk4: damped oscillator within 1e-5 of its closed form", ode_abs <= 1e-5, f"{ode_abs:.3e}")
    run.notes.update(rounds=rounds, rk4_abs_error=ode_abs)

    steps_per_round = sum(size["steps"].values())
    if tracer is not None:
        out = layers.base_metrics(tracer)
        out["cli.import_s"] = harness.cli_import_s(1 if run.toy else 3)
        out["trace.overhead_pct"] = layers.overhead_pct(tracer, lambda: _gen_round(run, TOY, paths))
        out["host.reference_ms"] = harness.upper_quartile(run.host_ms)
        return out
    return {
        "setup_s": setup_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "main_per_s": harness.rounds_rate(gen_times, steps_per_round),
        "second_per_s": harness.rounds_rate(sweep_times, len(instances)),
        "cli_start_s": cli.finish(),
        "output_error": ode_err,
    }

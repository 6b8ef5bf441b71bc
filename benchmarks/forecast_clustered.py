"""forecast-clustered: scenario 1 (30 variates in three latent clusters),
L=96, P=96, scales [1,24] [25,48] [49,96] and three variate clusters.

Set-up trains a model briefly with a fixed seed in a child process and
loads it through its ``LEAPTS1`` checkpoint. The timed part alternates two
phases: a forecast phase (``evaluate`` over the test split, no tape) and
a diagnose phase that follows ``leapts trace`` and ``leapts eval
--override/--full-metrics`` on a subset of the test windows. With 1,920
rows per call, the hierarchical controller and every cluster's field
MLPs running on every row, the scheduling loop's array work dominates;
the diagnose phase runs the same loop through its per-row Python paths.
The seed picks the windows forecast one at a time for the batch check;
the timed inputs are fixed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import harness
import layers
from harness import HERE, Run, phase
from tracer import Patches, info_sum, total

import leapts.data as data
import leapts.diagnostics as diagnostics
import leapts.forward as forward
import leapts.synth as synth
import leapts.traces as traces_mod
import leapts.training as training
from leapts.data import Dataset, WindowBatch, make_windows
from leapts.model import LeapTS

L, P, N_VARIATES = 96, 96, 30
ANCHORS = ((1, 24), (25, 48), (49, 96))
EVAL_BATCH = 64

# 2,235 steps: the test split (last 20%) holds exactly 256 windows.
FULL = dict(steps=2235, child_batches=30, setups=3, forecast_windows=256, diag_windows=32,
            mc_draws=2, min_rounds=3, cli=7, single=4)
TOY = dict(steps=2235, child_batches=2, setups=1, forecast_windows=16, diag_windows=4,
           mc_draws=1, min_rounds=1, cli=1, single=2)


def _subset(w: WindowBatch, idx) -> WindowBatch:
    return WindowBatch(inputs=w.inputs[idx], targets=w.targets[idx], starts=w.starts[idx])


def _setup(run: Run, size: dict, k: int):
    """Series -> CSV -> child training -> checkpoint -> model and windows."""
    batch = synth.generate(synth.ScenarioSpec(1, total_steps=size["steps"], seed=0))
    csv_path = run.out_path("scenario1.csv")
    synth.write_csv(batch, csv_path)
    ckpt = run.out_path(f"model{k}.ckpt")
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "child_train.py"), csv_path, ckpt,
         str(size["child_batches"])],
        env=harness.child_env(), capture_output=True, text=True, timeout=300,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up training failed ({child.returncode}): {child.stderr[-2000:]}")
    model = LeapTS.load(ckpt)
    ds = data.load_csv(csv_path)
    mu, sd = model.data_norm
    norm = Dataset(values=(ds.values - mu) / sd)
    test_w = make_windows(norm, L, P, "test")
    test_w = _subset(test_w, np.arange(min(size["forecast_windows"], test_w.n_windows)))
    return model, test_w, ckpt


def _tiles_horizon(tr) -> bool:
    cursor = 1
    for s in tr.steps:
        if not (isinstance(s.len_int, int) and s.len_int >= 1 and s.cursor_before == cursor):
            return False
        cursor = s.cursor_after
        if cursor != s.cursor_before + s.len_int:
            return False
    return cursor == P + 1 and sum(s.len_int for s in tr.steps) == P


def _diagnose(run: Run, model, sub: WindowBatch, draws: int, tracer, times: list) -> dict:
    """One pass of the diagnose phase; each call is one operation, and its
    time is appended to ``times``."""

    def timed(fn, *args, **kwargs):
        return run.op(fn, *args, times=times, **kwargs)[1]

    out = {}
    with phase(tracer, "bench.diag_eval"):
        res = timed(training.evaluate, model, sub, batch=EVAL_BATCH, collect_traces=True)
    if res is None:
        return out
    out["report"], trs = res
    out["traces"] = trs
    timed(traces_mod.write_trace_jsonl, trs, run.out_path("trace.jsonl"))
    out["categories"] = timed(diagnostics.category_stats, trs)
    out["ratios"] = timed(diagnostics.ratio_summary, trs)
    out["bins"] = timed(diagnostics.bin_by_volatility, trs)
    out["override"] = timed(diagnostics.trace_override, model, sub, "monte_carlo", draws,
                            rng=np.random.default_rng(0))
    out["full"] = timed(training.evaluate_full, model, sub, batch=EVAL_BATCH)
    return out


def run(run: Run, tracer) -> dict:
    size = TOY if run.toy else FULL
    ckpts = []

    def setup():
        model, test_w, ckpt = _setup(run, size, len(ckpts))
        ckpts.append(ckpt)
        return model, test_w

    with phase(tracer, "bench.setup"):
        (model, test_w), setup_s = harness.timed_setups(
            run, 1 if tracer else size["setups"], setup)
    # The diagnose inputs are fixed: its cost follows the subset's schedules
    # and the longest random partition of each batch; drawn from the seed,
    # they spread the diagnose rate by 20% (IQR/median over ten seeds).
    diag_idx = np.arange(0, test_w.n_windows, test_w.n_windows // size["diag_windows"])
    rng = np.random.default_rng(run.seed)
    sub = _subset(test_w, diag_idx)
    training.evaluate(model, _subset(test_w, np.arange(min(EVAL_BATCH, test_w.n_windows))),
                      batch=EVAL_BATCH)  # untimed warm-up
    run.host_reference()

    n_batches = -(-test_w.n_windows // EVAL_BATCH)
    batch_times, preds = [], []

    def time_predict(orig):
        def predict_batch(model_, inputs, *a, **k):
            t0 = time.perf_counter()
            out = orig(model_, inputs, *a, **k)
            batch_times[-1].append(time.perf_counter() - t0)
            if len(preds) < n_batches:
                preds.append(out[0])
            return out
        return predict_batch

    patches = Patches()
    rounds, reports, diag_times, first_diag = 0, [], [], None
    t_measure = time.perf_counter()
    cli = harness.CliStarts(run, [] if tracer else [(L, P)] * size["cli"], run.seconds)
    while rounds < size["min_rounds"] or time.perf_counter() - t_measure < run.seconds:
        batch_times.append([])
        patches.patch(training, "predict_batch", time_predict)
        try:
            with phase(tracer, "bench.forecast"):
                ok, res = run.op(training.evaluate, model, test_w, batch=EVAL_BATCH)
        finally:
            patches.restore()
        if ok:
            reports.append(res[0])
        cli.tick()
        diag_times.append([])
        with phase(tracer, "bench.diagnose"):
            diag = _diagnose(run, model, sub, size["mc_draws"], tracer, diag_times[-1])
        if tracer is not None:  # the same forecasts without traces, for traces.collect_*
            with tracer.span("bench.diag_plain"):
                training.evaluate(model, sub, batch=EVAL_BATCH)
        first_diag = first_diag or diag
        rounds += 1
        run.host_reference(1)
        cli.tick()
    run.host_reference()

    # -- checks -------------------------------------------------------------------
    blobs = []
    for path in ckpts:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    run.check("setup: checkpoints of every set-up identical", all(b == blobs[0] for b in blobs))
    run.check("model: three scales [1,24] [25,48] [49,96]",
              model.hierarchical and tuple(zip(model.anchors.mins, model.anchors.maxs)) == ANCHORS)
    run.check("model: three variate clusters", len(set(model.cluster_of_variate.tolist())) == 3)
    probe = forward.forward_rows(model, test_w.inputs[:4])
    gate = 1.0 / (1.0 + np.exp(-model.store["fuse_logit"].data[0]))
    fused = probe["coarse"].data + gate * probe["sched"].data
    run.check("forward: fused = coarse + sigmoid(fuse_logit) * sched",
              np.abs(fused - probe["fused"].data).max() <= 1e-12 * (1 + np.abs(fused).max()))
    run.check("forecast: every round gave a report", len(reports) == rounds)
    batched = np.concatenate(preds)
    mse = reports[0].mse
    own = float(((batched - test_w.targets) ** 2).mean())
    run.check("forecast: mse equals own MSE of predict_batch outputs", abs(own - mse) <= 1e-9 * own,
              f"{own} vs {mse}")
    run.check("forecast: every round gives the same mse", all(r.mse == mse for r in reports))
    single_idx = rng.choice(test_w.n_windows, size["single"], replace=False)
    worst = max(np.abs(forward.forecast(model, test_w.inputs[i])[0].fused - batched[i]).max()
                for i in single_idx)
    run.check("forecast: windows one at a time match the batch within 1e-9", worst <= 1e-9, f"{worst:.3e}")

    diag = first_diag or {}
    trs = diag.get("traces") or []
    run.check("diagnose: one trace per variate of every window",
              len(trs) == size["diag_windows"] * N_VARIATES)
    run.check("diagnose: every trace tiles the horizon", bool(trs) and all(map(_tiles_horizon, trs)))
    own_sub = float(((batched[diag_idx] - sub.targets) ** 2).mean())
    rep_t = diag.get("report")
    run.check("diagnose: traced forecasts equal plain ones",
              rep_t is not None and abs(rep_t.mse - own_sub) <= 1e-9 * own_sub)
    cats = diag.get("categories")
    run.check("diagnose: category shares sum to 1",
              cats is not None and abs(sum(cats["distribution"].values()) - 1.0) <= 1e-12)
    bins = diag.get("bins")
    run.check("diagnose: volatility bins partition the traces",
              bins is not None and sorted(i for b in bins for i in b.members) == list(range(len(trs))))
    ovr = diag.get("override")
    run.check("diagnose: Monte Carlo override error finite", ovr is not None and np.isfinite(ovr.mse))
    full = diag.get("full")
    run.check("diagnose: evaluate_full mse equals the pooled mse",
              full is not None and abs(full.mse - own_sub) <= 1e-9 * own_sub)
    if cats is not None:
        run.notes.update({f"category_share.{k}": v for k, v in cats["distribution"].items()})
        run.notes["mean_steps_per_forecast"] = cats["mean_steps"]
    run.notes.update(forecast_rounds=rounds, diagnose_windows=len(diag_idx))

    if tracer is not None:
        return _layer_metrics(run, tracer, model, test_w, sub, trs, rounds)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "main_per_s": harness.rounds_rate(batch_times, test_w.n_windows),
        "second_per_s": harness.rounds_rate(diag_times, len(diag_idx)),
        "cli_start_s": cli.finish(),
        "output_error": mse,
    }


def _layer_metrics(run: Run, tracer, model, test_w, sub, trs, rounds) -> dict:
    out = layers.base_metrics(tracer)
    out.update(layers.model_path_metrics(tracer, "forward.predict", ("bench.forecast",)))
    pred = tracer.select("forward.predict", ("bench.forecast",))
    out["forward.predict_ms_per_batch"] = layers.div(total(pred) * 1e3, len(pred))
    traced = [sp.dur for sp in tracer.select("forward.predict", ("bench.diag_eval",))]
    plain = [sp.dur for sp in tracer.select("forward.predict", ("bench.diag_plain",))]
    out["traces.collect_ms_per_batch"] = (float(np.median(traced)) - float(np.median(plain))) * 1e3
    # every diagnose round forecasts the same subset, so its traces repeat
    out.update(layers.schedule_shape(tracer, trs, "bench.diag_eval",
                                     repeats=len(tracer.select("bench.diag_eval"))))
    writes = tracer.select("traces.write")
    out["traces.write_ms_per_1k_steps"] = layers.div(total(writes) * 1e6, info_sum(writes, "steps"))
    out["diagnostics.override_ms_per_window"] = layers.div(
        total(tracer.select("diagnostics.override")) * 1e3, sub.n_windows * rounds)
    stats = tracer.select("diagnostics.stats")
    out["diagnostics.stats_ms_per_1k_traces"] = layers.div(total(stats) * 1e6, info_sum(stats, "traces"))
    reports = tracer.select("metrics.full_report")
    out["metrics.full_report_ms_per_window"] = layers.div(total(reports) * 1e3, len(reports))
    out["cli.import_s"] = harness.cli_import_s(1 if run.toy else 3)
    out["trace.overhead_pct"] = layers.overhead_pct(
        tracer, lambda: training.evaluate(model, _subset(test_w, np.arange(8)), batch=EVAL_BATCH))
    out["host.reference_ms"] = harness.upper_quartile(run.host_ms)
    return out


"""Per-layer metrics read off the spans of a traced run.

Every traced run reports every metric named in ``BENCHMARK.json``; a
layer that the workload does not reach reads 0 (nothing of it ran).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from tracer import Tracer, info_sum, total

NAMES = (
    "autodiff.tape_nodes_per_batch",
    "autodiff.backward_ms_per_batch",
    "autodiff.tape_mb_per_batch",
    "autodiff.cyclic_garbage_per_batch",
    "forward.loss_ms_per_batch",
    "forward.predict_ms_per_batch",
    "model.encode_ms_per_batch",
    "controller.decide_ms_per_batch",
    "engine.schedule_ms_per_batch",
    "engine.loop_steps_per_batch",
    "engine.ms_per_loop_step",
    "engine.steps_per_forecast",
    "engine.active_row_share",
    "optim.adam_ms_per_batch",
    "traces.collect_ms_per_batch",
    "traces.write_ms_per_1k_steps",
    "diagnostics.override_ms_per_window",
    "diagnostics.stats_ms_per_1k_traces",
    "metrics.full_report_ms_per_window",
    "synth.scenario1_steps_per_s",
    "synth.scenario2_steps_per_s",
    "synth.scenario3_steps_per_s",
    "data.write_csv_rows_per_s",
    "data.load_csv_rows_per_s",
    "data.make_windows_ms",
    "bounds.optimal_ms_p12",
    "bounds.optimal_ms_p16",
    "bounds.optimal_ms_p18",
    "cli.import_s",
    "host.reference_ms",
    "trace.overhead_pct",
)


def div(a: float, b: float) -> float:
    return a / b if b else 0.0


def overhead_pct(tracer: Tracer, unit, pairs: int = 10) -> float:
    """Tracing overhead on ``unit()``: median time with every span
    installed against the median with the original functions, timed in
    alternating pairs so that a change of machine speed hits both sides.
    Leaves the originals in place."""
    traced, plain = [], []
    for _ in range(pairs):
        for on, times in ((True, traced), (False, plain)):
            tracer.patches.switch(on)
            t0 = time.perf_counter()
            unit()
            times.append(time.perf_counter() - t0)
    tracer.patches.restore()
    return (float(np.median(traced)) / float(np.median(plain)) - 1.0) * 100.0


class GarbageCounter:
    """Counts objects the cyclic collector frees (automatic and explicit
    collections alike) while it is active."""

    def __init__(self):
        self.collected = 0

    def _callback(self, phase, info):
        if phase == "stop":
            self.collected += info["collected"]

    def __enter__(self):
        gc.collect()
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.collect()
        gc.callbacks.remove(self._callback)
        return False


def base_metrics(t: Tracer) -> dict:
    """Zeros, plus the layers every workload can reach: synth, data, bounds."""
    out = dict.fromkeys(NAMES, 0.0)
    for s in (1, 2, 3):
        spans = t.select(f"synth.scenario{s}")
        out[f"synth.scenario{s}_steps_per_s"] = div(info_sum(spans, "steps"), total(spans))
    spans = t.select("data.write_csv")
    out["data.write_csv_rows_per_s"] = div(info_sum(spans, "rows"), total(spans))
    spans = t.select("data.load_csv")
    out["data.load_csv_rows_per_s"] = div(info_sum(spans, "rows"), total(spans))
    spans = t.select("data.make_windows")
    out["data.make_windows_ms"] = div(total(spans) * 1e3, len(spans))
    for P in (12, 16, 18):
        spans = [sp for sp in t.select("bounds.optimal") if sp.info["P"] == P]
        out[f"bounds.optimal_ms_p{P}"] = div(total(spans) * 1e3, len(spans))
    return out


def model_path_metrics(t: Tracer, unit: str, under: tuple = ()) -> dict:
    """Per-batch model/controller/engine figures, one batch being one span
    ``unit`` (below every span named in ``under``)."""
    batches = t.select(unit, under)
    n = len(batches)
    inner = (*under, unit)
    sched = t.select("engine.schedule", inner)
    loop_steps = info_sum(sched, "loop_steps")
    return {
        "model.encode_ms_per_batch": div(total(t.select("model.", inner)) * 1e3, n),
        "controller.decide_ms_per_batch": div(total(t.select("controller.", inner)) * 1e3, n),
        "engine.schedule_ms_per_batch": div(total(sched) * 1e3, n),
        "engine.loop_steps_per_batch": div(loop_steps, n),
        "engine.ms_per_loop_step": div(total(sched) * 1e3, loop_steps),
    }


def schedule_shape(t: Tracer, traces, under: str, repeats: int = 1) -> dict:
    """Steps per forecast (one row = one variate of one window) and the
    share of lockstep row-steps that did useful work, from the traces of
    a traced evaluate and the schedule spans below ``under`` (``repeats``
    identical evaluates)."""
    steps = np.array([tr.n_steps for tr in traces], dtype=np.float64)
    sched = t.select("engine.schedule", (under,))
    lockstep = sum(sp.info["rows"] * sp.info["loop_steps"] for sp in sched)
    return {
        "engine.steps_per_forecast": float(steps.mean()) if steps.size else 0.0,
        "engine.active_row_share": div(float(steps.sum()) * repeats, lockstep),
    }

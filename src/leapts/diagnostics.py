"""Scheduling analysis: control/temporal decomposition ratios, volatility
binning, category statistics, and externally imposed scheduling traces
(random partitions or fixed steps), forecast through the evaluation pass
of `training`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchors import ScaleAnchors
from .data import WindowBatch
from .errors import DataError
from .forward import predict_batch  # noqa: F401  (benchmarks/tracer.py wraps this name)
from .metrics import MetricReport
from .model import LeapTS
from .traces import ScheduleTrace
from .training import _forecast_pass

__all__ = [
    "VolatilityBin",
    "bin_by_volatility",
    "category_stats",
    "ratio_summary",
    "sample_partition",
    "fixed_partition",
    "partitions_to_override",
    "trace_override",
]


@dataclass
class VolatilityBin:
    bin_id: int
    members: list[int] = field(default_factory=list)
    mean_ctrl_ratio: float = 0.0
    mean_time_ratio: float = 0.0
    mean_volatility: float = 0.0


def bin_by_volatility(traces: list[ScheduleTrace]) -> list[VolatilityBin]:
    """Quartile bins of traces by ascending look-back volatility; ties
    broken by trace order. Ratios are step-means within each bin."""
    if len(traces) < 4:
        raise DataError(f"bin_by_volatility: need >= 4 traces, got {len(traces)}")
    order = sorted(range(len(traces)), key=lambda i: (traces[i].volatility, i))
    bins = []
    for bin_id, chunk in enumerate(np.array_split(np.asarray(order), 4)):
        members = [int(i) for i in chunk]
        ctrl = [s.ctrl_ratio for i in members for s in traces[i].steps]
        time = [s.time_ratio for i in members for s in traces[i].steps]
        bins.append(
            VolatilityBin(
                bin_id=bin_id,
                members=members,
                mean_ctrl_ratio=float(np.mean(ctrl)) if ctrl else 0.0,
                mean_time_ratio=float(np.mean(time)) if time else 0.0,
                mean_volatility=float(np.mean([traces[i].volatility for i in members])),
            )
        )
    return bins


def category_stats(traces: list[ScheduleTrace]) -> dict:
    """Frequency of selected categories and mean scheduling steps per trace."""
    if not traces:
        raise DataError("category_stats: no traces")
    counts: dict[str, int] = {}
    total_steps = 0
    for tr in traces:
        total_steps += tr.n_steps
        for s in tr.steps:
            counts[s.category_name] = counts.get(s.category_name, 0) + 1
    return {
        "distribution": {k: v / total_steps for k, v in sorted(counts.items())},
        "mean_steps": total_steps / len(traces),
        "n_traces": len(traces),
        "n_steps": total_steps,
    }


def ratio_summary(traces: list[ScheduleTrace]) -> dict:
    """Step-mean decomposition ratios over all steps of all traces."""
    ctrl = [s.ctrl_ratio for tr in traces for s in tr.steps]
    time = [s.time_ratio for tr in traces for s in tr.steps]
    return {
        "ctrl_ratio": float(np.mean(ctrl)) if ctrl else 0.0,
        "time_ratio": float(np.mean(time)) if time else 0.0,
        "n_steps": len(ctrl),
    }


# -- imposed scheduling traces ----------------------------------------------

_OVERRIDE_BATCH = 512  # windows per forecast call under an override


def sample_partition(P: int, rng: np.random.Generator) -> list[int]:
    """Random ordered partition: draw uniform lengths in [1, remaining]
    until the horizon is covered."""
    out, rem = [], P
    while rem > 0:
        length = int(rng.integers(1, rem + 1))
        out.append(length)
        rem -= length
    return out


def fixed_partition(P: int, step: int) -> list[int]:
    if not 1 <= step <= P:
        raise DataError(f"fixed step must be in 1..{P}, got {step}")
    out = [step] * (P // step)
    if P % step:
        out.append(P % step)
    return out


def partitions_to_override(partitions, anchors: ScaleAnchors) -> tuple[np.ndarray, ...]:
    """One forced schedule per partition of the horizon: the loop's (category,
    len_cont, len_int) [rows x S] arrays, each row zero-padded. A length's
    category is the one whose interval contains it; a length outside 1..P is
    left for the loop's entry check (`engine.check_override`) to refuse."""
    lens = np.zeros((len(partitions), max(map(len, partitions), default=0)), dtype=np.int64)
    for r, p in enumerate(partitions):
        lens[r, : len(p)] = p
    P = anchors.maxs[-1]  # the last interval ends at the horizon
    categories = np.array([0, *map(anchors.category_of_length, range(1, P + 1))])
    return categories[np.clip(lens, 0, P)], lens.astype(np.float64), lens


def trace_override(
    model: LeapTS,
    windows: WindowBatch,
    mode: str,
    value,
    rng: np.random.Generator | None = None,
) -> MetricReport:
    """Evaluate the model under externally imposed (category, length)
    schedules.

    mode "fixed": constant step of ``value`` (final step takes the
    remainder). mode "monte_carlo": ``value`` random partitions per
    window, errors averaged across draws.
    """
    P = model.config.horizon
    if model.ablation == "no_sched":
        raise DataError("trace_override: the no_sched variant has no scheduling branch")
    b, n = windows.n_windows, model.config.n_variates

    if mode == "fixed":
        one = partitions_to_override([fixed_partition(P, int(value))], model.anchors)
        override = tuple(np.broadcast_to(a, (b * n, a.shape[1])) for a in one)
        pooled = _forecast_pass(model, windows, _OVERRIDE_BATCH, override=override)
        return MetricReport(mse=pooled.mse, mae=pooled.mae)

    if mode == "monte_carlo":
        n_draws = int(value)
        if n_draws < 1:
            raise DataError(f"monte_carlo: need >= 1 draw, got {n_draws}")
        if rng is None:
            rng = np.random.default_rng(0)
        runs = []
        for _ in range(n_draws):
            draw = partitions_to_override([sample_partition(P, rng) for _ in range(b)],
                                          model.anchors)
            override = tuple(np.repeat(a, n, axis=0) for a in draw)  # each window's variates
            runs.append(_forecast_pass(model, windows, _OVERRIDE_BATCH, override=override))
        return MetricReport(mse=float(np.mean([r.mse for r in runs])),
                            mae=float(np.mean([r.mae for r in runs])))

    raise DataError(f"unknown override mode {mode!r}")

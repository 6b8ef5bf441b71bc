"""Test views of the scheduling loop's step records (``engine.StepRecord``).

`debug_run` runs a forward with the record list and rebuilds, per loop
step, a `StepDebug` of [R x ...] arrays in original row order: a row that
has left the batch reads as finished, with its final state. The mask,
segment and states that records do not hold are captured by wrapping
``engine.step``. `per_step_traces` is the trace builder that ran inside
the loop, one step at a time: the oracle of ``traces.build_traces``.
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import leapts.engine as engine
from leapts.traces import ScheduleTrace, TraceStep, decompose_update


@dataclass
class StepDebug:
    """Per-step internals captured for verification."""

    mask: np.ndarray
    segment: np.ndarray
    len_int: np.ndarray
    cursor_before: np.ndarray
    h_before: np.ndarray
    h_after: np.ndarray
    ctrl_delta: np.ndarray
    time_delta: np.ndarray
    active: np.ndarray


def debug_run(fn, *args, records=None, **kwargs):
    """``fn(*args, debug=records, **kwargs)`` with ``engine.step`` wrapped;
    returns (its result, one `StepDebug` per loop step). ``records``: the
    list that receives the step records (None: a new one)."""
    records = [] if records is None else records
    seen = []
    step = engine.step

    def capturing(model, state, *rest):
        next_state, cols, saved = step(model, state, *rest)
        # mask and segment may sit in work arrays the next step writes over
        seen.append((cols[4].copy(), cols[5].copy(), state[0], next_state[0]))
        return next_state, cols, saved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "step", capturing)
        out = fn(*args, debug=records, **kwargs)
    return out, step_debug(records, seen)


def step_debug(records, seen) -> list[StepDebug]:
    """`StepDebug`s from the records and the (mask, segment, h_before,
    h_after) of each step, over the rows that ran it."""
    if not records:
        return []
    R = len(records[0].rows)  # every row runs the first step
    P = seen[0][0].shape[1]
    h_out = np.zeros((R, seen[0][2].shape[1]))  # final states of the rows that have left
    out = []
    for rec, (mask, segment, h_before, h_after) in zip(records, seen):

        def spread(x, left):  # [R x ...] in original row order, `left` on rows that left
            full = np.array(np.broadcast_to(left, (R,) + x.shape[1:]), dtype=x.dtype)
            full[rec.rows] = x
            return full

        out.append(StepDebug(
            mask=spread(mask, 0.0),
            segment=spread(segment, 0.0),
            len_int=spread(rec.len_int, 0),
            cursor_before=spread(rec.cursor, P + 1),
            h_before=spread(h_before, h_out),
            h_after=spread(h_after, h_out),
            ctrl_delta=spread(rec.ctrl_delta, 0.0),
            time_delta=spread(rec.time_delta, 0.0),
            active=spread(np.ones(len(rec.rows), dtype=bool), False),
        ))
        left = rec.cursor + rec.len_int > P
        h_out[rec.rows[left]] = h_after[left]
    return out


def per_step_traces(records, meta, category_names) -> list[ScheduleTrace]:
    """The schedule traces, one loop step at a time, from ``.tolist()``
    columns: how the loop built them before ``traces.build_traces``."""
    wins, vars_, vols = meta
    traces = [
        ScheduleTrace(window=int(wins[r]), variate=int(vars_[r]), volatility=float(vols[r]))
        for r in range(len(wins))
    ]
    for rec in records:
        ctrl_mags = np.abs(rec.ctrl_delta).sum(axis=1)
        time_mags = np.abs(rec.time_delta).sum(axis=1)
        ctrl_ratios, time_ratios = decompose_update(rec.ctrl_delta, rec.time_delta)
        columns = (rec.rows, rec.category, rec.soft, rec.sel[:, 0], rec.len_int, rec.cursor,
                   ctrl_mags, time_mags, ctrl_ratios, time_ratios)
        for r, c, sft, lc, li, cb, cm, tm, cr, tr in zip(*(a.tolist() for a in columns)):
            traces[r].steps.append(TraceStep(
                rec.step, c, category_names[c], sft, lc, li, cb, cb + li, cm, tm, cr, tr,
                rec.forced
            ))
    return traces

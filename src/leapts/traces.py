"""Schedule traces: the per-step record of every scheduling decision.

Each trace covers one (window, variate) pair; `build_traces` makes them
from the scheduling loop's step records (``engine.StepRecord``) after the
loop. Serialization is JSON Lines, one record per scheduling step, schema
``leapts-trace-v1``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError

__all__ = [
    "TraceStep",
    "ScheduleTrace",
    "decompose_update",
    "build_traces",
    "write_trace_jsonl",
    "read_trace_jsonl",
]

TRACE_SCHEMA = "leapts-trace-v1"
RATIO_EPS = 1e-12


def decompose_update(ctrl_delta, time_delta):
    """Relative weight of the control-driven vs time-driven state change,
    over the last axis (one ratio pair per row of a batch).

    Magnitudes are summed absolute components, so opposite-signed entries
    cannot cancel.
    """
    c = np.abs(np.asarray(ctrl_delta, dtype=np.float64)).sum(axis=-1)
    t = np.abs(np.asarray(time_delta, dtype=np.float64)).sum(axis=-1)
    total = c + t + RATIO_EPS
    return c / total, t / total


@dataclass
class TraceStep:
    step: int
    category: int
    category_name: str
    soft: list[float]
    len_cont: float
    len_int: int
    cursor_before: int
    cursor_after: int
    ctrl_mag: float
    time_mag: float
    ctrl_ratio: float
    time_ratio: float
    forced: bool = False


@dataclass
class ScheduleTrace:
    window: int
    variate: int
    volatility: float = 0.0
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def total_int_length(self) -> int:
        return sum(s.len_int for s in self.steps)


def build_traces(records, meta, category_names) -> list[ScheduleTrace]:
    """One `ScheduleTrace` per row from the scheduling loop's step
    ``records`` (``engine.StepRecord``), with ``meta`` = (window ids,
    variate ids, volatilities) per row. Each column is joined over the
    records first, then split into `TraceStep`s in one pass."""
    traces = [ScheduleTrace(int(w), int(v), float(vol)) for w, v, vol in zip(*meta)]
    if not records:
        return traces
    columns = (np.concatenate(col) for col in zip(*(
        (rec.rows, np.full(len(rec.rows), rec.step), rec.category, rec.soft, rec.sel[:, 0],
         rec.len_int, rec.cursor, np.abs(rec.ctrl_delta).sum(axis=1),
         np.abs(rec.time_delta).sum(axis=1), *decompose_update(rec.ctrl_delta, rec.time_delta),
         np.full(len(rec.rows), rec.forced))
        for rec in records)))
    for r, k, c, sft, lc, li, cb, cm, tm, cr, tr, f in zip(*(a.tolist() for a in columns)):
        traces[r].steps.append(TraceStep(k, c, category_names[c], sft, lc, li, cb, cb + li, cm,
                                         tm, cr, tr, f))
    return traces


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON value tests by field annotation; a float field also takes a JSON integer.
_IS_TYPE = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list[float]": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}
_FIELD_TYPES = {
    f.name: f.type for cls in (ScheduleTrace, TraceStep) for f in fields(cls) if f.name != "steps"
}


_STEP_FIELDS = tuple(f.name for f in fields(TraceStep))
_name_text = functools.lru_cache(maxsize=16)(json.dumps)  # category names: a handful
_STEP_TYPES = (int, int, str, list, float, int, int, int, float, float, float, float, bool)


def _step_text(record: dict) -> str:
    """``json.dumps(record)`` of a step record without its opening brace: by
    one format string when every field has its annotated builtin type and
    every float is finite (Python's float ``repr`` is what ``json`` writes),
    else by ``json.dumps``."""
    if tuple(record) == _STEP_FIELDS and tuple(map(type, record.values())) == _STEP_TYPES:
        step, cat, name, soft, lc, li, cb, ca, cm, tm, cr, tr, forced = record.values()
        if all(type(x) is float for x in soft):
            total = lc + cm + tm + cr + tr + sum(soft)
            if total - total == 0.0:  # NaN or an infinity gives NaN here
                r = float.__repr__
                return (
                    f'"step": {step}, "category": {cat}, "category_name": {_name_text(name)}, '
                    f'"soft": [{", ".join(map(r, soft))}], "len_cont": {r(lc)}, '
                    f'"len_int": {li}, "cursor_before": {cb}, "cursor_after": {ca}, '
                    f'"ctrl_mag": {r(cm)}, "time_mag": {r(tm)}, "ctrl_ratio": {r(cr)}, '
                    f'"time_ratio": {r(tr)}, "forced": {"true" if forced else "false"}}}'
                )
    return json.dumps(record)[1:]


def _head_text(tr: ScheduleTrace) -> str:
    """``json.dumps`` of a trace's head without its closing brace."""
    w, v, vol = tr.window, tr.variate, tr.volatility
    if (type(w), type(v), type(vol)) == (int, int, float) and vol - vol == 0.0:
        return f'{{"schema": "{TRACE_SCHEMA}", "window": {w}, "variate": {v}, ' \
               f'"volatility": {float.__repr__(vol)}'
    return json.dumps({"schema": TRACE_SCHEMA, "window": w, "variate": v, "volatility": vol})[:-1]


def write_trace_jsonl(traces, path):
    """One JSON line per step: the trace's head, then the step's fields; the
    text is what ``json.dumps`` writes for the record."""
    with open(path, "w", encoding="utf-8") as fh:
        for tr in traces:
            head = _head_text(tr)
            fh.writelines(f"{head}, {_step_text(vars(st))}\n" for st in tr.steps)


def read_trace_jsonl(path) -> list[ScheduleTrace]:
    """Traces of a JSONL file; a malformed record (not UTF-8 JSON), or a field
    value of another type than its annotation, is a `DataError` naming the
    file and the line."""
    traces: dict[tuple[int, int], ScheduleTrace] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                schema = rec.pop("schema", TRACE_SCHEMA)
                if schema != TRACE_SCHEMA:
                    raise ValueError(f"unsupported trace schema {schema!r}")
                for name, value in rec.items():
                    kind = _FIELD_TYPES.get(name)
                    if kind is not None and not _IS_TYPE[kind](value):
                        raise ValueError(f"{name} must be {kind}, got {value!r}")
                key = (rec.pop("window"), rec.pop("variate"))
                vol = rec.pop("volatility", 0.0)
                if key not in traces:
                    traces[key] = ScheduleTrace(window=key[0], variate=key[1], volatility=vol)
                traces[key].steps.append(TraceStep(**rec))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise DataError(f"{path}, line {lineno}: bad trace record: {exc!r}") from None
    out = list(traces.values())
    for tr in out:
        tr.steps.sort(key=lambda s: s.step)
    return out

"""The scheduling loop: soft-mask segment writing, cursor advancement,
summary feedback, control-signal construction, and cluster-specific
controlled state evolution.

One scheduling step is written once, as functions on numpy arrays:
`step` composes the row-batched operations below and returns the next
loop state, the step's columns and, under a tape, the arrays its reverse
pass reads; `step_vjp` is that reverse pass, written by hand. The loop is
batched over rows (one row = one variate of one window), and each row
schedules its own path: a row leaves the batch at the end of the step
that carries its cursor past the horizon, so every row in a step is still
running. Each row runs only its own cluster's field MLPs and, under hard
routing, only the segment head its routing chose. A tape changes no
value: it only decides what `step` saves. Each step writes its mask,
segment and masked write into [rows x horizon] work arrays the loop makes
once per call, on and off the tape; a taped step saves none of them, and
`step_vjp` recomputes them from the cursor, ``sel`` and the route it saves.

`run_schedule_rows` composes `step` in every mode and, under a tape,
returns the saved steps; `schedule_vjp` walks them in reverse through
`step_vjp`. The model's one tape node (``forward.forward_rows``) calls it
in its reverse pass. What the loop decided leaves it as one `StepRecord`
per step, when the caller asks for them; schedule traces are built from
those records after the loop (``traces.build_traces``). A step checks its
values as it makes them; the first non-finite one raises `NumericError`
naming the loop step and the stage (docs/formats.md lists the stages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import _stable_sigmoid
from .controller import (
    gumbel_softmax_select,
    length_candidates,
    round_and_clip_rows,
    route_lengths,
)
from .errors import ConfigError, DataError, NumericError
from .model import LeapTS, _check, _dense

__all__ = [
    "soft_mask",
    "routed_segment",
    "write_segment",
    "summarize_segment",
    "build_control_signal",
    "increments",
    "evolve_state",
    "step",
    "step_vjp",
    "ClusterAssignment",
    "series_features",
    "cluster_variates",
    "StepRecord",
    "check_override",
    "run_schedule_rows",
    "schedule_vjp",
]


# -- the operations of one scheduling step, batched over rows ---------------


def _dense_vjp(grads, store, prefix, x, y, g, tanh=False, layer="", dx=True):
    """Reverse of `_dense` with parameters ``{prefix}w{layer}`` and
    ``{prefix}b{layer}``: adds their cotangents into ``grads``, returns the
    cotangent of ``x`` (None without ``dx``, when nothing reads it)."""
    if tanh:
        g = g * (1.0 - y * y)
    _accumulate(grads, f"{prefix}w{layer}", x.T @ g)
    _accumulate(grads, f"{prefix}b{layer}", g.sum(axis=0))
    return g @ store[f"{prefix}w{layer}"].data.T if dx else None


def _accumulate(grads, name, g):
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _rows_to(parts, n: int, width: int) -> np.ndarray:
    """[n x width] zeros with each ``(rows, array)`` part put at its rows; a
    single part that covers all n rows is returned as is."""
    if len(parts) == 1 and len(parts[0][0]) == n:
        return parts[0][1]
    out = np.zeros((n, width))
    for rows, a in parts:
        out[rows] = a
    return out


def soft_mask(sel: np.ndarray, cursor: np.ndarray, P: int, gamma: float, out=None, work=None,
              started=None) -> np.ndarray:
    """Sigmoid gate over the horizon per row [R x P]: exactly 0 before the
    row's cursor (so everywhere on a finished row, cursor P+1), then a
    smooth cutoff ``gamma`` wide centered ``sel`` [R x 1] past the cursor.
    It is written into ``out``, with ``work`` as scratch and the started
    gate in the bool array ``started`` (None: fresh arrays)."""
    tau = np.arange(1, P + 1, dtype=np.float64)
    started = np.greater_equal(tau[None, :], cursor[:, None], out=started)
    z = np.subtract(tau[None, :], cursor[:, None].astype(np.float64), out=out)  # offsets
    z += 0.5
    np.subtract(sel, z, out=z)
    z *= 1.0 / gamma
    mask = _stable_sigmoid(z, out=z, work=work)
    mask *= started  # a bool gate multiplies as 0.0/1.0
    return mask


def _heads(model: LeapTS, kind: str):
    """(weight, bias) of each category's ``kind`` head, in category order."""
    s, names = model.store, model.anchors.category_names()
    return [(s[f"{kind}_{n}_w"].data, s[f"{kind}_{n}_b"].data) for n in names]


def routed_segment(model: LeapTS, h: np.ndarray, route: np.ndarray, chosen=None, out=None,
                   work=None):
    """Full-horizon segment [R x P]: the sum over categories c of
    route[:, c] * seg_head_c(h).

    ``chosen`` [R] gives each row's category when routing is hard (``route``
    one-hot): each category's head then runs on its own rows only, which is
    that sum exactly. Without it (soft routing) every head runs on every row.
    The segment is written into ``out``, with ``work`` [R x P] as scratch
    (None: fresh arrays).
    """
    heads = _heads(model, "seg_head")
    n = h.shape[0]
    segment = np.empty((n, model.config.horizon)) if out is None else out
    if chosen is not None:
        for c, (w, b) in enumerate(heads):
            rows = np.flatnonzero(chosen == c)
            if len(rows) == n:
                _dense(h, w, b, out=segment)
            elif len(rows):  # each row has one head, so every row of segment is written
                part = None if work is None else work[: len(rows)]
                segment[rows] = _dense(h[rows], w, b, out=part)[0]
        return segment
    for c, (w, b) in enumerate(heads):
        seg_c = _dense(h, w, b, out=work if c else segment)[0]
        seg_c *= route[:, c : c + 1]
        if c:
            segment += seg_c
    return segment


def write_segment(segment: np.ndarray, mask: np.ndarray, accum: np.ndarray, out=None):
    """Masked write: adds segment * mask into ``accum`` in place and returns
    (accum, segment * mask), the latter written into ``out`` if given."""
    masked = np.multiply(segment, mask, out=out)
    accum += masked
    return accum, masked


def summarize_segment(masked_segment, summary_w, summary_b):
    """Compress a written segment into a bounded feedback vector:
    (summary, its pre-activation)."""
    return _dense(masked_segment, summary_w, summary_b, tanh=True)


def build_control_signal(rho, prev_len_norm, prev_soft, prev_summary, control_w, control_b):
    """tanh projection of [remaining-horizon ratio, previous normalized
    length, previous scale distribution, previous summary]: (control,
    the concatenated context, the pre-activation)."""
    ctx = np.concatenate([rho, prev_len_norm, prev_soft, prev_summary], axis=-1)
    u, pre = _dense(ctx, control_w, control_b, tanh=True)
    return u, ctx, pre


def increments(u, u_prev, prev_len_norm, dt_min: float, dt_max: float):
    """Control increment u - u_prev and the clipped temporal increment."""
    if not 0 < dt_min <= dt_max:
        raise ValueError(f"increments: need 0 < dt_min <= dt_max, got ({dt_min}, {dt_max})")
    return u - u_prev, np.clip(np.asarray(prev_len_norm, dtype=np.float64), dt_min, dt_max)


class ClusterFields(NamedTuple):
    """One cluster's share of a controlled-Euler step, as `step_vjp` reads
    it: its rows (None for every row), field inputs, hidden layers, control
    field output, and its rows of ``du`` and ``dtau``."""

    cluster: int
    rows: np.ndarray | None
    x: np.ndarray
    ctrl_hidden: np.ndarray
    ctrl_field: np.ndarray
    time_hidden: np.ndarray
    du: np.ndarray
    dtau: np.ndarray


def evolve_state(model: LeapTS, h, u, du, dtau, row_clusters: np.ndarray, keep: bool):
    """One controlled-Euler step over rows: row r moves by its cluster's
    control field times ``du`` plus its drift field times ``dtau``.

    Each cluster's field MLPs run on that cluster's rows only; their
    pre-activations are checked as the cluster finishes. Returns (h_next,
    ctrl_delta, time_delta, a `ClusterFields` per cluster with rows if
    ``keep``) with h_next = h + (ctrl_delta + time_delta).
    """
    store = model.store
    n, width = h.shape
    inp = np.concatenate([h, u], axis=-1)
    ctrl_parts, time_parts, fields = [], [], []
    for g in range(model.config.n_clusters):
        rows = np.flatnonzero(row_clusters == g)
        if not len(rows):
            continue
        every = len(rows) == n
        x = inp if every else inp[rows]
        f1, f_pre = _dense(x, store[f"ctrl_field_g{g}_w0"].data, store[f"ctrl_field_g{g}_b0"].data, True)
        _check(f"cluster {g} control field pre-activation", f_pre)
        fld = _dense(f1, store[f"ctrl_field_g{g}_w1"].data, store[f"ctrl_field_g{g}_b1"].data)[0]
        t1, t_pre = _dense(x, store[f"time_field_g{g}_w0"].data, store[f"time_field_g{g}_b0"].data, True)
        _check(f"cluster {g} drift field pre-activation", t_pre)
        drift = _dense(t1, store[f"time_field_g{g}_w1"].data, store[f"time_field_g{g}_b1"].data)[0]
        du_g = du if every else du[rows]
        dtau_g = dtau if every else dtau[rows]
        f3 = fld.reshape(len(rows), -1, du_g.shape[1])
        ctrl_parts.append((rows, np.einsum("rmn,rn->rm", f3, du_g)))
        time_parts.append((rows, drift * dtau_g))
        if keep:
            fields.append(ClusterFields(g, None if every else rows, x, f1, fld, t1, du_g, dtau_g))
    d_ctrl, d_time = (_rows_to(p, n, width) for p in (ctrl_parts, time_parts))
    return h + (d_ctrl + d_time), d_ctrl, d_time, fields


# -- one scheduling step and its reverse pass --------------------------------


def step(model: LeapTS, state: tuple, mode: str, tau: float, noise=None, decision=None,
         taped: bool = False, work=None):
    """One scheduling step over the rows of ``state`` = (h, accum, cursor,
    prev_u, prev_soft, prev_summary, prev_len_norm, row_clusters).

    ``tau`` is the Gumbel temperature and ``noise`` this step's Gumbel draw
    for these rows (None: noiseless). ``decision`` = (category, len_cont,
    len_int) per row forces the step (override or forced completion);
    otherwise the length heads decide. ``taped`` changes no value: it only
    keeps the arrays `step_vjp` reads.

    ``work`` = (started, mask, segment, masked): the [n x P] arrays (bool,
    then float) the step writes into, None for fresh ones; the forecast
    accumulates in ``state``'s array. Mask and segment columns written into
    ``work`` are valid until the next step.

    Returns (next state, the step's columns (category, soft, sel, len_int, mask,
    segment, ctrl_delta, time_delta), saved arrays or None: no [n x P] one).
    """
    h, accum, cursor, prev_u, prev_soft, prev_summary, prev_len_norm, row_clusters = state
    cfg, store, anchors = model.config, model.store, model.anchors
    P, C = cfg.horizon, anchors.n_categories
    n = h.shape[0]

    # high level: scale distribution (also feeds the next control signal)
    if C > 1:
        logits = h @ store["category_proj"].data
        _check("category logits", logits)
        soft, hard = gumbel_softmax_select(logits, tau, noise)
        _check("scale distribution", soft)
    else:
        soft, hard = np.ones((n, 1)), np.ones((n, 1))

    # low level: advancement length (continuous for the mask, integer for
    # the cursor) and routing vector for the segment heads
    lengths = sig = None
    if decision is not None:
        cat_idx, len_cont, len_int = decision
        sel = len_cont[:, None]
        route = np.eye(C)[cat_idx]
    else:
        lengths, raw, sig = length_candidates(h, anchors, _heads(model, "len_head"))
        for name, r in zip(anchors.category_names(), raw):
            _check(f"{name} length head output", r)
        sel, route, cat_idx = route_lengths(lengths, soft, hard, mode)
        len_int = round_and_clip_rows(sel[:, 0], cursor, P)

    # segment for the selected category, soft-masked into the horizon;
    # hard routing: route is one-hot and cat_idx names its category; the
    # masked write's array is the scratch of the two calls before it
    hard_route = mode != "soft" or decision is not None
    started, mask, segment, masked = (None,) * 4 if work is None else work
    segment = routed_segment(model, h, route, cat_idx if hard_route else None, segment, masked)
    mask = soft_mask(sel, cursor, P, cfg.mask_temp, mask, masked, started)
    accum_next, masked = write_segment(segment, mask, accum, masked)
    _check("written forecast", accum_next)

    # feedback and state evolution (uses the previous step's outcomes)
    summary, s_pre = summarize_segment(masked, store["summary_w"].data, store["summary_b"].data)
    _check("segment summary pre-activation", s_pre)
    rho = ((P - cursor + 1) / P)[:, None]
    u, ctx, u_pre = build_control_signal(
        rho, prev_len_norm, prev_soft, prev_summary, store["control_w"].data,
        store["control_b"].data,
    )
    _check("control signal pre-activation", u_pre)
    du, dtau = increments(u, prev_u, prev_len_norm, cfg.dt_min, cfg.dt_max)
    h_next, d_ctrl, d_time, fields = evolve_state(model, h, u, du, dtau, row_clusters, taped)
    _check("state update", h_next)

    saved = None
    if taped:
        saved = (tau, decision is None, h, soft, route, lengths, sig, cursor, sel,
                 cat_idx if hard_route else None, summary, ctx, u, fields)  # what step_vjp reads
    next_state = (h_next, accum_next, cursor + len_int, u, soft, summary,
                  (len_int / P)[:, None].astype(np.float64), row_clusters)
    return next_state, (cat_idx, soft, sel, len_int, mask, segment, d_ctrl, d_time), saved


def step_vjp(model: LeapTS, saved: tuple, g_accum: np.ndarray, g_next: tuple, grads: dict,
             work: tuple):
    """Reverse pass of one `step` from its ``saved`` arrays.

    ``g_accum`` is the cotangent of the step's accumulated forecast rows and
    ``g_next`` those of (h_next, u, soft, summary) from the rest of the
    loop, zeros where nothing after the step reads them. Parameter
    cotangents are added into ``grads`` (name -> array). Returns the
    cotangents of (h, prev_u, prev_soft, prev_summary).

    The segment, mask and masked write are recomputed, bit for bit, by the
    forward's calls into ``work`` = (started, mask, segment, masked).

    The route's cotangent passes to ``soft`` under soft and hard routing
    alike (straight through for the hard one-hot). Its segment part for
    category c, g_segment · seg_head_c(h), is computed from the head's
    weights, as hard routing runs only each row's chosen head.
    """
    tau, learned, h, soft, route, lengths, sig, cursor, sel, chosen, summary, ctx, u, fields = saved
    cfg, store, anchors = model.config, model.store, model.anchors
    C, H = anchors.n_categories, cfg.hidden_dim
    g_hn, g_un, g_softn, g_sumn = g_next
    n = h.shape[0]
    started, mask, segment, masked = work
    segment = routed_segment(model, h, route, chosen, segment, masked)
    mask = soft_mask(sel, cursor, cfg.horizon, cfg.mask_temp, mask, masked, started)
    masked = np.multiply(segment, mask, out=masked)

    # controlled-Euler update, control signal and summary: read by the rest
    # of the loop only
    g_inp, g_du = None, None
    for g, rows, x, f1, fld, t1, du_g, dtau_g in reversed(fields):
        g_d = g_hn if rows is None else g_hn[rows]
        ctrl, time = f"ctrl_field_g{g}_", f"time_field_g{g}_"
        g_t1 = _dense_vjp(grads, store, time, t1, None, g_d * dtau_g, layer="1")
        r, nu = du_g.shape
        g_fld = np.einsum("rm,rn->rmn", g_d, du_g).reshape(r, -1)
        g_du_g = np.einsum("rmn,rm->rn", fld.reshape(r, -1, nu), g_d)
        g_x = _dense_vjp(grads, store, time, x, t1, g_t1, tanh=True, layer="0")
        g_f1 = _dense_vjp(grads, store, ctrl, f1, None, g_fld, layer="1")
        g_x += _dense_vjp(grads, store, ctrl, x, f1, g_f1, tanh=True, layer="0")
        if rows is None:
            g_inp, g_du = g_x, g_du_g
        else:
            if g_inp is None:
                g_inp, g_du = np.zeros((n, x.shape[1])), np.zeros((n, du_g.shape[1]))
            g_inp[rows], g_du[rows] = g_x, g_du_g
    gh = g_hn + g_inp[:, :H]
    g_u = g_un + g_inp[:, H:] + g_du
    g_ctx = _dense_vjp(grads, store, "control_", ctx, u, g_u, tanh=True)
    g_masked = _dense_vjp(grads, store, "summary_", masked, summary, g_sumn, tanh=True)
    g_masked += g_accum

    # masked write, segment heads, soft mask
    g_segment = g_masked * mask
    names = anchors.category_names()
    for c in reversed(range(C)):
        g_c = g_segment * route[:, c : c + 1]
        gh += _dense_vjp(grads, store, f"seg_head_{names[c]}_", h, None, g_c)

    # length heads and routing (only when the heads decided the step)
    g_soft = g_softn
    if learned:
        g_mask = g_masked * segment
        g_sel = (g_mask * mask * (1.0 - mask) * (1.0 / cfg.mask_temp)).sum(axis=1, keepdims=True)
        g_lengths = g_sel * route
        if C > 1:
            g_route = g_sel * lengths
            for c, (w, b) in enumerate(_heads(model, "seg_head")):
                g_route[:, c] += (g_segment @ w.T * h).sum(axis=1) + g_segment @ b
            g_soft = g_soft + g_route
        for c in reversed(range(C)):
            lo, hi = float(anchors.mins[c]), float(anchors.maxs[c])
            g_raw = g_lengths[:, c : c + 1] * (hi - lo) * sig[c] * (1.0 - sig[c])
            gh += _dense_vjp(grads, store, f"len_head_{names[c]}_", h, None, g_raw)

    # Gumbel softmax over the category logits (one category draws nothing)
    if C > 1:
        dot = (g_soft * soft).sum(axis=-1, keepdims=True)
        g_logits = soft * (g_soft - dot) * (1.0 / tau)
        _accumulate(grads, "category_proj", h.T @ g_logits)
        gh += g_logits @ store["category_proj"].data.T
    return gh, -g_du, g_ctx[:, 2 : 2 + C], g_ctx[:, 2 + C :]


# -- variate clustering ----------------------------------------------------


@dataclass
class ClusterAssignment:
    assignment: np.ndarray  # variate index -> cluster id
    centroids: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)


def series_features(values: np.ndarray) -> np.ndarray:
    """Per-variate [mean, std, lag-1 autocorrelation], z-scored across variates."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 3:
        raise DataError(f"series_features: need [T x N] with T >= 3, got {values.shape}")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    centered = values - mean
    denom = (centered * centered).sum(axis=0)
    num = (centered[1:] * centered[:-1]).sum(axis=0)
    acf1 = np.divide(num, denom, out=np.zeros_like(num), where=denom > 1e-24)
    feats = np.stack([mean, std, acf1], axis=1)
    spread = feats.std(axis=0)
    loc = feats.mean(axis=0)
    return np.where(spread > 1e-12, (feats - loc) / np.where(spread > 1e-12, spread, 1.0), 0.0)


def cluster_variates(values: np.ndarray, n_clusters: int, seed: int = 0) -> ClusterAssignment:
    """Group variates by L2 k-means over simple series statistics.

    Deterministic given the seed; at most 100 Lloyd iterations. Degenerate
    (all-identical) features put every variate into one cluster.
    """
    feats = series_features(values)
    n = feats.shape[0]
    if not 1 <= n_clusters <= n:
        raise DataError(f"cluster_variates: need 1 <= G <= {n}, got {n_clusters}")
    if n_clusters == 1:
        return ClusterAssignment(np.zeros(n, dtype=np.int64), feats.mean(axis=0, keepdims=True))
    uniq = np.unique(feats, axis=0)
    if len(uniq) == 1:
        return ClusterAssignment(np.zeros(n, dtype=np.int64), uniq)
    k = min(n_clusters, len(uniq))
    rng = np.random.default_rng(seed)
    centroids = uniq[rng.permutation(len(uniq))[:k]].copy()
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        d2 = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        for g in range(k):  # re-seed empty clusters at the farthest point
            if not np.any(new_assignment == g):
                far = d2.min(axis=1).argmax()
                centroids[g] = feats[far]
                new_assignment[far] = g
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for g in range(k):
            centroids[g] = feats[assignment == g].mean(axis=0)
    return ClusterAssignment(assignment, centroids)


# -- the scheduling loop ----------------------------------------------------


class StepRecord(NamedTuple):
    """What one loop step decided for the rows that ran it (``rows``, in
    original row order); ``cursor`` is before the step. No column is a view
    of the loop's work arrays."""

    step: int
    rows: np.ndarray
    cursor: np.ndarray
    category: np.ndarray
    soft: np.ndarray
    sel: np.ndarray  # [n x 1]
    len_int: np.ndarray
    ctrl_delta: np.ndarray
    time_delta: np.ndarray
    forced: bool


def check_override(override, R: int, P: int, C: int) -> tuple[np.ndarray, ...]:
    """Forced schedules, checked where they enter the loop: three [R x S]
    arrays (category, len_cont, len_int), returned as int64, float64, int64.
    Row r's schedule ends at its first len_int of 0; its cursor before step
    k is 1 + the sum of its earlier len_int. So every step the loop will
    read is checked here, and the first bad one by step, then row, raises
    the `DataError` the loop would meet first."""
    arrays = [np.asarray(a) for a in override] if len(override) == 3 else []
    if ([a.dtype.kind for a in arrays] != ["i", "f", "i"] or arrays[0].ndim != 2
            or {a.shape for a in arrays} != {(R, arrays[0].shape[1])}):
        got = ", ".join(f"{a.dtype} {a.shape}" for a in arrays) or f"{len(override)} items"
        raise DataError(f"override must be three [{R} x S] arrays, (signed int, float, signed "
                        f"int) category, len_cont and len_int; got {got}")
    cat, cont, n = arrays
    lens = np.concatenate([n, np.zeros((R, 1), n.dtype)], axis=1)  # reaching step S: exhausted
    rem = P - (np.cumsum(lens, axis=1) - lens)  # P - cursor + 1 before each step
    live = np.logical_and.accumulate(rem >= 1, axis=1)
    bad = live & ((lens < 1) | (lens > rem))
    bad[:, :-1] |= live[:, :-1] & ((cat < 0) | (cat >= C) | ~np.isfinite(cont))
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        r = int(bad[:, k].argmax())
        if lens[r, k] == 0:
            raise DataError(f"override for row {r} exhausted at step {k}")
        if lens[r, k] < 1 or lens[r, k] > rem[r, k]:
            raise DataError(f"override length {n[r, k]} outside 1..{rem[r, k]} (row {r}, step {k})")
        raise DataError(f"override step {(int(cat[r, k]), float(cont[r, k]), int(n[r, k]))} needs "
                        f"a category in 0..{C - 1} and a finite len_cont (row {r}, step {k})")
    return tuple(a.astype(t, copy=False) for a, t in zip(arrays, (np.int64, np.float64, np.int64)))


def run_schedule_rows(model: LeapTS, h: np.ndarray, row_clusters: np.ndarray, mode: str = "eval",
                      rng: np.random.Generator | None = None, frozen_noise: list | None = None,
                      override: tuple | None = None, records: list | None = None,
                      gumbel_temp: float | None = None):
    """Run the scheduling loop for R rows, one `step` at a time. A row leaves
    the batch once its cursor passes the horizon; outputs are in the
    original row order. ``h`` is the initial state [R x hidden_dim].

    ``mode``: "train" (Gumbel noise + hard routing), "eval" (noiseless,
    hard routing), "soft" (noiseless or frozen-noise, fully differentiable
    soft routing; the cursor still advances by rounded integers).
    ``gumbel_temp`` is the Gumbel softmax temperature (None: the config's).

    ``override`` forces decisions: three [R x S] arrays (category,
    len_cont, len_int), row r's step k at [r, k], its schedule ending at its
    first len_int of 0; `check_override` checks them before the first step.
    ``records``: a list that receives one `StepRecord` per step, over the
    rows that ran it (``traces.build_traces`` makes the schedule traces
    from them).

    Returns (accumulated forecast rows [R x P], the saved steps
    `schedule_vjp` reads: empty without a tape, recorded noise list usable
    as ``frozen_noise``: one [R x C] draw per step).
    """
    if mode not in ("train", "eval", "soft"):
        raise ConfigError(f"unknown schedule mode {mode!r}")
    cfg = model.config
    anchors = model.anchors
    P, C = cfg.horizon, anchors.n_categories
    if mode == "train" and C > 1 and rng is None and frozen_noise is None:
        raise ConfigError("train mode needs an rng (or frozen noise) for category selection")
    tau = cfg.gumbel_temp if gumbel_temp is None else gumbel_temp
    taped = ad._active_tape() is not None
    R = h.shape[0]
    if override is not None:
        o_cat, o_cont, o_int = check_override(override, R, P, C)

    out = np.zeros((R, P))  # accumulates until rows leave; each writes its own as it leaves
    state = (h, out, np.ones(R, dtype=np.int64), np.zeros((R, cfg.control_dim)),
             np.full((R, C), 1.0 / C), np.zeros((R, cfg.summary_dim)), np.zeros((R, 1)),
             row_clusters)

    noise_record: list = []
    live = np.arange(R)  # original row of each row still in the batch
    steps = []  # under a tape: (live rows, rows kept after the step or None, saved)
    # each step writes into the first rows of these (the floats one block)
    work = (np.empty((R, P), dtype=bool), *np.empty((3, R, P)))

    k = 0
    while len(live):
        n = len(live)
        cursor = state[2]
        forced = k >= cfg.max_steps and override is None
        noise = None
        if C > 1:
            if mode == "train":
                noise = frozen_noise[k] if frozen_noise is not None else rng.gumbel(size=(R, C))
            elif mode == "soft" and frozen_noise is not None:
                noise = frozen_noise[k]
        noise_record.append(noise)

        decision = None
        if override is not None:
            decision = (o_cat[live, k], o_cont[live, k], o_int[live, k])
        elif forced:
            len_int = P - cursor + 1
            decision = (np.full(n, C - 1, dtype=np.int64), len_int.astype(np.float64), len_int)

        try:
            state, cols, saved = step(model, state, mode, tau,
                                      None if noise is None else noise[live], decision, taped,
                                      tuple(a[:n] for a in work))
        except NumericError as exc:
            raise NumericError(f"schedule step {k}: {exc}") from None
        if records is not None:
            cat_idx, soft, sel, len_int, _, _, d_ctrl, d_time = cols  # mask, segment: work arrays
            records.append(StepRecord(k, live, cursor, cat_idx, soft, sel, len_int, d_ctrl,
                                      d_time, forced))
        k += 1

        # the rows whose cursor has passed the horizon leave the batch
        left = state[2] > P
        keep = None
        if np.any(left):
            gone, keep = np.flatnonzero(left), np.flatnonzero(~left)
            out[live[gone]] = state[1][gone]
            if len(keep):
                state = tuple(x[keep] for x in state)
        if taped:
            steps.append((live, keep, saved))
        if keep is not None:
            live = live[keep]

    return out, steps, noise_record


def schedule_vjp(model: LeapTS, steps: list, g_out: np.ndarray, grads: dict) -> np.ndarray:
    """Reverse pass of `run_schedule_rows` from its saved ``steps``: walks
    them in reverse through `step_vjp`. ``g_out`` is the cotangent of the
    forecast rows; parameter cotangents are added into ``grads``. Returns
    the cotangent of the initial state."""
    cfg, C = model.config, model.anchors.n_categories
    # the last step's rows all leave it, so these zero rows widen to its rows
    g_next = tuple(np.zeros((0, w)) for w in (cfg.hidden_dim, cfg.control_dim, C,
                                               cfg.summary_dim))
    work = (np.empty(g_out.shape, dtype=bool), *np.empty((3, *g_out.shape)))  # as in the loop
    for rows, keep, saved in reversed(steps):
        if keep is not None:
            g_next = tuple(_rows_to([(keep, g)], len(rows), g.shape[1]) for g in g_next)
        g_next = step_vjp(model, saved, g_out[rows], g_next, grads,
                          tuple(a[: len(rows)] for a in work))
    return g_next[0]

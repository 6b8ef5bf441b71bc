"""The scheduling loop: soft-mask segment writing, cursor advancement,
summary feedback, control-signal construction, and cluster-specific
controlled state evolution.

The loop is batched over rows (one row = one variate of one window), and
each row schedules its own path: a row leaves the batch at the end of the
step that carries its cursor past the horizon, with or without a tape, so
every row in a step is still running. Each row runs only its own cluster's
field MLPs. Under a tape every running row runs every segment head so that
the masked sum carries the route gradient; without one, each row runs only
the segment head its routing chose (under hard routing). Each step is
built from the row-batched operations below, one call each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .controller import (
    gumbel_softmax_select,
    length_candidates,
    round_and_clip_rows,
    route_lengths,
)
from .errors import DataError, ShapeError
from .model import LeapTS, _mlp_apply
from .traces import ScheduleTrace, TraceStep, decompose_update

__all__ = [
    "soft_mask",
    "routed_segment",
    "write_segment",
    "summarize_segment",
    "build_control_signal",
    "increments",
    "evolve_state",
    "ClusterAssignment",
    "series_features",
    "cluster_variates",
    "run_schedule_rows",
]


# -- the operations of one scheduling step, batched over rows ---------------


def soft_mask(sel, cursor: np.ndarray, P: int, gamma: float) -> Tensor:
    """Sigmoid gate over the horizon per row [R x P]: exactly 0 before the
    row's cursor (so everywhere on a finished row, cursor P+1), then a
    smooth cutoff ``gamma`` wide centered ``sel`` [R x 1] past the cursor."""
    tau = np.arange(1, P + 1, dtype=np.float64)
    started = tau[None, :] >= cursor[:, None]  # a bool gate multiplies as 0.0/1.0
    offs = tau[None, :] - cursor[:, None].astype(np.float64)
    offs += 0.5
    return ad.gated_sigmoid(sel, offs, 1.0 / gamma, started)


def _take_rows(x, rows: np.ndarray):
    """``x[rows]`` (a recorded ``slice`` node for a Tensor under a tape), or
    ``x`` if ``rows`` is every row."""
    return x if len(rows) == x.shape[0] else x[rows]


def routed_segment(
    model: LeapTS, h: Tensor, route: Tensor, chosen: np.ndarray | None = None
) -> Tensor:
    """Full-horizon segment [R x P]: the sum over categories c of
    route[:, c] * seg_head_c(h). A single category's head is taken as is.

    ``chosen`` [R] gives each row's category when routing is hard (``route``
    one-hot). Without a tape (``h`` carries no gradient) each category's
    head then runs on its own rows only. Under a tape the sum stays: the
    straight-through route gradient of row r and category c is
    seg_head_c(h[r]), so every head's output is needed on every row.
    """
    heads = [(model.store[f"seg_head_{n}_w"], model.store[f"seg_head_{n}_b"])
             for n in model.anchors.category_names()]
    if chosen is not None and not h.requires_grad:
        parts = []
        for c, (w, b) in enumerate(heads):
            rows = np.flatnonzero(chosen == c)
            if len(rows):
                parts.append((rows, ad.linear(_take_rows(h, rows), w, b)))
        return ad.rows_to(parts, h.shape[0], model.config.horizon)
    segment = None
    for c, (w, b) in enumerate(heads):
        seg_c = ad.linear(h, w, b)
        if len(heads) > 1:
            seg_c = ad.mul(seg_c, route[:, c : c + 1])
        segment = seg_c if segment is None else ad.add(segment, seg_c)
    return segment


def write_segment(segment: Tensor, mask: Tensor, accum: Tensor) -> tuple[Tensor, Tensor]:
    """Masked write: returns (accum + segment * mask, segment * mask)."""
    if segment.shape != mask.shape or segment.shape != accum.shape:
        raise ShapeError(
            f"write_segment: shapes {segment.shape}, {mask.shape}, {accum.shape} differ"
        )
    masked = ad.mul(segment, mask)
    return ad.add(accum, masked), masked


def summarize_segment(masked_segment: Tensor, summary_w: Tensor, summary_b: Tensor) -> Tensor:
    """Compress a written segment into a bounded feedback vector."""
    return ad.linear(masked_segment, summary_w, summary_b, "tanh")


def build_control_signal(
    rho,
    prev_len_norm,
    prev_soft,
    prev_summary,
    control_w: Tensor,
    control_b: Tensor,
) -> Tensor:
    """tanh projection of [remaining-horizon ratio, previous normalized
    length, previous scale distribution, previous summary]."""
    parts = []
    for p in (rho, prev_len_norm, prev_soft, prev_summary):
        t = p if isinstance(p, Tensor) else Tensor(np.atleast_2d(p))
        parts.append(t)
    ctx = ad.concat(parts)
    return ad.linear(ctx, control_w, control_b, "tanh")


def increments(u: Tensor, u_prev: Tensor, prev_len_norm, dt_min: float, dt_max: float):
    """Control increment u - u_prev and the clipped temporal increment."""
    if not 0 < dt_min <= dt_max:
        raise ValueError(f"increments: need 0 < dt_min <= dt_max, got ({dt_min}, {dt_max})")
    du = ad.sub(u, u_prev)
    dtau = np.clip(np.asarray(prev_len_norm, dtype=np.float64), dt_min, dt_max)
    return du, dtau


def evolve_state(
    model: LeapTS,
    h: Tensor,
    u: Tensor,
    du: Tensor,
    dtau: np.ndarray,
    row_clusters: np.ndarray,
) -> tuple[Tensor, Tensor, Tensor]:
    """One controlled-Euler step over rows: row r moves by its cluster's
    control field times ``du`` plus its drift field times ``dtau``.

    Each cluster's field MLPs run on that cluster's rows only, on and off
    the tape; ``autodiff.rows_to`` puts their deltas back in row order.

    Returns (h_next, ctrl_delta, time_delta) with
    h_next = h + (ctrl_delta + time_delta).
    """
    inp = ad.concat([h, u])
    ctrl_parts, time_parts = [], []
    for g in range(model.config.n_clusters):
        rows = np.flatnonzero(row_clusters == g)
        if len(rows):
            x = _take_rows(inp, rows)
            fields = _mlp_apply(model.store, f"ctrl_field_g{g}", x, 2)
            drift = _mlp_apply(model.store, f"time_field_g{g}", x, 2)
            ctrl_parts.append((rows, ad.rowwise_matvec(fields, _take_rows(du, rows))))
            time_parts.append((rows, ad.mul(drift, _take_rows(dtau, rows))))
    d_ctrl, d_time = (ad.rows_to(p, *h.shape) for p in (ctrl_parts, time_parts))
    return ad.add(h, ad.add(d_ctrl, d_time)), d_ctrl, d_time


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


def _pack_override(override: list, R: int) -> tuple[np.ndarray, ...]:
    """Per-row (category, len_cont, len_int) sequences as [R x S+1] arrays
    plus the row lengths; the padding column keeps step S addressable."""
    if len(override) != R:
        raise DataError(f"override has {len(override)} rows, expected {R}")
    n_steps = np.array([len(seq) for seq in override], dtype=np.int64)
    width = int(n_steps.max(initial=0)) + 1
    table = np.zeros((R, width, 3))
    table[:, :, 1] = 1.0
    flat = np.asarray([step for seq in override for step in seq], dtype=np.float64)
    rows = np.repeat(np.arange(R), n_steps)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    table[rows, cols] = flat.reshape(-1, 3)
    cats, lens = table[:, :, 0].astype(np.int64), table[:, :, 2].astype(np.int64)
    return cats, table[:, :, 1], lens, n_steps


def run_schedule_rows(
    model: LeapTS,
    h: Tensor,
    row_clusters: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    frozen_noise: list | None = None,
    override: list | None = None,
    trace_meta: tuple | None = None,
    debug: list | None = None,
):
    """Run the scheduling loop for R rows. A row leaves the batch once its
    cursor passes the horizon (a recorded gather under a tape, plain
    indexing without one); outputs are in the original row order.

    ``mode``: "train" (Gumbel noise + hard routing), "eval" (noiseless,
    hard routing), "soft" (noiseless or frozen-noise, fully differentiable
    soft routing; the cursor still advances by rounded integers).

    ``override`` forces decisions: per row, a list of
    (category, len_cont, len_int) tuples consumed one per step.
    ``trace_meta`` = (window_ids, variate_ids, volatilities) enables trace
    collection. ``debug``: a list that receives `StepDebug` records [R x ...];
    a row that has left the batch reads as finished, with its final state.

    Returns (accumulated forecast rows [R x P], traces or None,
    recorded noise list usable as ``frozen_noise``: one [R x C] draw per step).
    """
    if mode not in ("train", "eval", "soft"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    cfg = model.config
    store = model.store
    anchors = model.anchors
    P, C = cfg.horizon, anchors.n_categories
    if mode == "train" and C > 1 and rng is None and frozen_noise is None:
        raise ValueError("train mode needs an rng (or frozen noise) for category selection")
    R = h.shape[0]
    cat_names = anchors.category_names()
    heads = [(store[f"len_head_{n}_w"], store[f"len_head_{n}_b"]) for n in cat_names]
    if override is not None:
        o_cat, o_cont, o_int, o_steps = _pack_override(override, R)

    accum = Tensor(np.zeros((R, P)))
    cursor = np.ones(R, dtype=np.int64)
    prev_u = Tensor(np.zeros((R, cfg.control_dim)))
    prev_soft = Tensor(np.full((R, C), 1.0 / C))
    prev_summary = Tensor(np.zeros((R, cfg.summary_dim)))
    prev_len_norm = np.zeros((R, 1))

    traces = None
    if trace_meta is not None:
        wins, vars_, vols = trace_meta
        traces = [
            ScheduleTrace(window=int(wins[r]), variate=int(vars_[r]), volatility=float(vols[r]))
            for r in range(R)
        ]
    noise_record: list = []
    live = np.arange(R)  # original row of each row still in the batch
    done = []  # (original rows, their forecast rows) of the rows that have left
    h_out = np.zeros(h.shape)  # final states of the rows that have left

    def spread(x, left):  # [R x ...] in original row order, `left` on rows that left
        full = np.array(np.broadcast_to(left, (R,) + x.shape[1:]), dtype=x.dtype)
        full[live] = x
        return full

    k = 0
    while len(live):
        n = len(live)
        forced = k >= cfg.max_steps and override is None
        noise = None

        # high level: scale distribution (also feeds the next control signal)
        if C > 1:
            logits = ad.matmul(h, store["category_proj"])
            if mode == "train":
                noise = frozen_noise[k] if frozen_noise is not None else rng.gumbel(
                    size=(R, C)
                )
            elif mode == "soft" and frozen_noise is not None:
                noise = frozen_noise[k]
            soft, hard = gumbel_softmax_select(
                logits, cfg.gumbel_temp, None if noise is None else noise[live]
            )
        else:
            soft = Tensor(np.ones((n, 1)))
            hard = np.ones((n, 1))
        noise_record.append(noise)

        # low level: advancement length (continuous for the mask, integer
        # for the cursor) and routing vector for the segment heads
        if override is not None or forced:
            if override is not None:
                cat_idx, len_cont, len_int = o_cat[live, k], o_cont[live, k], o_int[live, k]
                rem = P - cursor + 1
                bad = (o_steps[live] <= k) | (len_int < 1) | (len_int > rem)
                if np.any(bad):
                    r = int(np.argmax(bad))
                    if o_steps[live[r]] <= k:
                        raise DataError(f"override for row {live[r]} exhausted at step {k}")
                    raise DataError(
                        f"override length {len_int[r]} outside 1..{rem[r]}"
                        f" (row {live[r]}, step {k})"
                    )
            else:
                cat_idx = np.full(n, C - 1, dtype=np.int64)
                len_int = P - cursor + 1
                len_cont = len_int.astype(np.float64)
            sel = Tensor(len_cont[:, None])
            route_t = Tensor(np.eye(C)[cat_idx])
        else:
            lengths = length_candidates(h, anchors, heads)
            sel, route_t, cat_idx = route_lengths(lengths, soft, hard, mode)
            len_int = round_and_clip_rows(sel.data[:, 0], cursor, P)

        # segment for the selected category, soft-masked into the horizon
        # hard routing: route_t is one-hot and cat_idx names its category
        hard_route = C == 1 or mode != "soft" or override is not None or forced
        segment = routed_segment(model, h, route_t, cat_idx if hard_route else None)
        mask = soft_mask(sel, cursor, P, cfg.mask_temp)
        accum, masked_seg = write_segment(segment, mask, accum)

        # feedback and state evolution (uses the previous step's outcomes)
        summary = summarize_segment(masked_seg, store["summary_w"], store["summary_b"])
        rho = ((P - cursor + 1) / P)[:, None]
        u = build_control_signal(
            rho, prev_len_norm, prev_soft, prev_summary, store["control_w"], store["control_b"]
        )
        du, dtau = increments(u, prev_u, prev_len_norm, cfg.dt_min, cfg.dt_max)
        h_next, d_ctrl, d_time = evolve_state(model, h, u, du, dtau, row_clusters)

        if debug is not None:
            debug.append(
                StepDebug(
                    mask=spread(mask.data, 0.0),
                    segment=spread(segment.data, 0.0),
                    len_int=spread(len_int, 0),
                    cursor_before=spread(cursor, P + 1),
                    h_before=spread(h.data, h_out),
                    h_after=spread(h_next.data, h_out),
                    ctrl_delta=spread(d_ctrl.data, 0.0),
                    time_delta=spread(d_time.data, 0.0),
                    active=spread(np.ones(n, dtype=bool), False),
                )
            )
        if traces is not None:
            ctrl_mags = np.abs(d_ctrl.data).sum(axis=1)
            time_mags = np.abs(d_time.data).sum(axis=1)
            ctrl_ratios, time_ratios = decompose_update(d_ctrl.data, d_time.data)
            columns = (live, cat_idx, soft.data, sel.data[:, 0], len_int, cursor,
                       ctrl_mags, time_mags, ctrl_ratios, time_ratios)
            for r, c, sft, lc, li, cb, cm, tm, cr, tr in zip(*(a.tolist() for a in columns)):
                traces[r].steps.append(TraceStep(
                    k, c, cat_names[c], sft, lc, li, cb, cb + li, cm, tm, cr, tr, forced
                ))

        h = h_next
        prev_u = u
        prev_soft = soft
        prev_summary = summary
        prev_len_norm = (len_int / P)[:, None].astype(np.float64)
        cursor = cursor + len_int
        k += 1

        # the rows whose cursor has passed the horizon leave the batch
        left = cursor > P
        if np.any(left):
            gone, keep = np.flatnonzero(left), np.flatnonzero(~left)
            done.append((live[gone], _take_rows(accum, gone)))
            h_out[live[gone]] = h.data[gone]
            live = live[keep]
            if len(live):
                h, accum, prev_u, prev_soft, prev_summary, prev_len_norm, cursor, row_clusters = (
                    _take_rows(x, keep) for x in (h, accum, prev_u, prev_soft, prev_summary,
                                                  prev_len_norm, cursor, row_clusters)
                )

    return ad.rows_to(done, R, P), traces, noise_record

"""Per-op tape oracle: autodiff primitives that ``leapts`` does not use,
and the whole model composed of them one tape node per operation: the
encoder, the coarse head, the initial state, the scheduling loop, the
fusion gate, ``window_norm`` and the Huber loss, as the model ran before it
became one node with a hand-written reverse pass.

Tests compare the library's one-node model (``forward.forward_rows``, whose
reverse pass runs ``engine.step_vjp`` over the loop) with this
composition: same forecasts, traces and noise, gradients within rounding.
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from leapts.autodiff import Tensor, _record, _stable_sigmoid, huber_loss
from leapts.controller import round_and_clip_rows
from leapts.data import zscore_stats
from leapts.engine import StepRecord, check_override
from leapts.errors import ConfigError, NumericError, ShapeError
from leapts.forward import _rows_from_batch, _trace_rows
from leapts.model import LeapTS
from leapts.traces import build_traces


# -- primitives --------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record_pre(op: str, out_data, parents, fn, pre) -> Tensor:
    """`_record` for an op that scans its pre-activation, not its result: a
    saturating function would map an overflow to a finite value."""
    if not np.all(np.isfinite(pre)):
        raise NumericError(f"{op}: non-finite values in pre-activation")
    return _record(op, out_data, parents, fn, scan=False)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "add",
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "mul",
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def linear(x, w, b, act=None) -> Tensor:
    """Dense layer ``act(x @ w + b)`` as one node; ``act`` is None or "tanh".

    ``x`` is [R x n], ``w`` [n x m] and ``b`` [m]. The backward makes the
    numpy calls of ``tanh(add(matmul(x, w), b))`` in the same order, so its
    gradients equal the composition's bit for bit. With tanh the pre-activation
    is scanned, as tanh would saturate an overflow to a finite value.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if act not in (None, "tanh"):
        raise ValueError(f"linear: act must be None or 'tanh', got {act!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} not aligned")
    pre = x.data @ w.data
    pre += b.data
    y = np.tanh(pre) if act == "tanh" else pre

    def fn(g):
        if act == "tanh":
            g = g * (1.0 - y * y)
        return (g @ w.data.T, x.data.T @ g, g.sum(axis=0))

    if act == "tanh":
        return _record_pre("linear", y, (x, w, b), fn, pre)
    return _record("linear", y, (x, w, b), fn)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _stable_sigmoid(a.data)
    return _record("sigmoid", y, (a,), lambda g: (g * y * (1.0 - y),))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "sub",
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} not aligned")
    out = a.data @ b.data
    return _record(
        "matmul",
        out,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _record("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def gated_sigmoid(sel, offs, scale: float, gate) -> Tensor:
    """``gate * sigmoid((sel - offs) * scale)`` as one node.

    ``sel`` is the only differentiable input; ``offs`` and ``gate`` are
    constant arrays that broadcast with it. The forward and backward make
    the numpy calls of ``mul(sigmoid(mul(sub(sel, offs), scale)), gate)`` in
    the same order, so values and gradients equal the composition's bit for
    bit. The pre-activation is scanned, as each op of the composition was.
    """
    sel = _as_tensor(sel)
    try:
        z = sel.data - offs
    except ValueError:
        raise ShapeError(
            f"gated_sigmoid: cannot broadcast {sel.shape} with {np.shape(offs)}"
        ) from None
    z *= scale
    y = _stable_sigmoid(z)

    def fn(g):
        return (_unbroadcast(g * gate * y * (1.0 - y) * scale, sel.shape),)

    return _record_pre("gated_sigmoid", y * gate, (sel,), fn, z)


def softmax(a) -> Tensor:
    """Softmax along the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", y, (a,), fn)


def concat(tensors) -> Tensor:
    """Concatenate along the last axis."""
    ts = [_as_tensor(t) for t in tensors]
    base = ts[0].shape[:-1]
    for t in ts[1:]:
        if t.shape[:-1] != base:
            raise ShapeError(f"concat: leading dims differ: {[t.shape for t in ts]}")
    out = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]

    def fn(g):
        grads, start = [], 0
        for w in widths:
            grads.append(g[..., start : start + w])
            start += w
        return tuple(grads)

    return _record("concat", out, tuple(ts), fn, scan=False)


def rows_to(parts, n: int, width: int) -> Tensor:
    """[n x width] zeros with each ``(rows, tensor)`` part put at its (disjoint)
    ``rows``; backward hands each part its rows of the gradient. A single
    part that covers all n rows is returned as is."""
    if len(parts) == 1 and len(parts[0][0]) == n:
        return parts[0][1]
    out = np.zeros((n, width))
    for rows, t in parts:
        out[rows] = t.data
    parents = tuple(t for _, t in parts)
    return _record("rows_to", out, parents, lambda g: tuple(g[r] for r, _ in parts), scan=False)


def tslice(a, idx) -> Tensor:
    """Basic or non-repeating integer indexing; backward scatters into zeros."""
    a = _as_tensor(a)
    out = a.data[idx]
    shape = a.shape

    def fn(g):
        buf = np.zeros(shape)
        buf[idx] = g
        return (buf,)

    return _record("slice", np.array(out, copy=True), (a,), fn, scan=False)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", np.asarray(out), (a,), fn)


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Forward emits ``hard`` exactly; backward passes gradients to ``soft``.

    ``hard`` must be shape-equal to ``soft`` (typically a one-hot built
    from soft's argmax). Used for discrete routing that must stay exact
    in the forward pass while keeping a dense gradient path.
    """
    soft = _as_tensor(soft)
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through: {hard.shape} vs {soft.shape}")
    return _record("straight_through", hard.copy(), (soft,), lambda g: (g,), scan=False)


def rowwise_matvec(fields: Tensor, vec: Tensor) -> Tensor:
    """Per-row matrix-vector product.

    ``fields`` is [R, m*n] (each row a flattened m-by-n matrix), ``vec``
    is [R, n]; the result is [R, m] with out[r] = fields[r] @ vec[r].
    """
    fields, vec = _as_tensor(fields), _as_tensor(vec)
    if fields.ndim != 2 or vec.ndim != 2 or fields.shape[0] != vec.shape[0]:
        raise ShapeError(f"rowwise_matvec: shapes {fields.shape} and {vec.shape}")
    r, n = vec.shape
    if fields.shape[1] % n:
        raise ShapeError(f"rowwise_matvec: {fields.shape[1]} not divisible by {n}")
    m = fields.shape[1] // n
    f3 = fields.data.reshape(r, m, n)
    out = np.einsum("rmn,rn->rm", f3, vec.data)

    def fn(g):
        gf = np.einsum("rm,rn->rmn", g, vec.data).reshape(r, m * n)
        gv = np.einsum("rmn,rm->rn", f3, g)
        return (gf, gv)

    return _record("rowwise_matvec", out, (fields, vec), fn)


def detach(a: Tensor) -> Tensor:
    """Leaf copy of the value; gradients never flow through it."""
    return Tensor(a.data.copy())


def _mlp_apply(store, prefix, x: Tensor, n_layers: int) -> Tensor:
    for i in range(n_layers):
        act = "tanh" if i < n_layers - 1 else None
        x = linear(x, store[f"{prefix}_w{i}"], store[f"{prefix}_b{i}"], act)
    return x


# -- the scheduling loop, one tape node per operation --------------------------


def gumbel_softmax_select(
    logits: Tensor,
    tau: float,
    noise: np.ndarray | None,
) -> tuple[Tensor, np.ndarray]:
    """Soft distribution and hard one-hot from category logits [R x C].

    ``noise`` is a Gumbel(0,1) sample of the same shape, or None for
    noiseless (evaluation) selection. Hard selection is argmax of the
    soft distribution, lowest index winning ties.
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {tau}")
    scores = logits if noise is None else add(logits, noise)
    soft = softmax(mul(scores, 1.0 / tau))
    hard = np.eye(soft.shape[-1])[soft.data.argmax(axis=-1)]
    return soft, hard


def length_candidates(h: Tensor, anchors: ScaleAnchors, length_heads) -> Tensor:
    """Continuous length per category, [R x C]; sigmoid-mapped into each interval."""
    cols = []
    for c in range(anchors.n_categories):
        w, b = length_heads[c]
        raw = linear(h, w, b)
        lo, hi = float(anchors.mins[c]), float(anchors.maxs[c])
        cols.append(add(mul(sigmoid(raw), hi - lo), lo))
    return cols[0] if len(cols) == 1 else concat(cols)


def route_lengths(
    lengths: Tensor, soft: Tensor, hard: np.ndarray, mode: str
) -> tuple[Tensor, Tensor, np.ndarray]:
    """Executed continuous length [R x 1], segment routing [R x C] and the
    chosen category per row, from the per-category lengths [R x C].

    "soft" mode mixes the lengths by the scale distribution; the other
    modes route through the hard choice with straight-through gradients to
    ``soft``. A single category's length is taken as is.
    """
    if lengths.shape[1] == 1:
        return lengths, soft, np.zeros(lengths.shape[0], dtype=np.int64)
    if mode == "soft":
        route, chosen = soft, soft.data.argmax(axis=-1)
    else:
        route, chosen = straight_through(soft, hard), hard.argmax(axis=-1)
    return tsum(mul(lengths, route), axis=-1, keepdims=True), route, chosen


def soft_mask(sel, cursor: np.ndarray, P: int, gamma: float) -> Tensor:
    """Sigmoid gate over the horizon per row [R x P]: exactly 0 before the
    row's cursor (so everywhere on a finished row, cursor P+1), then a
    smooth cutoff ``gamma`` wide centered ``sel`` [R x 1] past the cursor."""
    tau = np.arange(1, P + 1, dtype=np.float64)
    started = tau[None, :] >= cursor[:, None]  # a bool gate multiplies as 0.0/1.0
    offs = tau[None, :] - cursor[:, None].astype(np.float64)
    offs += 0.5
    return gated_sigmoid(sel, offs, 1.0 / gamma, started)


def _take_rows(x, rows: np.ndarray):
    """``x[rows]`` (a recorded ``slice`` node for a Tensor under a tape), or
    ``x`` if ``rows`` is every row."""
    if len(rows) == x.shape[0]:
        return x
    return tslice(x, rows) if isinstance(x, Tensor) else x[rows]


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
                parts.append((rows, linear(_take_rows(h, rows), w, b)))
        return rows_to(parts, h.shape[0], model.config.horizon)
    segment = None
    for c, (w, b) in enumerate(heads):
        seg_c = linear(h, w, b)
        if len(heads) > 1:
            seg_c = mul(seg_c, tslice(route, (slice(None), slice(c, c + 1))))
        segment = seg_c if segment is None else add(segment, seg_c)
    return segment


def write_segment(segment: Tensor, mask: Tensor, accum: Tensor) -> tuple[Tensor, Tensor]:
    """Masked write: returns (accum + segment * mask, segment * mask)."""
    if segment.shape != mask.shape or segment.shape != accum.shape:
        raise ShapeError(
            f"write_segment: shapes {segment.shape}, {mask.shape}, {accum.shape} differ"
        )
    masked = mul(segment, mask)
    return add(accum, masked), masked


def summarize_segment(masked_segment: Tensor, summary_w: Tensor, summary_b: Tensor) -> Tensor:
    """Compress a written segment into a bounded feedback vector."""
    return linear(masked_segment, summary_w, summary_b, "tanh")


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
    ctx = concat(parts)
    return linear(ctx, control_w, control_b, "tanh")


def increments(u: Tensor, u_prev: Tensor, prev_len_norm, dt_min: float, dt_max: float):
    """Control increment u - u_prev and the clipped temporal increment."""
    if not 0 < dt_min <= dt_max:
        raise ValueError(f"increments: need 0 < dt_min <= dt_max, got ({dt_min}, {dt_max})")
    du = sub(u, u_prev)
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
    inp = concat([h, u])
    ctrl_parts, time_parts = [], []
    for g in range(model.config.n_clusters):
        rows = np.flatnonzero(row_clusters == g)
        if len(rows):
            x = _take_rows(inp, rows)
            fields = _mlp_apply(model.store, f"ctrl_field_g{g}", x, 2)
            drift = _mlp_apply(model.store, f"time_field_g{g}", x, 2)
            ctrl_parts.append((rows, rowwise_matvec(fields, _take_rows(du, rows))))
            time_parts.append((rows, mul(drift, _take_rows(dtau, rows))))
    d_ctrl, d_time = (rows_to(p, *h.shape) for p in (ctrl_parts, time_parts))
    return add(h, add(d_ctrl, d_time)), d_ctrl, d_time


def run_schedule_rows(
    model: LeapTS,
    h: Tensor,
    row_clusters: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    frozen_noise: list | None = None,
    override: tuple | None = None,
    records: list | None = None,
    gumbel_temp: float | None = None,
):
    """Run the scheduling loop for R rows. A row leaves the batch once its
    cursor passes the horizon (a recorded gather under a tape, plain
    indexing without one); outputs are in the original row order.

    ``mode``: "train" (Gumbel noise + hard routing), "eval" (noiseless,
    hard routing), "soft" (noiseless or frozen-noise, fully differentiable
    soft routing; the cursor still advances by rounded integers).

    ``override`` forces decisions: three [R x S] arrays (category,
    len_cont, len_int), checked by `engine.check_override` before the first
    step. ``records``: a list that receives one `engine.StepRecord` per step.

    Returns (accumulated forecast rows [R x P], recorded noise list usable
    as ``frozen_noise``: one [R x C] draw per step).
    """
    if mode not in ("train", "eval", "soft"):
        raise ConfigError(f"unknown schedule mode {mode!r}")
    cfg = model.config
    store = model.store
    anchors = model.anchors
    P, C = cfg.horizon, anchors.n_categories
    if mode == "train" and C > 1 and rng is None and frozen_noise is None:
        raise ConfigError("train mode needs an rng (or frozen noise) for category selection")
    R = h.shape[0]
    cat_names = anchors.category_names()
    heads = [(store[f"len_head_{n}_w"], store[f"len_head_{n}_b"]) for n in cat_names]
    if override is not None:
        o_cat, o_cont, o_int = check_override(override, R, P, C)

    accum = Tensor(np.zeros((R, P)))
    cursor = np.ones(R, dtype=np.int64)
    prev_u = Tensor(np.zeros((R, cfg.control_dim)))
    prev_soft = Tensor(np.full((R, C), 1.0 / C))
    prev_summary = Tensor(np.zeros((R, cfg.summary_dim)))
    prev_len_norm = np.zeros((R, 1))

    noise_record: list = []
    live = np.arange(R)  # original row of each row still in the batch
    done = []  # (original rows, their forecast rows) of the rows that have left

    k = 0
    while len(live):
        n = len(live)
        forced = k >= cfg.max_steps and override is None
        noise = None

        # high level: scale distribution (also feeds the next control signal)
        if C > 1:
            logits = matmul(h, store["category_proj"])
            if mode == "train":
                noise = frozen_noise[k] if frozen_noise is not None else rng.gumbel(
                    size=(R, C)
                )
            elif mode == "soft" and frozen_noise is not None:
                noise = frozen_noise[k]
            soft, hard = gumbel_softmax_select(
                logits, cfg.gumbel_temp if gumbel_temp is None else gumbel_temp,
                None if noise is None else noise[live]
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

        if records is not None:
            records.append(StepRecord(k, live, cursor, cat_idx, soft.data, sel.data, len_int,
                                      d_ctrl.data, d_time.data, forced))

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
            live = live[keep]
            if len(live):
                h, accum, prev_u, prev_soft, prev_summary, prev_len_norm, cursor, row_clusters = (
                    _take_rows(x, keep) for x in (h, accum, prev_u, prev_soft, prev_summary,
                                                  prev_len_norm, cursor, row_clusters)
                )

    return rows_to(done, R, P), noise_record



# -- the whole model, one tape node per operation ------------------------------


def forward_rows(
    model: LeapTS,
    inputs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    frozen_noise=None,
    override=None,
    traces_from=None,
    debug=None,
    gumbel_temp=None,
):
    """``forward.forward_rows`` composed of the primitives above: the same
    arguments and outputs, with every row tensor a per-op tape node."""
    cfg, store = model.config, model.store
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[1:] != (cfg.look_back, cfg.n_variates):
        raise ShapeError(
            f"forward: expected [B x {cfg.look_back} x {cfg.n_variates}], got {inputs.shape}"
        )
    if not np.all(np.isfinite(inputs)):
        raise NumericError("forward: non-finite values in input batch")
    b = inputs.shape[0]
    hist = _rows_from_batch(inputs)

    if cfg.window_norm:
        mu, sd = zscore_stats(hist, axis=1)
        hist = (hist - mu) / sd
    else:
        mu = sd = None

    z = _mlp_apply(store, "enc", Tensor(hist), len(cfg.enc_hidden) + 1)
    coarse = linear(z, store["coarse_w"], store["coarse_b"])

    traces, noise = None, None
    if model.ablation == "no_sched":
        sched = Tensor(np.zeros((b * cfg.n_variates, cfg.horizon)))
        fused = coarse
    else:
        h1 = linear(z, store["state_init_w"], store["state_init_b"], "tanh")
        row_clusters = np.tile(model.cluster_of_variate, b)
        records = [] if debug is None and traces_from is not None else debug
        sched, noise = run_schedule_rows(
            model, h1, row_clusters, mode=mode, rng=rng, frozen_noise=frozen_noise,
            override=override, records=records, gumbel_temp=gumbel_temp,
        )
        if traces_from is not None:
            traces = build_traces(records, _trace_rows(inputs, traces_from),
                                  model.anchors.category_names())
        fused = add(coarse, mul(sched, sigmoid(store["fuse_logit"])))

    if cfg.window_norm:
        coarse = add(mul(coarse, sd), mu)
        sched = mul(sched, sd)
        fused = add(mul(fused, sd), mu)

    return {"coarse": coarse, "sched": sched, "fused": fused, "traces": traces, "noise": noise}


def forward_loss(model: LeapTS, inputs, targets, mode="train", rng=None, delta=1.0,
                 frozen_noise=None, gumbel_temp=None):
    """Huber loss of the per-op model's fused forecast against targets [B x P x N]."""
    out = forward_rows(model, inputs, mode=mode, rng=rng, frozen_noise=frozen_noise,
                       gumbel_temp=gumbel_temp)
    target_rows = _rows_from_batch(np.asarray(targets, dtype=np.float64))
    return huber_loss(out["fused"], Tensor(target_rows), delta=delta), out

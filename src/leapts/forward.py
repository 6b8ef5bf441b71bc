"""End-to-end forward passes: batched training/eval paths and the
single-window forecasting surface.

Rows are ordered window-major: row = window * n_variates + variate; given
the first window's id, `_trace_rows` derives each row's trace ids and
volatility. With ``window_norm`` each row is standardized by its own
look-back statistics and predictions are mapped back to the original
scale inside the model.

Under a tape the whole model is one node, written as array code with one
hand-written reverse pass: the encoder, the coarse head, the initial state,
the scheduling loop (`engine.schedule_vjp`) and the fusion gate.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _stable_sigmoid
from .data import zscore_stats
from .engine import _dense_vjp, run_schedule_rows, schedule_vjp
from .errors import NumericError, ShapeError
from .model import ForecastPair, LeapTS, _check
from .traces import build_traces

__all__ = ["forward_rows", "forward_loss", "forecast", "predict_batch"]


def _rows_from_batch(batch: np.ndarray) -> np.ndarray:
    """[B x T x N] -> [B*N x T], window-major."""
    b, t, n = batch.shape
    return np.ascontiguousarray(batch.transpose(0, 2, 1).reshape(b * n, t))


def _batch_from_rows(rows: np.ndarray, b: int, n: int) -> np.ndarray:
    return rows.reshape(b, n, -1).transpose(0, 2, 1)


def _trace_rows(inputs: np.ndarray, first_window: int):
    """(window ids from ``first_window``, variate ids, volatilities: the std
    of the look-back's first differences, 0 when a one-point look-back has
    none) of a batch [B x L x N]'s rows."""
    b, look_back, n = inputs.shape
    vols = np.diff(inputs, axis=1).std(axis=1) if look_back > 1 else np.zeros((b, n))
    return (np.repeat(np.arange(first_window, first_window + b), n), np.tile(np.arange(n), b),
            vols.reshape(-1))


def forward_rows(
    model: LeapTS,
    inputs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    frozen_noise=None,
    override=None,
    traces_from: int | None = None,
    debug=None,
    gumbel_temp=None,
):
    """Run the full model on a window batch [B x L x N]; ``gumbel_temp`` is
    the Gumbel softmax temperature (None: the config's). ``override`` forces
    the schedules: three [B*N x S] arrays (category, len_cont, len_int), one
    row per batch row, as `engine.run_schedule_rows` takes them.

    ``traces_from``, the id of the batch's first window, asks for one
    schedule trace per row. ``debug``: a list that receives the scheduling
    loop's `engine.StepRecord`s, one per step, over the rows that ran it
    (the keyword keeps the name benchmarks/train_desk.py passes).

    Returns a dict with row tensors ``coarse``, ``sched``, ``fused``
    ([B*N x P]) plus ``traces`` (None without ``traces_from``) and ``noise``
    from the scheduling loop. Under a tape ``fused`` is the output of the
    model's one node, whose parents are the parameters.
    """
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

    acts = model.encode_rows(hist)
    z = acts[-1]
    coarse = model.coarse_rows(z)

    h1 = traces = noise = None
    if model.ablation == "no_sched":
        sched = np.zeros((b * cfg.n_variates, cfg.horizon))
        fused = coarse
    else:
        h1 = model.init_state_rows(z)
        row_clusters = np.tile(model.cluster_of_variate, b)
        records = [] if debug is None and traces_from is not None else debug
        sched, steps, noise = run_schedule_rows(
            model, h1, row_clusters, mode=mode, rng=rng, frozen_noise=frozen_noise,
            override=override, records=records, gumbel_temp=gumbel_temp)
        if traces_from is not None:
            traces = build_traces(records, _trace_rows(inputs, traces_from),
                                  model.anchors.category_names())
        fused = model.fuse(coarse, sched)
    loop_out = sched

    if cfg.window_norm:
        coarse = coarse * sd + mu
        _check("rescaled coarse forecast", coarse)
        sched = sched * sd
        _check("rescaled scheduled forecast", sched)
        fused = fused * sd + mu
        _check("rescaled fused forecast", fused)

    def backward(g):
        # sums in the order of the per-op composition (tests/tape_ops.py), so
        # the bits match it: the gate's two reductions, z's two parts
        grads = {}
        if cfg.window_norm:
            g = g * sd
        g_z = _dense_vjp(grads, store, "coarse_", z, None, g)
        if h1 is not None:
            gate = _stable_sigmoid(store["fuse_logit"].data)
            g_gate = (g * loop_out).sum(axis=0).sum(axis=0, keepdims=True)
            grads["fuse_logit"] = g_gate * gate * (1.0 - gate)
            g_h1 = schedule_vjp(model, steps, g * gate, grads)
            g_z = _dense_vjp(grads, store, "state_init_", z, h1, g_h1, tanh=True) + g_z
        for i in reversed(range(len(acts))):
            x = hist if i == 0 else acts[i - 1]
            g_z = _dense_vjp(grads, store, "enc_", x, acts[i], g_z, tanh=i < len(acts) - 1,
                             layer=str(i), dx=i > 0)  # nothing reads the histories' cotangent
        return tuple(grads.get(name) for name in store.params)

    fused = ad._record("model", fused, tuple(store.params.values()), backward, scan=False)
    return {"coarse": Tensor(coarse), "sched": Tensor(sched), "fused": fused, "traces": traces,
            "noise": noise}


def forward_loss(
    model: LeapTS,
    inputs: np.ndarray,
    targets: np.ndarray,
    mode: str = "train",
    rng=None,
    delta: float = 1.0,
    frozen_noise=None,
    gumbel_temp=None,
):
    """Huber loss of the fused forecast against targets [B x P x N]."""
    out = forward_rows(model, inputs, mode=mode, rng=rng, frozen_noise=frozen_noise,
                       gumbel_temp=gumbel_temp)
    target_rows = _rows_from_batch(np.asarray(targets, dtype=np.float64))
    return ad.huber_loss(out["fused"], Tensor(target_rows), delta=delta), out


def forecast(
    model: LeapTS,
    window: np.ndarray,
    collect_traces: bool = False,
    window_id: int = 0,
) -> tuple[ForecastPair, list | None]:
    """Forecast one window [L x N] in eval mode; returns ([P x N] pair, traces)."""
    window = np.asarray(window, dtype=np.float64)
    out = forward_rows(model, window[None], traces_from=window_id if collect_traces else None)

    def unbatch(t):
        return _batch_from_rows(t.data, 1, model.config.n_variates)[0]

    pair = ForecastPair(
        coarse=unbatch(out["coarse"]),
        sched=unbatch(out["sched"]),
        fused=unbatch(out["fused"]),
        alpha=model.alpha,
    )
    return pair, out["traces"]


def predict_batch(
    model: LeapTS,
    inputs: np.ndarray,
    override=None,
    traces_from: int | None = None,
) -> tuple[np.ndarray, list | None]:
    """Fused eval-mode forecasts [B x P x N] for a window batch (no tape
    needed), and its schedule traces when ``traces_from`` gives the first
    window's id. ``override``: the schedules to force, as in `forward_rows`;
    a trace's steps replay as its row's ``category``, ``len_cont`` and
    ``len_int``."""
    out = forward_rows(model, inputs, override=override, traces_from=traces_from)
    b, n = inputs.shape[0], model.config.n_variates
    return _batch_from_rows(out["fused"].data, b, n), out["traces"]

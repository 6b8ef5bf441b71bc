"""End-to-end forward passes: batched training/eval paths and the
single-window forecasting surface.

Rows are ordered window-major: row = window * n_variates + variate. With
``window_norm`` each row is standardized by its own look-back statistics
and predictions are mapped back to the original scale inside the graph.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import zscore_stats
from .engine import run_schedule_rows
from .errors import NumericError, ShapeError
from .model import ForecastPair, LeapTS

__all__ = ["forward_rows", "forward_loss", "forecast", "predict_batch"]


def _rows_from_batch(batch: np.ndarray) -> np.ndarray:
    """[B x T x N] -> [B*N x T], window-major."""
    b, t, n = batch.shape
    return np.ascontiguousarray(batch.transpose(0, 2, 1).reshape(b * n, t))


def _batch_from_rows(rows: np.ndarray, b: int, n: int) -> np.ndarray:
    return rows.reshape(b, n, -1).transpose(0, 2, 1)


def forward_rows(
    model: LeapTS,
    inputs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    frozen_noise=None,
    override=None,
    trace_meta=None,
    debug=None,
    gumbel_temp=None,
):
    """Run the full model on a window batch [B x L x N]; ``gumbel_temp`` is
    the Gumbel softmax temperature (None: the config's).

    Returns a dict with row tensors ``coarse``, ``sched``, ``fused``
    ([B*N x P]) plus ``traces`` and ``noise`` from the scheduling loop.
    """
    cfg = model.config
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

    z = model.encode_rows(Tensor(hist))
    coarse = model.coarse_rows(z)

    traces, noise = None, None
    if model.ablation == "no_sched":
        sched = Tensor(np.zeros((b * cfg.n_variates, cfg.horizon)))
        fused = coarse
    else:
        h1 = model.init_state_rows(z)
        row_clusters = np.tile(model.cluster_of_variate, b)
        sched, traces, noise = run_schedule_rows(
            model,
            h1,
            row_clusters,
            mode=mode,
            rng=rng,
            frozen_noise=frozen_noise,
            override=override,
            trace_meta=trace_meta,
            debug=debug,
            gumbel_temp=gumbel_temp,
        )
        fused = model.fuse(coarse, sched)

    if cfg.window_norm:
        coarse = ad.add(ad.mul(coarse, sd), mu)
        sched = ad.mul(sched, sd)
        fused = ad.add(ad.mul(fused, sd), mu)

    return {"coarse": coarse, "sched": sched, "fused": fused, "traces": traces, "noise": noise}


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
    mode: str = "eval",
    rng=None,
    collect_traces: bool = False,
    window_id: int = 0,
) -> tuple[ForecastPair, list | None]:
    """Forecast one window [L x N]; returns ([P x N] pair, traces)."""
    window = np.asarray(window, dtype=np.float64)
    meta = None
    if collect_traces:
        n = model.config.n_variates
        vols = window[1:] - window[:-1]
        meta = (np.full(n, window_id), np.arange(n), vols.std(axis=0))
    out = forward_rows(model, window[None], mode=mode, rng=rng, trace_meta=meta)

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
    mode: str = "eval",
    rng=None,
    override=None,
    trace_meta=None,
) -> tuple[np.ndarray, list | None]:
    """Fused forecasts [B x P x N] for a window batch (no tape needed)."""
    out = forward_rows(model, inputs, mode=mode, rng=rng, override=override, trace_meta=trace_meta)
    b, n = inputs.shape[0], model.config.n_variates
    return _batch_from_rows(out["fused"].data, b, n), out["traces"]

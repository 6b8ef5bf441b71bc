"""Forecast accuracy metrics.

MSE and MAE average over every forecast entry. SMAPE uses the x200
convention with 0/0 terms contributing zero. MASE scales the forecast MAE
by the mean absolute seasonal difference of the look-back history; the
seasonality ``s`` is a per-dataset configuration value. OWA needs
caller-supplied reference SMAPE/MASE values for the seasonal naive
benchmark (those references are inputs, not computed here). Multivariate
inputs are scored per variate and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

__all__ = ["MetricReport", "mse", "mae", "smape", "mape", "mase", "metrics"]


@dataclass
class MetricReport:
    mse: float
    mae: float
    smape: float | None = None
    mape: float | None = None
    mase: float | None = None
    owa: float | None = None
    per_horizon_mse: list[float] = field(default_factory=list)
    per_horizon_mae: list[float] = field(default_factory=list)


def _check_pair(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"metrics: prediction {pred.shape} vs truth {truth.shape}")
    return pred, truth


def mse(pred, truth) -> float:
    pred, truth = _check_pair(pred, truth)
    return float(((pred - truth) ** 2).mean())


def mae(pred, truth) -> float:
    pred, truth = _check_pair(pred, truth)
    return float(np.abs(pred - truth).mean())


def smape(pred, truth) -> float:
    """Symmetric MAPE in [0, 200]; terms with |y| + |yhat| = 0 contribute 0."""
    pred, truth = _check_pair(pred, truth)
    denom = np.abs(truth) + np.abs(pred)
    num = 200.0 * np.abs(truth - pred)
    terms = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return float(terms.mean())


def mape(pred, truth) -> float:
    pred, truth = _check_pair(pred, truth)
    if np.any(truth == 0):
        raise DataError("mape: ground truth contains zeros")
    return float((100.0 * np.abs(truth - pred) / np.abs(truth)).mean())


def _mase_denoms(history: np.ndarray, s: int) -> np.ndarray:
    if s < 1:
        raise DataError(f"mase: seasonality must be >= 1, got {s}")
    if history.shape[0] <= s:
        raise DataError(f"mase: history length {history.shape[0]} <= seasonality {s}")
    return np.abs(history[s:] - history[:-s]).mean(axis=0)


def mase(pred, truth, history, s: int = 1) -> float:
    """Mean absolute scaled error, averaged across variates."""
    pred, truth = _check_pair(pred, truth)
    history = np.asarray(history, dtype=np.float64)
    if pred.ndim == 1:
        pred, truth, history = pred[:, None], truth[:, None], history[:, None]
    denoms = _mase_denoms(history, s)
    if np.any(denoms <= 0):
        raise DataError("mase: zero scaling denominator (constant history)")
    scaled = np.abs(truth - pred).mean(axis=0) / denoms
    return float(scaled.mean())


def metrics(
    pred,
    truth,
    history,
    s: int = 1,
    smape_ref: float | None = None,
    mase_ref: float | None = None,
) -> MetricReport:
    """Full report for one window: pred/truth [P x N], history [L x N].

    OWA is included only when both reference values are given.
    """
    pred, truth = _check_pair(pred, truth)
    report = MetricReport(
        mse=mse(pred, truth),
        mae=mae(pred, truth),
        smape=smape(pred, truth),
        mape=mape(pred, truth),
        mase=mase(pred, truth, history, s=s),
        per_horizon_mse=((pred - truth) ** 2).mean(axis=-1).tolist()
        if pred.ndim > 1
        else ((pred - truth) ** 2).tolist(),
        per_horizon_mae=np.abs(pred - truth).mean(axis=-1).tolist()
        if pred.ndim > 1
        else np.abs(pred - truth).tolist(),
    )
    if smape_ref is not None and mase_ref is not None:
        if smape_ref <= 0 or mase_ref <= 0:
            raise DataError("owa: reference values must be positive")
        report.owa = 0.5 * (report.smape / smape_ref + report.mase / mase_ref)
    return report

"""Training loop: batched Huber-loss optimization with Adam, validation
early stopping, divergence recovery, and the ablation variants; and the one
batched forecast pass (`_forecast_pass`) that `evaluate`, `evaluate_full`
and `diagnostics.trace_override` share. It calls ``predict_batch`` through
this module's global, the name the benchmark rebinds to time forecasts."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape
from .data import Dataset, WindowBatch, make_windows, zscore_stats
from .engine import cluster_variates
from .errors import ConfigError, DataError, NumericError
from .forward import forward_loss, predict_batch
from .metrics import MetricReport
from .model import ABLATIONS, LeapTS, _check_types
from .optim import adam_step

__all__ = [
    "TrainConfig",
    "TrainReport",
    "train",
    "ablate",
    "apply_data_norm",
    "evaluate",
    "evaluate_full",
]


@dataclass
class TrainConfig:
    lr: float = 2e-3
    batch_size: int = 64
    max_epochs: int = 30
    patience: int = 5
    huber_delta: float = 1.0
    seed: int = 0
    ablation: str = "none"
    normalize: bool = True  # z-score the dataset by train-split statistics
    stride: int = 1
    gumbel_tau_end: float | None = None  # linear anneal target for the Gumbel temperature
    max_batches_per_epoch: int | None = None

    def __post_init__(self):
        ints = ("batch_size", "max_epochs", "patience", "seed", "stride", "max_batches_per_epoch")
        _check_types(self, ints[:-1] if self.max_batches_per_epoch is None else ints, ("normalize",))
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 0 < self.huber_delta < np.inf:
            raise ConfigError(f"huber_delta must be positive and finite, got {self.huber_delta}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.gumbel_tau_end is not None and not self.gumbel_tau_end > 0:
            raise ConfigError(f"gumbel_tau_end must be positive, got {self.gumbel_tau_end}")
        if self.max_batches_per_epoch is not None and self.max_batches_per_epoch < 1:
            raise ConfigError(
                f"max_batches_per_epoch must be >= 1, got {self.max_batches_per_epoch}"
            )


@dataclass
class TrainReport:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    test: MetricReport | None = None
    wall_clock_s: float = 0.0
    diverged: bool = False
    divergence: str | None = None  # where and why: epoch, batch or validation, failing op
    early_stopped: bool = False


def ablate(model: LeapTS, flag: str) -> LeapTS:
    """Variant of ``model`` with the scheduling machinery reduced.

    Parameters present in both architectures are copied from ``model``,
    so ablating a trained model keeps its trained shared weights: the
    ``no_sched`` variant's forward equals the source model's coarse
    branch exactly (the fusion gate is structurally forced to zero).
    Parameters the variant adds (e.g. the single-level heads of
    ``no_high_level``) keep their seed initialization.
    """
    variant = LeapTS(model.config, ablation=flag)
    for name, t in variant.store.params.items():
        if name in model.store:
            t.data = model.store[name].data.copy()
    variant.cluster_of_variate = model.cluster_of_variate.copy()
    variant.data_norm = model.data_norm
    return variant


def apply_data_norm(dataset: Dataset, data_norm) -> Dataset:
    """``dataset`` z-scored by ``data_norm`` = (mean, std) per variate; every
    other field is kept."""
    mu, sd = data_norm
    return replace(dataset, values=(dataset.values - mu) / sd)


def _normalized_dataset(dataset: Dataset):
    lo, hi = dataset.split_bounds("train")
    mu, sd = zscore_stats(dataset.values[lo:hi], axis=0)
    norm = (mu[0], sd[0])  # one mean and std per variate
    return apply_data_norm(dataset, norm), norm


def _epoch_loss(model, windows: WindowBatch, delta: float, gumbel_temp=None,
                batch: int = 256) -> float:
    total, count = 0.0, 0
    for lo in range(0, windows.n_windows, batch):
        hi = min(lo + batch, windows.n_windows)
        loss, _ = forward_loss(
            model, windows.inputs[lo:hi], windows.targets[lo:hi], mode="eval", delta=delta,
            gumbel_temp=gumbel_temp,
        )
        total += loss.item() * (hi - lo)
        count += hi - lo
    return total / count


def _forecast_pass(model: LeapTS, windows: WindowBatch, batch: int, traces: list | None = None,
                   override=None, each_batch=None) -> MetricReport:
    """The one evaluation pass: forecast ``windows`` in batches of ``batch``
    through ``predict_batch`` and pool MSE/MAE and their per-horizon curves.
    ``traces``: a list that receives each row's schedule trace. ``override``:
    one forced schedule per row, window-major. ``each_batch(lo, preds)``
    sees each batch's forecasts [b x P x N], ``lo`` its first window."""
    if traces is not None and model.ablation == "no_sched":
        raise DataError("traces: the no_sched variant has no scheduling branch")
    n = model.config.n_variates
    sums = np.zeros((2, model.config.horizon))  # squared and absolute errors per horizon step
    for lo in range(0, windows.n_windows, batch):
        hi = min(lo + batch, windows.n_windows)
        preds, tr = predict_batch(
            model, windows.inputs[lo:hi], mode="eval",
            override=None if override is None else override[lo * n : hi * n],
            traces_from=None if traces is None else lo,
        )
        err = preds - windows.targets[lo:hi]
        sums[0] += (err**2).mean(axis=(0, 2)) * (hi - lo)
        sums[1] += np.abs(err).mean(axis=(0, 2)) * (hi - lo)
        if traces is not None:
            traces.extend(tr)
        if each_batch is not None:
            each_batch(lo, preds)
    per_mse, per_mae = sums / windows.n_windows
    return MetricReport(mse=float(per_mse.mean()), mae=float(per_mae.mean()),
                        per_horizon_mse=per_mse.tolist(), per_horizon_mae=per_mae.tolist())


def evaluate(
    model: LeapTS,
    windows: WindowBatch,
    batch: int = 256,
    collect_traces: bool = False,
) -> tuple[MetricReport, list | None]:
    """Pooled MSE/MAE (plus per-horizon curves) over a window batch."""
    traces = [] if collect_traces else None
    return _forecast_pass(model, windows, batch, traces), traces


def evaluate_full(
    model: LeapTS,
    windows: WindowBatch,
    s: int = 1,
    smape_ref: float | None = None,
    mase_ref: float | None = None,
    batch: int = 256,
    traces: list | None = None,
) -> MetricReport:
    """``evaluate``'s pooled report plus window-averaged SMAPE/MAPE/MASE
    and, given reference values, OWA. Raises if any window has a
    degenerate MASE scaling denominator; use ``evaluate`` for plain
    MSE/MAE. When ``traces`` is a list, the schedule traces of the same
    forecast pass are appended to it."""
    from .metrics import metrics as full_metrics

    reports = []

    def score(lo, preds):
        reports.extend(
            full_metrics(p, windows.targets[lo + i], windows.inputs[lo + i], s=s,
                         smape_ref=smape_ref, mase_ref=mase_ref)
            for i, p in enumerate(preds)
        )

    out = _forecast_pass(model, windows, batch, traces, each_batch=score)
    for f in ("smape", "mape", "mase"):
        setattr(out, f, float(np.mean([getattr(r, f) for r in reports])))
    if smape_ref is not None and mase_ref is not None:
        out.owa = 0.5 * (out.smape / smape_ref + out.mase / mase_ref)
    return out


def train(
    model: LeapTS,
    dataset: Dataset,
    tcfg: TrainConfig,
    log_path=None,
) -> tuple[LeapTS, TrainReport]:
    """Optimize the model on the dataset's train split, early-stopping on
    validation Huber loss; the best-epoch parameters, and the Gumbel
    temperature they were validated at, are restored before the final test
    evaluation. Deterministic given the seed."""
    if tcfg.ablation != model.ablation:
        raise ConfigError(f"train config ablation {tcfg.ablation!r} != model's {model.ablation!r}")
    t0 = time.monotonic()
    cfg = model.config
    shuffle_rng, gumbel_rng = np.random.default_rng(tcfg.seed).spawn(2)

    if tcfg.normalize:
        dataset, model.data_norm = _normalized_dataset(dataset)
    train_w = make_windows(dataset, cfg.look_back, cfg.horizon, "train", tcfg.stride)
    val_w = make_windows(dataset, cfg.look_back, cfg.horizon, "val", tcfg.stride)
    test_w = make_windows(dataset, cfg.look_back, cfg.horizon, "test", tcfg.stride)

    if cfg.n_clusters > 1 and model.ablation != "no_sched":
        lo, hi = dataset.split_bounds("train")
        assignment = cluster_variates(dataset.values[lo:hi], cfg.n_clusters, seed=cfg.seed)
        model.cluster_of_variate = assignment.assignment

    report = TrainReport()
    best_state = model.store.state_dict()
    bad_epochs = 0
    tau = tau_start = best_tau = cfg.gumbel_temp
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        for epoch in range(tcfg.max_epochs):
            if tcfg.gumbel_tau_end is not None and tcfg.max_epochs > 1:
                frac = epoch / (tcfg.max_epochs - 1)
                tau = tau_start + (tcfg.gumbel_tau_end - tau_start) * frac
            order = shuffle_rng.permutation(train_w.n_windows)
            if tcfg.max_batches_per_epoch is not None:
                order = order[: tcfg.max_batches_per_epoch * tcfg.batch_size]
            losses = []
            try:
                for lo in range(0, len(order), tcfg.batch_size):
                    stage = f"batch {lo // tcfg.batch_size}"
                    idx = order[lo : lo + tcfg.batch_size]
                    with Tape() as tape:
                        loss, _ = forward_loss(
                            model,
                            train_w.inputs[idx],
                            train_w.targets[idx],
                            mode="train",
                            rng=gumbel_rng,
                            delta=tcfg.huber_delta,
                            gumbel_temp=tau,
                        )
                        model.store.zero_grads()
                        tape.backward(loss)
                    adam_step(model.store, model.store.grads(), tcfg.lr)
                    losses.append(loss.item())
                stage = "validation"
                val_loss = _epoch_loss(model, val_w, tcfg.huber_delta, tau)
                if not np.isfinite(val_loss):  # the weighted sum can overflow
                    raise NumericError("non-finite validation loss")
            except NumericError as exc:
                report.diverged = True
                report.divergence = f"epoch {epoch}, {stage}: {exc}"
                break

            entry = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_loss": val_loss,
                "lr": tcfg.lr,
                "gumbel_temp": tau,
                "timestamp": time.time(),
            }
            report.epochs.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()

            if val_loss < report.best_val_loss:
                report.best_val_loss = val_loss
                report.best_epoch = epoch
                best_state, best_tau = model.store.state_dict(), tau
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= tcfg.patience:
                    report.early_stopped = True
                    break
    finally:
        if log_fh:
            log_fh.close()
        cfg.gumbel_temp = best_tau

    model.store.load_state_dict(best_state)
    report.test, _ = evaluate(model, test_w)
    report.wall_clock_s = time.monotonic() - t0
    return model, report

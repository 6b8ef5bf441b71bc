"""train-desk: Lorenz z (scenario 3, 20,000 steps) at the desk config of
the acceptance suite. A fixed number of Adam steps through ``train()``,
then forecasts of the test split with the trained model.

With 128 univariate rows per batch, a single-level controller
(P=24 <= L/4+1 makes the anchors degenerate) and one cluster, a step's
time goes to per-op tape bookkeeping, backward and Adam rather than to
array arithmetic or clustering. The timed inputs are fixed, as in the
acceptance suite (training seed 0): with the batch order taken from the
seed, the learned schedule and with it the step and forecast cost moved by
10-13% (IQR/median over ten seeds). The seed picks the entries the
gradient check probes.
"""

from __future__ import annotations

import contextlib
import re
import time

import numpy as np

import harness
import layers
from harness import Run, phase
from tracer import Patches, total

import leapts.forward as forward
import leapts.synth as synth
import leapts.training as training
from leapts.autodiff import Tape
from leapts.data import Dataset, make_windows
from leapts.model import LeapTS, ModelConfig

DESK = dict(look_back=96, horizon=24, n_variates=1, hidden_dim=16, enc_hidden=(32,), seed=0)
LR, BATCH, EVAL_BATCH, DELTA = 2e-3, 128, 256, 1.0

FULL = dict(steps=20000, epochs=3, max_batches=None, setups=3, warmup=30, min_rounds=3,
            cli=7, fd_per_group=3)
TOY = dict(steps=2400, epochs=1, max_batches=3, setups=1, warmup=1, min_rounds=1,
           cli=1, fd_per_group=1)


def _setup(steps: int):
    """Series, normalized test windows and a fresh model: what a user has
    in hand before the first training step."""
    batch = synth.generate(synth.ScenarioSpec(3, total_steps=steps, seed=0))
    ds = Dataset(values=batch.values)
    lo, hi = ds.split_bounds("train")
    mu, sd = ds.values[lo:hi].mean(axis=0), ds.values[lo:hi].std(axis=0)
    norm = Dataset(values=(ds.values - mu) / sd)
    test_w = make_windows(norm, DESK["look_back"], DESK["horizon"], "test")
    return ds, norm, test_w, (mu, sd), LeapTS(ModelConfig(**DESK))


def _warmup(test_w, repeats: int):
    """Forward+backward of one fixed batch on a throwaway model, untimed."""
    model = LeapTS(ModelConfig(**DESK))
    x, y = test_w.inputs[:BATCH], test_w.targets[:BATCH]
    for _ in range(repeats):
        with Tape() as tape:
            loss, _ = forward.forward_loss(model, x, y, mode="train", delta=DELTA)
            model.store.zero_grads()
            tape.backward(loss)


def _huber_mean(pred, target) -> float:
    r = np.abs(pred - target)
    c = np.minimum(r, DELTA)
    return float((0.5 * c * c + DELTA * (r - c)).mean())


def _rows(batch):
    """[B x T x N] -> [B*N x T], window-major like the model's rows."""
    b, t, n = batch.shape
    return batch.transpose(0, 2, 1).reshape(b * n, t)


def _forward(model, x):
    """Train-mode forecast rows (single level: no Gumbel noise) and the
    integer length of every scheduling step."""
    debug = []
    out = forward.forward_rows(model, x, mode="train", debug=debug)
    return out["fused"].data, tuple(d.len_int.tobytes() for d in debug)


def _gradcheck(run: Run, x, y, n_per_group: int):
    """Tape gradients of the first batch's loss against central finite
    differences computed here, on a few entries of every parameter group."""
    model = LeapTS(ModelConfig(**DESK))  # same seed: the model train() started from
    target = _rows(y)
    with Tape() as tape:
        loss, _ = forward.forward_loss(model, x, y, mode="train", delta=DELTA)
        model.store.zero_grads()
        tape.backward(loss)
    grads = model.store.grads()
    fused, base_schedule = _forward(model, x)
    run.check("gradcheck: own Huber loss equals forward_loss",
              abs(_huber_mean(fused, target) - loss.item()) <= 1e-12 * max(1.0, loss.item()))

    groups: dict[str, list[str]] = {}
    for name in model.store.names():
        groups.setdefault(re.sub(r"_[wb]\d*$", "", name), []).append(name)
    rng = np.random.default_rng(run.seed)
    h, worst, skipped = 1e-5, 0.0, 0
    for group, names in sorted(groups.items()):
        done = 0
        for _ in range(20 * n_per_group):
            if done == n_per_group:
                break
            name = names[int(rng.integers(len(names)))]
            flat = model.store[name].data.reshape(-1)
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up, up_schedule = _forward(model, x)
            flat[i] = orig - h
            down, down_schedule = _forward(model, x)
            flat[i] = orig
            if up_schedule != base_schedule or down_schedule != base_schedule:
                skipped += 1  # a rounded length flipped: the loss jumps there
                continue
            numeric = (_huber_mean(up, target) - _huber_mean(down, target)) / (2 * h)
            analytic = float(grads[name].reshape(-1)[i])
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
            done += 1
        run.check(f"gradcheck: {n_per_group} entries of {group}", done == n_per_group)
    run.check("gradcheck: max relative error < 1e-4", worst < 1e-4, f"{worst:.3e}")
    run.notes["gradcheck_max_rel_err"] = worst
    run.notes["gradcheck_skipped_entries"] = skipped


def run(run: Run, tracer) -> dict:
    size = TOY if run.toy else FULL
    with phase(tracer, "bench.setup"):
        (ds, norm, test_w, (mu, sd), model), setup_s = harness.timed_setups(
            run, 1 if tracer else size["setups"], lambda: _setup(size["steps"]))
    _warmup(test_w, size["warmup"])
    run.host_reference()

    # -- timed: training ---------------------------------------------------------
    stamps, losses, first = [], [], []
    patches = Patches()

    def stamp_adam(orig):
        def adam_step(*a, **k):
            out = orig(*a, **k)
            stamps.append(time.perf_counter())
            return out
        return adam_step

    def watch_loss(orig):
        def forward_loss(model_, inputs, targets, mode="train", **k):
            out = orig(model_, inputs, targets, mode=mode, **k)
            if mode == "train":
                if not first:
                    first.append((inputs.copy(), targets.copy()))
                losses.append(float(out[0].data))
            return out
        return forward_loss

    patches.patch(training, "adam_step", stamp_adam)
    patches.patch(training, "forward_loss", watch_loss)
    tcfg = training.TrainConfig(lr=LR, batch_size=BATCH, max_epochs=size["epochs"], patience=10,
                                seed=0, max_batches_per_epoch=size["max_batches"])
    garbage = layers.GarbageCounter() if tracer is not None else contextlib.nullcontext()
    t_measure = time.perf_counter()
    try:
        with phase(tracer, "bench.train"), garbage:
            model, report = training.train(model, ds, tcfg)
    finally:
        patches.restore()
    train_s = time.perf_counter() - t_measure
    run.attempted += len(stamps)  # one operation per Adam step
    train_rate = BATCH / harness.upper_quartile(np.diff([t_measure, *stamps]))
    run.host_reference()

    # -- timed: forecasts of the test split --------------------------------------
    n_batches = -(-test_w.n_windows // EVAL_BATCH)
    batch_times, preds = [], []

    def time_predict(orig):
        def predict_batch(model_, inputs, *a, **k):
            t0 = time.perf_counter()
            out = orig(model_, inputs, *a, **k)
            batch_times[-1].append(time.perf_counter() - t0)
            if len(preds) < n_batches:
                preds.append(out[0])
            return out
        return predict_batch

    patches.patch(training, "predict_batch", time_predict)
    rounds, reports = 0, []
    cli = harness.CliStarts(run, [] if tracer else [(DESK["look_back"], DESK["horizon"])] * size["cli"],
                            max(run.seconds - (time.perf_counter() - t_measure), 1.0))
    try:
        with phase(tracer, "bench.forecast"):
            while rounds < size["min_rounds"] or time.perf_counter() - t_measure < run.seconds:
                batch_times.append([])
                ok, res = run.op(training.evaluate, model, test_w, batch=EVAL_BATCH)
                if ok:
                    reports.append(res[0])
                rounds += 1
                run.host_reference(1)
                cli.tick()
    finally:
        patches.restore()
    forecast_rate = harness.rounds_rate(batch_times, test_w.n_windows)
    run.host_reference()

    # -- checks -------------------------------------------------------------------
    per_epoch = -(-make_windows(norm, DESK["look_back"], DESK["horizon"], "train").n_windows // BATCH)
    if size["max_batches"] is not None:
        per_epoch = min(per_epoch, size["max_batches"])
    run.check("train: did not diverge", not report.diverged)
    run.check("train: every Adam step ran", len(stamps) == size["epochs"] * per_epoch,
              f"{len(stamps)} steps")
    run.check("train: every training loss finite",
              len(losses) == len(stamps) and bool(np.all(np.isfinite(losses))))
    run.check("train: data_norm is the train split's mean and std",
              np.allclose(model.data_norm[0], mu, rtol=1e-12, atol=0)
              and np.allclose(model.data_norm[1], sd, rtol=1e-12, atol=0))
    val_w = make_windows(norm, DESK["look_back"], DESK["horizon"], "val")
    fresh = LeapTS(ModelConfig(**DESK))
    untrained = np.concatenate([forward.predict_batch(fresh, val_w.inputs[lo:lo + EVAL_BATCH])[0]
                                for lo in range(0, val_w.n_windows, EVAL_BATCH)])
    untrained_val = _huber_mean(untrained, val_w.targets)
    run.check("train: val_loss below the untrained model's", report.best_val_loss < untrained_val,
              f"{report.best_val_loss} vs {untrained_val}")
    run.check("forecast: every round gave a report", len(reports) == rounds)
    own = float(((np.concatenate(preds) - test_w.targets) ** 2).mean())
    mse = reports[0].mse
    run.check("forecast: mse equals own MSE of predict_batch outputs", abs(own - mse) <= 1e-9 * own,
              f"{own} vs {mse}")
    run.check("forecast: every round gives the same mse", all(r.mse == mse for r in reports))
    run.check("desk: single-level controller", model.n_categories == 1)
    run.check("gradcheck: first training batch captured", bool(first))
    if first:
        _gradcheck(run, first[0][0], first[0][1], size["fd_per_group"])
    run.notes.update(val_loss=report.best_val_loss, untrained_val_loss=untrained_val,
                     train_steps=len(stamps), train_s=train_s, forecast_rounds=rounds)

    if tracer is not None:
        return _layer_metrics(run, tracer, model, test_w, garbage.collected)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "main_per_s": train_rate,
        "second_per_s": forecast_rate,
        "cli_start_s": cli.finish(),
        "output_error": mse,
    }


def _layer_metrics(run: Run, tracer, model, test_w, collected) -> dict:
    out = layers.base_metrics(tracer)
    out.update(layers.model_path_metrics(tracer, "forward.loss.train", ("bench.train",)))
    n = len(tracer.select("forward.loss.train", ("bench.train",)))
    backward = tracer.select("autodiff.backward", ("bench.train",))
    out["autodiff.tape_nodes_per_batch"] = layers.div(sum(sp.info["nodes"] for sp in backward), len(backward))
    out["autodiff.tape_mb_per_batch"] = layers.div(
        sum(sp.info["bytes"] for sp in backward) / 2**20, len(backward))
    out["autodiff.backward_ms_per_batch"] = layers.div(total(backward) * 1e3, n)
    out["autodiff.cyclic_garbage_per_batch"] = layers.div(collected, n)
    out["forward.loss_ms_per_batch"] = layers.div(
        total(tracer.select("forward.loss.train", ("bench.train",))) * 1e3, n)
    out["optim.adam_ms_per_batch"] = layers.div(total(tracer.select("optim.adam", ("bench.train",))) * 1e3, n)
    pred = tracer.select("forward.predict", ("bench.forecast",))
    out["forward.predict_ms_per_batch"] = layers.div(total(pred) * 1e3, len(pred))
    with tracer.span("bench.trace_sample"):
        _, traces = training.evaluate(model, test_w, batch=EVAL_BATCH, collect_traces=True)
    out.update(layers.schedule_shape(tracer, traces, "bench.trace_sample"))
    out["cli.import_s"] = harness.cli_import_s(1 if run.toy else 3)
    out["trace.overhead_pct"] = layers.overhead_pct(
        tracer, lambda: training.evaluate(model, test_w, batch=EVAL_BATCH), pairs=5)
    out["host.reference_ms"] = harness.upper_quartile(run.host_ms)
    return out

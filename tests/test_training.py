import re
import time
from dataclasses import asdict

import numpy as np
import pytest

from leapts import training
from leapts.data import Dataset, make_windows
from leapts.errors import ConfigError, DataError
from leapts.forward import predict_batch
from leapts.model import LeapTS, ModelConfig
from leapts.synth import ScenarioSpec, generate
from leapts.training import (
    TrainConfig,
    _epoch_loss,
    ablate,
    apply_data_norm,
    evaluate,
    evaluate_full,
    train,
)

from conftest import toy_config

PARAM_GROUPS = {
    "encoder": lambda n: n.startswith("enc_"),
    "coarse": lambda n: n.startswith("coarse_"),
    "state_init": lambda n: n.startswith("state_init"),
    "category_proj": lambda n: n == "category_proj",
    "length_heads": lambda n: n.startswith("len_head_"),
    "segment_heads": lambda n: n.startswith("seg_head_"),
    "summary": lambda n: n.startswith("summary_"),
    "control": lambda n: n.startswith("control_"),
    "ctrl_field": lambda n: n.startswith("ctrl_field"),
    "time_field": lambda n: n.startswith("time_field"),
    "fusion_gate": lambda n: n == "fuse_logit",
}


def sine_dataset(t=600, n=1, fractions=(0.6, 0.2, 0.2)):
    ts = np.arange(t, dtype=np.float64)
    cols = [np.sin(2 * np.pi * ts / 24.0 + 0.3 * k) for k in range(n)]
    return Dataset(values=np.stack(cols, axis=1), split_fractions=fractions)


def test_gradient_flow_reaches_every_parameter_group():
    """One training step on random data: every group gets gradient signal.
    Summary/control/field gradients need schedules of 3+ steps, hence many
    rows with train-mode category noise."""
    from leapts.autodiff import Tape
    from leapts.forward import forward_loss

    cfg = toy_config(look_back=8, horizon=6, n_variates=2, seed=0)
    model = LeapTS(cfg)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(16, 8, 2))
    y = rng.normal(size=(16, 6, 2))
    with Tape() as tape:
        loss, _ = forward_loss(model, x, y, mode="train", rng=rng)
        model.store.zero_grads()
        tape.backward(loss)
    grads = model.store.grads()
    for group, match in PARAM_GROUPS.items():
        norm = sum(float(np.abs(g).sum()) for n, g in grads.items() if match(n))
        assert norm > 0.0, f"dead gradient group: {group}"


def test_seed_determinism_identical_curves():
    ds = sine_dataset()
    tcfg = TrainConfig(lr=2e-3, batch_size=32, max_epochs=3, seed=11, normalize=False)
    curves = []
    for _ in range(2):
        model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=11))
        _, report = train(model, ds, tcfg)
        curves.append([(e["train_loss"], e["val_loss"]) for e in report.epochs])
    assert curves[0] == curves[1]


def test_constant_series_learns_constant():
    values = np.full((400, 1), 0.75)
    ds = Dataset(values=values, split_fractions=(0.6, 0.2, 0.2))
    model = LeapTS(toy_config(n_variates=1, look_back=16, horizon=4, seed=0))
    _, report = train(
        model, ds, TrainConfig(lr=5e-3, batch_size=32, max_epochs=5, normalize=False)
    )
    assert report.epochs[-1]["val_loss"] < 1e-3


def test_sine_beats_linear_oracle_threshold():
    """A least-squares linear fit from the look-back achieves MSE below
    0.05 on a pure sine, so a trained model must too."""
    ds = sine_dataset(t=2000)
    L, P = 48, 12

    tr = make_windows(ds, L, P, "train")
    te = make_windows(ds, L, P, "test")
    a = tr.inputs[:, :, 0]
    b = tr.targets[:, :, 0]
    # ridge-regularized normal equations as the independent oracle
    w = np.linalg.solve(a.T @ a + 1e-8 * np.eye(L), a.T @ b)
    oracle_mse = float(((te.inputs[:, :, 0] @ w - te.targets[:, :, 0]) ** 2).mean())
    assert oracle_mse < 0.05

    model = LeapTS(
        ModelConfig(look_back=L, horizon=P, n_variates=1, hidden_dim=16, enc_hidden=(32,), seed=1)
    )
    t0 = time.monotonic()
    _, report = train(
        model, ds, TrainConfig(lr=3e-3, batch_size=64, max_epochs=12, normalize=False, seed=1)
    )
    assert time.monotonic() - t0 < 60.0
    assert report.test.mse < 0.05


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_validation_loss_drops_twenty_percent(scenario):
    batch = generate(ScenarioSpec(scenario, total_steps=1500, seed=3))
    ds = Dataset(values=batch.values, split_fractions=(0.6, 0.2, 0.2))
    n = ds.n_variates
    model = LeapTS(
        ModelConfig(look_back=24, horizon=8, n_variates=n, hidden_dim=12, enc_hidden=(24,), seed=2)
    )
    _, report = train(
        model, ds, TrainConfig(lr=3e-3, batch_size=64, max_epochs=8, seed=2)
    )
    first = report.epochs[0]["val_loss"]
    best = min(e["val_loss"] for e in report.epochs)
    assert best <= 0.8 * first


def test_five_seed_stability_scenario3():
    batch = generate(ScenarioSpec(3, total_steps=2500, seed=9))
    ds = Dataset(values=batch.values, split_fractions=(0.6, 0.2, 0.2))
    mses = []
    for seed in range(5):
        model = LeapTS(
            ModelConfig(look_back=24, horizon=8, n_variates=1, hidden_dim=12, enc_hidden=(24,), seed=seed)
        )
        _, report = train(
            model, ds, TrainConfig(lr=3e-3, batch_size=64, max_epochs=6, seed=seed)
        )
        mses.append(report.test.mse)
    mses = np.asarray(mses)
    assert mses.std() < 0.3 * mses.mean()


def test_clustered_multivariate_training_end_to_end():
    """Scenario 1 at reduced scale with three variate clusters: training
    runs, clusters are assigned from the train split, and every cluster's
    dynamics parameters receive gradient signal."""
    batch = generate(ScenarioSpec(1, total_steps=900, seed=1))
    ds = Dataset(values=batch.values, split_fractions=(0.6, 0.2, 0.2))
    model = LeapTS(
        ModelConfig(
            look_back=24, horizon=8, n_variates=30, hidden_dim=8, n_clusters=3,
            summary_dim=4, control_dim=4, enc_hidden=(16,), field_hidden=8, seed=0,
        )
    )
    _, report = train(model, ds, TrainConfig(lr=3e-3, batch_size=32, max_epochs=2, seed=0))
    assert len(set(model.cluster_of_variate.tolist())) == 3
    assert np.isfinite(report.test.mse)
    # the three ODE families should mostly sort into distinct clusters
    groups = [set(model.cluster_of_variate[i : i + 10].tolist()) for i in (0, 10, 20)]
    assert any(len(g) == 1 for g in groups)


def test_early_stopping_semantics():
    ds = sine_dataset()
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=5))
    _, report = train(
        model, ds, TrainConfig(lr=2e-3, batch_size=32, max_epochs=20, patience=2, normalize=False)
    )
    vals = [e["val_loss"] for e in report.epochs]
    assert report.best_val_loss == min(vals)
    assert vals.index(min(vals)) == report.best_epoch
    if report.early_stopped:
        assert all(v >= report.best_val_loss for v in vals[report.best_epoch + 1 :])


def test_divergence_aborts_with_last_good_state():
    """Saturating nonlinearities and the Huber loss keep merely-huge
    learning rates finite; overflow needs the state-evolution chain to
    blow past float64 range. Either way training must not crash; a
    diverged run restores the last good parameters, and its report says
    where (epoch, batch) and why (the stage that made the value)."""
    ds = sine_dataset(t=300)
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=6))
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = train(
            model, ds, TrainConfig(lr=1e160, batch_size=32, max_epochs=5, normalize=False)
        )
    assert report.diverged
    stage = (r"encoder layer \d+ (pre-activation|output)|coarse forecast|initial state "
             r"pre-activation|fusion gate|fused forecast|rescaled \w+ forecast")
    assert re.fullmatch(rf"epoch 0, batch \d+: non-finite values in ({stage})", report.divergence)
    assert asdict(report)["divergence"] == report.divergence  # what the CLI prints
    # the restored parameters still produce finite forecasts
    preds, _ = predict_batch(model, np.zeros((1, 24, 1)))
    assert np.all(np.isfinite(preds))


def test_nonfinite_validation_loss_is_a_divergence_with_a_reason(monkeypatch):
    """The validation loss is a weighted sum over batches that can overflow
    while every batch is finite: the report then says where and why."""
    monkeypatch.setattr(training, "_epoch_loss", lambda *a, **kw: np.inf)
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=6))
    _, report = train(model, sine_dataset(t=300),
                      TrainConfig(batch_size=64, max_epochs=3, normalize=False))
    assert report.diverged and not report.epochs
    assert report.divergence == "epoch 0, validation: non-finite validation loss"


def test_gumbel_anneal_keeps_the_best_epochs_temperature():
    """The returned model runs at the temperature its best epoch was
    validated at, so it reproduces ``best_val_loss`` exactly."""
    ds = sine_dataset()
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=7))
    assert model.anchors.degenerate is False
    _, report = train(
        model,
        ds,
        TrainConfig(lr=2e-3, batch_size=64, max_epochs=3, normalize=False, gumbel_tau_end=0.5),
    )
    temps = [e["gumbel_temp"] for e in report.epochs]
    assert temps[0] == 1.0 and temps[-1] == 0.5
    assert report.best_epoch > 0
    assert model.config.gumbel_temp == temps[report.best_epoch]
    val_w = make_windows(ds, 24, 8, "val", 1)
    assert _epoch_loss(model, val_w, 1.0) == report.best_val_loss


def test_gumbel_anneal_passes_the_temperature_and_leaves_the_config(monkeypatch):
    """While it anneals, ``train`` hands each epoch's temperature to the
    forward pass and writes ``config.gumbel_temp`` only once, at the end."""
    import leapts.training as training

    ds = sine_dataset()
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=7))
    seen = []
    forward_loss = training.forward_loss

    def watching(model_, *args, **kwargs):
        seen.append((kwargs["mode"], kwargs["gumbel_temp"], model_.config.gumbel_temp))
        return forward_loss(model_, *args, **kwargs)

    monkeypatch.setattr(training, "forward_loss", watching)
    _, report = train(model, ds, TrainConfig(lr=2e-3, batch_size=64, max_epochs=3,
                                             normalize=False, gumbel_tau_end=0.5,
                                             max_batches_per_epoch=2))
    assert {config for _, _, config in seen} == {1.0}
    assert sorted({(mode, tau) for mode, tau, _ in seen}) == [
        ("eval", 0.5), ("eval", 0.75), ("eval", 1.0), ("train", 0.5), ("train", 0.75),
        ("train", 1.0)]
    assert model.config.gumbel_temp == report.epochs[report.best_epoch]["gumbel_temp"]


# -- ablations ---------------------------------------------------------------


def test_no_sched_equals_coarse_exactly(rng):
    model = LeapTS(toy_config(seed=13), ablation="no_sched")
    x = rng.normal(size=(3, 24, 2))
    fused, _ = predict_batch(model, x)
    from leapts.forward import forward_rows, _batch_from_rows

    coarse = _batch_from_rows(forward_rows(model, x)["coarse"].data, 3, 2)
    assert np.array_equal(fused, coarse)


def test_traces_of_a_no_sched_model_are_a_data_error(rng):
    """The no_sched variant has no scheduling loop to trace."""
    model = LeapTS(toy_config(seed=13), ablation="no_sched")
    ds = Dataset(values=rng.normal(size=(80, 2)), split_fractions=(1.0, 0.0, 0.0))
    w = make_windows(ds, 24, 8, "train", stride=7)
    for call in (lambda: evaluate(model, w, collect_traces=True),
                 lambda: evaluate_full(model, w, traces=[])):
        with pytest.raises(DataError, match="no_sched variant has no scheduling branch"):
            call()
    report, traces = evaluate(model, w)
    assert np.isfinite(report.mse) and traces is None


def test_no_high_level_single_category(rng):
    model = LeapTS(toy_config(seed=13), ablation="no_high_level")
    assert model.anchors.degenerate
    x = rng.normal(size=(2, 24, 2))
    meta = (np.repeat(np.arange(2), 2), np.tile(np.arange(2), 2), np.zeros(4))
    _, traces = predict_batch(model, x, trace_meta=meta)
    cats = {s.category_name for tr in traces for s in tr.steps}
    assert cats == {"single"}


def test_train_rejects_an_ablation_the_model_does_not_have(toy_model):
    ds = Dataset(values=np.zeros((60, 2)))
    with pytest.raises(ConfigError, match="'no_sched'"):
        train(toy_model, ds, TrainConfig(ablation="no_sched"))


def test_ablate_builder_and_validation(toy_model):
    variant = ablate(toy_model, "no_sched")
    assert variant.ablation == "no_sched"
    # shared groups initialize identically (same seed, same creation order)
    for name in variant.store.names():
        assert np.array_equal(variant.store[name].data, toy_model.store[name].data)
    with pytest.raises(ConfigError):
        ablate(toy_model, "bogus")


def test_apply_data_norm_keeps_every_field():
    ds = Dataset(
        values=np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]]),
        name="demo",
        frequency="h",
        split_fractions=(0.5, 0.25, 0.25),
        columns=["a", "b"],
    )
    out = apply_data_norm(ds, (np.array([1.0, 10.0]), np.array([2.0, 20.0])))
    assert np.array_equal(out.values, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert (out.name, out.frequency, out.split_fractions, out.columns) == (
        "demo", "h", (0.5, 0.25, 0.25), ["a", "b"]
    )


def test_evaluate_and_evaluate_full_agree_across_batch_sizes(rng):
    model = LeapTS(toy_config(n_variates=1, seed=5))
    values = 5.0 + rng.normal(size=(200, 1)).cumsum(axis=0)
    ds = Dataset(values=values, split_fractions=(1.0, 0.0, 0.0))
    w = make_windows(ds, 24, 8, "train", stride=7)
    one, _ = evaluate(model, w, batch=w.n_windows)
    split, _ = evaluate(model, w, batch=3)
    assert split.mse == pytest.approx(one.mse, rel=1e-12)
    full = evaluate_full(model, w, batch=3)
    assert full.mse == pytest.approx(one.mse, rel=1e-12)
    assert full.mae == pytest.approx(one.mae, rel=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(ablation="nope")

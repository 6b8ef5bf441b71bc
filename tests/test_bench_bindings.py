"""The benchmark times layers by rebinding public names of ``leapts`` at
run time (benchmarks/tracer.py), and its workloads call the package's API.
These checks keep those names in place, the rebinding reversible and the
calls the workloads make working."""

import importlib
import importlib.util
import pathlib
import sys
import types

import numpy as np

# every module the tracer wraps, loaded before it runs: a module it first
# imports itself would show up as a binding it added
import leapts.autodiff  # noqa: F401
import leapts.bounds  # noqa: F401
import leapts.data  # noqa: F401
import leapts.diagnostics as diagnostics
import leapts.engine  # noqa: F401
import leapts.forward as forward
import leapts.metrics  # noqa: F401
import leapts.model  # noqa: F401
import leapts.optim as optim
import leapts.synth  # noqa: F401
import leapts.traces
import leapts.training as training
from leapts.autodiff import Tape
from leapts.data import Dataset, WindowBatch, make_windows
from leapts.model import LeapTS

from conftest import toy_config

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("leapts_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    owners = [m for name, m in sys.modules.items() if name.startswith("leapts.")]
    return {(id(o), k): v for o in [*owners, LeapTS, Tape] for k, v in vars(o).items()}


def test_layer_spans_install_and_restore_every_binding():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    before = _bindings()
    tracer_module.install_layer_spans(tracer)
    rebound = {key for key, v in _bindings().items() if before.get(key) is not v}
    for name in ("predict_batch", "forward_loss", "adam_step"):
        assert (id(training), name) in rebound
    tracer.patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_names_the_workloads_patch_are_the_ones_training_calls():
    assert training.predict_batch is forward.predict_batch
    assert diagnostics.predict_batch is forward.predict_batch  # the tracer wraps it too
    assert training.forward_loss is forward.forward_loss
    assert training.adam_step is optim.adam_step


def test_every_evaluation_forecasts_through_the_patched_training_name(monkeypatch):
    """forecast-clustered times forecasts by rebinding ``training.predict_batch``;
    `evaluate`, `evaluate_full` and `trace_override` all forecast through it."""
    model = LeapTS(toy_config(n_variates=1, seed=5))
    values = 5.0 + np.random.default_rng(0).normal(size=(120, 1)).cumsum(axis=0)
    w = make_windows(Dataset(values=values, split_fractions=(1.0, 0.0, 0.0)), 24, 8, "train",
                     stride=9)
    calls = []
    predict = training.predict_batch

    def counting(model_, inputs, **kw):
        calls.append(len(inputs))
        return predict(model_, inputs, **kw)

    monkeypatch.setattr(training, "predict_batch", counting)
    for run, passes in ((lambda: training.evaluate(model, w, batch=4, collect_traces=True), 1),
                        (lambda: training.evaluate_full(model, w, batch=4), 1),
                        (lambda: diagnostics.trace_override(model, w, "fixed", 4), 1),
                        (lambda: diagnostics.trace_override(model, w, "monte_carlo", 2), 2)):
        calls.clear()
        run()
        assert sum(calls) == passes * w.n_windows, calls


class _Checks:
    """The part of the benchmark's ``harness.Run`` that its checks use."""

    seed = 0

    def __init__(self):
        self.checks, self.notes = [], {}

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def _workloads(*names):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_workloads_import_and_run_the_calls_train_desk_makes():
    """The three workloads import, and train-desk's warm-up (Tape,
    ``forward_loss``, backward) and gradient check (``store.grads()``, the
    ``.data`` of the forecasts, the loss's ``.item()``) run on a few random
    desk windows."""
    train_desk, *_ = _workloads("train_desk", "forecast_clustered", "synth_bounds")
    rng = np.random.default_rng(0)
    desk = train_desk.DESK
    x = rng.normal(size=(6, desk["look_back"], 1))
    y = rng.normal(size=(6, desk["horizon"], 1))
    train_desk._warmup(types.SimpleNamespace(inputs=x, targets=y), 1)
    run = _Checks()
    train_desk._gradcheck(run, x, y, 1)
    assert len(run.checks) > 5
    assert [c for c in run.checks if not c[1]] == []


def test_forecast_clustered_diagnose_and_probes_run_on_a_toy_model(tmp_path):
    """forecast-clustered's diagnose phase (traced `evaluate`,
    `write_trace_jsonl`, the trace statistics, a Monte Carlo override,
    `evaluate_full`) and its forecast probes run on a toy model with the
    workload's L, P, three scales and three clusters. ``Run.op`` counts a
    call that raises as failed instead of raising, so the count is checked."""
    harness, forecast_clustered = _workloads("harness", "forecast_clustered")
    L, P = forecast_clustered.L, forecast_clustered.P

    class TmpRun(harness.Run):
        def __init__(self):  # what `op` counts, without the benchmark's output directory
            self.attempted = self.failed = 0

        def out_path(self, name):
            return str(tmp_path / name)

    model = LeapTS(toy_config(look_back=L, horizon=P, n_variates=3, n_clusters=3))
    model.cluster_of_variate = np.arange(3)  # training's clustering would assign them
    assert model.n_categories == 3
    rng = np.random.default_rng(0)
    sub = WindowBatch(inputs=rng.normal(size=(4, L, 3)), targets=rng.normal(size=(4, P, 3)),
                      starts=np.arange(4))
    run, times = TmpRun(), []
    out = forecast_clustered._diagnose(run, model, sub, 1, None, times)
    assert run.failed == 0 and run.attempted == len(times) == 7
    trs = out["traces"]
    assert len(trs) == 4 * 3 and all(map(forecast_clustered._tiles_horizon, trs))
    assert leapts.traces.read_trace_jsonl(run.out_path("trace.jsonl")) == trs

    batched, _ = forward.predict_batch(model, sub.inputs)
    assert np.abs(forward.forecast(model, sub.inputs[1])[0].fused - batched[1]).max() <= 1e-9
    rows = forward.forward_rows(model, sub.inputs)
    for k in ("coarse", "sched", "fused"):
        assert rows[k].data.shape == (4 * 3, P)


def test_schedule_span_and_step_records_keep_what_the_benchmark_reads():
    """The tracer's ``engine.schedule`` span takes ``rows`` from the
    positional state ``h`` of `run_schedule_rows` and ``loop_steps`` from
    the noise list at index 2 of its return, one per step record; the
    records ``forward_rows`` fills as ``debug`` carry the integer lengths
    that train-desk's gradient check compares."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer_module.install_layer_spans(tracer)
    model = LeapTS(toy_config(look_back=16, horizon=12, n_variates=3, n_clusters=3))
    x = np.random.default_rng(0).normal(size=(4, 16, 3))
    records = []
    try:
        forward.forward_rows(model, x, mode="train", rng=np.random.default_rng(1), debug=records)
    finally:
        tracer.patches.restore()
    (span,) = tracer.select("engine.schedule")
    assert span.info == {"rows": 12, "loop_steps": len(records)} and len(records) > 1
    for rec in records:
        assert rec.len_int.dtype == np.int64 and rec.len_int.shape == rec.rows.shape

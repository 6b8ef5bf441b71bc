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

import leapts.cli  # noqa: F401  (loads every module the tracer wraps)
import leapts.forward as forward
import leapts.optim as optim
import leapts.training as training
from leapts.autodiff import Tape
from leapts.model import LeapTS

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
    assert training.forward_loss is forward.forward_loss
    assert training.adam_step is optim.adam_step


class _Checks:
    """The part of the benchmark's ``harness.Run`` that its checks use."""

    seed = 0

    def __init__(self):
        self.checks, self.notes = [], {}

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def test_workloads_import_and_run_the_calls_train_desk_makes():
    """The three workloads import, and train-desk's warm-up (Tape,
    ``forward_loss``, backward) and gradient check (``store.grads()``, the
    ``.data`` of the forecasts, the loss's ``.item()``) run on a few random
    desk windows."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        train_desk, *_ = (importlib.import_module(name)
                          for name in ("train_desk", "forecast_clustered", "synth_bounds"))
    finally:
        sys.path.remove(str(BENCHMARKS))
    rng = np.random.default_rng(0)
    desk = train_desk.DESK
    x = rng.normal(size=(6, desk["look_back"], 1))
    y = rng.normal(size=(6, desk["horizon"], 1))
    train_desk._warmup(types.SimpleNamespace(inputs=x, targets=y), 1)
    run = _Checks()
    train_desk._gradcheck(run, x, y, 1)
    assert len(run.checks) > 5
    assert [c for c in run.checks if not c[1]] == []

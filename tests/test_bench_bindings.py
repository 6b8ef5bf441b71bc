"""The benchmark times layers by rebinding public names of ``leapts`` at
run time (benchmarks/tracer.py). These checks keep those names in place
and the rebinding reversible."""

import importlib.util
import pathlib
import sys

import leapts.cli  # noqa: F401  (loads every module the tracer wraps)
import leapts.forward as forward
import leapts.optim as optim
import leapts.training as training
from leapts.autodiff import Tape
from leapts.model import LeapTS

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


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

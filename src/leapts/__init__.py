"""LeapTS: multi-horizon forecasting as an adaptive scheduling process.

A coarse single-pass forecast is refined by a scheduling branch that
repeatedly picks a temporal scale and advancement length, writes a
soft-masked segment into the horizon, and evolves its controller state
through cluster-shared controlled dynamics. The model is float64 numpy
array code with one hand-written reverse pass, which a small tape
(``autodiff``) records as one node next to the Huber loss.

The package namespace is lazy (PEP 562): each exported name is imported
from its home module on first access, so ``import leapts`` and the CLI's
light commands do not load numpy.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "autodiff": ("Tape", "Tensor", "huber_loss"),
    "bounds": ("BoundInstance", "bound_direct", "bound_recursive", "bound_leapts_optimal"),
    "anchors": ("ScaleAnchors", "scale_anchors"),
    "data": ("Dataset", "WindowBatch", "load_csv", "make_windows"),
    "engine": ("cluster_variates",),
    "forward": ("forecast", "predict_batch"),
    "metrics": ("MetricReport",),
    "model": ("ForecastPair", "LeapTS", "ModelConfig"),
    "optim": ("ParamStore", "adam_step"),
    "synth": ("ScenarioSpec", "generate", "integrate_ode", "write_csv"),
    "training": ("TrainConfig", "TrainReport", "ablate", "evaluate", "train"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

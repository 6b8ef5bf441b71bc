"""LeapTS: multi-horizon forecasting as an adaptive scheduling process.

A coarse single-pass forecast is refined by a scheduling branch that
repeatedly picks a temporal scale and advancement length, writes a
soft-masked segment into the horizon, and evolves its controller state
through cluster-shared controlled dynamics. The model is float64 numpy
array code with one hand-written reverse pass, which a small tape
(``autodiff``) records as one node next to the Huber loss.
"""

from .autodiff import Tape, Tensor, huber_loss
from .bounds import BoundInstance, bound_direct, bound_leapts_optimal, bound_recursive
from .controller import ScaleAnchors, scale_anchors
from .data import Dataset, WindowBatch, load_csv, make_windows
from .engine import cluster_variates
from .forward import forecast, predict_batch
from .metrics import MetricReport
from .model import ForecastPair, LeapTS, ModelConfig
from .optim import ParamStore, adam_step
from .synth import ScenarioSpec, generate, integrate_ode, write_csv
from .training import TrainConfig, TrainReport, ablate, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "huber_loss",
    "BoundInstance",
    "bound_direct",
    "bound_recursive",
    "bound_leapts_optimal",
    "ScaleAnchors",
    "scale_anchors",
    "Dataset",
    "WindowBatch",
    "load_csv",
    "make_windows",
    "cluster_variates",
    "forecast",
    "predict_batch",
    "MetricReport",
    "ForecastPair",
    "LeapTS",
    "ModelConfig",
    "ParamStore",
    "adam_step",
    "ScenarioSpec",
    "generate",
    "integrate_ode",
    "write_csv",
    "TrainConfig",
    "TrainReport",
    "ablate",
    "evaluate",
    "train",
    "__version__",
]

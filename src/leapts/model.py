"""Model configuration, parameter construction, and the non-scheduling
skeleton: the variate-wise MLP encoder, the coarse linear head, and the
learned fusion gate combining coarse and scheduled forecasts.

Checkpoints are a single file: one JSON header line (magic ``LEAPTS1``,
config, parameter manifest) followed by the raw little-endian float64
parameter data. See docs/formats.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .controller import ScaleAnchors, scale_anchors
from .errors import ConfigError, DataError, ShapeError
from .optim import ParamStore

__all__ = ["ModelConfig", "ForecastPair", "LeapTS", "ABLATIONS"]

CHECKPOINT_MAGIC = "LEAPTS1"
ABLATIONS = ("none", "no_sched", "no_high_level")


@dataclass
class ModelConfig:
    look_back: int
    horizon: int
    n_variates: int
    hidden_dim: int = 24
    latent_dim: int | None = None  # defaults to hidden_dim
    summary_dim: int = 8
    control_dim: int = 8
    enc_hidden: tuple[int, ...] = (64,)
    field_hidden: int = 24
    n_clusters: int = 1
    mask_temp: float = 0.1
    gumbel_temp: float = 1.0
    dt_min: float | None = None  # defaults to 1/horizon
    dt_max: float = 1.0
    max_steps: int | None = None  # defaults to horizon
    window_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim is None:
            self.latent_dim = self.hidden_dim
        if self.dt_min is None:
            self.dt_min = 1.0 / self.horizon
        if self.max_steps is None:
            self.max_steps = self.horizon
        self.enc_hidden = tuple(int(w) for w in self.enc_hidden)
        checks = [
            (self.look_back >= 1, "look_back >= 1"),
            (self.horizon >= 1, "horizon >= 1"),
            (self.n_variates >= 1, "n_variates >= 1"),
            (self.hidden_dim >= 1, "hidden_dim >= 1"),
            (1 <= self.n_clusters <= self.n_variates, "1 <= n_clusters <= n_variates"),
            (self.mask_temp > 0, "mask_temp > 0"),
            (self.gumbel_temp > 0, "gumbel_temp > 0"),
            (0 < self.dt_min <= self.dt_max, "0 < dt_min <= dt_max"),
            (self.max_steps >= 1, "max_steps >= 1"),
            (all(w >= 1 for w in self.enc_hidden), "encoder widths >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(f"invalid ModelConfig: requires {msg}")


@dataclass
class ForecastPair:
    coarse: np.ndarray
    sched: np.ndarray
    fused: np.ndarray
    alpha: float


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _mlp_params(store, rng, prefix, dims):
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        store.add(f"{prefix}_w{i}", _glorot(rng, a, b))
        store.add(f"{prefix}_b{i}", np.zeros(b))


def _mlp_apply(store, prefix, x: Tensor, n_layers: int) -> Tensor:
    for i in range(n_layers):
        act = "tanh" if i < n_layers - 1 else None
        x = ad.linear(x, store[f"{prefix}_w{i}"], store[f"{prefix}_b{i}"], act)
    return x


class LeapTS:
    """Coarse forecaster plus adaptive scheduling branch over one config.

    ``ablation`` selects a variant: ``no_sched`` keeps only the coarse
    branch; ``no_high_level`` replaces the three-scale controller with a
    single length head over [1, horizon].
    """

    def __init__(self, config: ModelConfig, ablation: str = "none"):
        if ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
        self.config = config
        self.ablation = ablation
        self.anchors = self._build_anchors()
        self.cluster_of_variate = np.zeros(config.n_variates, dtype=np.int64)
        self.data_norm: tuple[np.ndarray, np.ndarray] | None = None
        self.store = ParamStore()
        self._build_params()

    # -- construction ---------------------------------------------------

    def _build_anchors(self) -> ScaleAnchors:
        cfg = self.config
        if self.ablation == "no_high_level":
            return ScaleAnchors(mins=(1,), maxs=(cfg.horizon,), degenerate=True)
        return scale_anchors(cfg.look_back, cfg.horizon)

    @property
    def n_categories(self) -> int:
        return self.anchors.n_categories

    @property
    def hierarchical(self) -> bool:
        return not self.anchors.degenerate

    def _build_params(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        store = self.store
        enc_dims = (cfg.look_back, *cfg.enc_hidden, cfg.latent_dim)
        _mlp_params(store, rng, "enc", enc_dims)
        store.add("coarse_w", _glorot(rng, cfg.latent_dim, cfg.horizon))
        store.add("coarse_b", np.zeros(cfg.horizon))
        if self.ablation == "no_sched":
            return
        store.add("fuse_logit", np.zeros(1))
        store.add("state_init_w", _glorot(rng, cfg.latent_dim, cfg.hidden_dim))
        store.add("state_init_b", np.zeros(cfg.hidden_dim))
        if self.hierarchical:
            store.add("category_proj", _glorot(rng, cfg.hidden_dim, 3))
        for name in self.anchors.category_names():
            store.add(f"len_head_{name}_w", _glorot(rng, cfg.hidden_dim, 1))
            store.add(f"len_head_{name}_b", np.zeros(1))
            store.add(f"seg_head_{name}_w", _glorot(rng, cfg.hidden_dim, cfg.horizon))
            store.add(f"seg_head_{name}_b", np.zeros(cfg.horizon))
        store.add("summary_w", _glorot(rng, cfg.horizon, cfg.summary_dim))
        store.add("summary_b", np.zeros(cfg.summary_dim))
        ctx_dim = 2 + self.n_categories + cfg.summary_dim
        store.add("control_w", _glorot(rng, ctx_dim, cfg.control_dim))
        store.add("control_b", np.zeros(cfg.control_dim))
        field_in = cfg.hidden_dim + cfg.control_dim
        for g in range(cfg.n_clusters):
            _mlp_params(
                store, rng, f"ctrl_field_g{g}",
                (field_in, cfg.field_hidden, cfg.hidden_dim * cfg.control_dim),
            )
            _mlp_params(
                store, rng, f"time_field_g{g}",
                (field_in, cfg.field_hidden, cfg.hidden_dim),
            )

    # -- forward operations over rows ------------------------------------

    def encode_rows(self, histories: Tensor) -> Tensor:
        """Shared encoder over rows: [R x L] -> [R x latent_dim]."""
        return _mlp_apply(self.store, "enc", histories, len(self.config.enc_hidden) + 1)

    def coarse_rows(self, z_rows: Tensor) -> Tensor:
        """Linear projection per row: [R x latent_dim] -> [R x P]."""
        return ad.linear(z_rows, self.store["coarse_w"], self.store["coarse_b"])

    def init_state_rows(self, z_rows: Tensor) -> Tensor:
        """Initial controller state: tanh of a learned projection of z."""
        s = self.store
        return ad.linear(z_rows, s["state_init_w"], s["state_init_b"], "tanh")

    @property
    def alpha(self) -> float:
        if "fuse_logit" not in self.store:
            return 0.0
        return float(ad._stable_sigmoid(self.store["fuse_logit"].data)[0])

    def fuse(self, coarse: Tensor, sched: Tensor) -> Tensor:
        """fused = coarse + sigmoid(fuse_logit) * sched, elementwise."""
        if coarse.shape != sched.shape:
            raise ShapeError(f"fuse: {coarse.shape} vs {sched.shape}")
        gate = ad.sigmoid(self.store["fuse_logit"])
        return ad.add(coarse, ad.mul(sched, gate))

    # -- persistence ------------------------------------------------------

    def save(self, path):
        header = {
            "magic": CHECKPOINT_MAGIC,
            "config": asdict(self.config),
            "ablation": self.ablation,
            "clusters": self.cluster_of_variate.tolist(),
            "data_norm": None
            if self.data_norm is None
            else {"mean": self.data_norm[0].tolist(), "std": self.data_norm[1].tolist()},
            "params": [
                {"name": n, "shape": list(t.data.shape)} for n, t in self.store.params.items()
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for _, t in self.store.params.items():
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "LeapTS":
        """Read a checkpoint written by ``save``. A file that departs from
        the format in docs/formats.md raises ``DataError`` naming it."""
        with open(path, "rb") as fh:
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise DataError(f"{path}: not a readable checkpoint header") from exc
            magic = header.get("magic") if isinstance(header, dict) else None
            if magic != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: bad checkpoint magic {magic!r}")
            missing = [k for k in ("config", "ablation", "clusters", "params") if k not in header]
            if missing:
                raise DataError(f"{path}: checkpoint header lacks {missing}")
            try:
                model = cls(ModelConfig(**header["config"]), ablation=header["ablation"])
                clusters = np.asarray(header["clusters"], dtype=np.int64)
                norm = header.get("data_norm")
                if norm is not None:
                    norm = (np.asarray(norm["mean"], dtype=np.float64),
                            np.asarray(norm["std"], dtype=np.float64))
                manifest = {e["name"]: tuple(e["shape"]) for e in header["params"]}
            except (ConfigError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
            n, g = model.config.n_variates, model.config.n_clusters
            if clusters.shape != (n,) or np.any((clusters < 0) | (clusters >= g)):
                raise DataError(f"{path}: clusters must map {n} variates into 0..{g - 1}")
            if norm is not None and any(a.shape != (n,) for a in norm):
                raise DataError(f"{path}: data_norm must hold {n} means and {n} stds")
            expected = {k: t.data.shape for k, t in model.store.params.items()}
            problems = [f"unexpected parameter {k!r}" for k in manifest if k not in expected]
            problems += [f"missing parameter {k!r}" for k in expected if k not in manifest]
            problems += [
                f"parameter {k!r} has shape {manifest[k]}, model needs {shape}"
                for k, shape in expected.items()
                if manifest.get(k, shape) != shape
            ]
            if len(manifest) != len(header["params"]):
                problems.append("a parameter is listed twice")
            if problems:
                raise DataError(f"{path}: manifest does not match the model: {'; '.join(problems)}")
            model.cluster_of_variate = clusters
            model.data_norm = norm
            for name in manifest:
                t = model.store.params[name]
                buf = fh.read(8 * t.data.size)
                if len(buf) != 8 * t.data.size:
                    raise DataError(f"{path}: truncated data for parameter {name!r}")
                t.data = np.frombuffer(buf, dtype="<f8").reshape(t.data.shape).astype(np.float64)
            if fh.read(1):
                raise DataError(f"{path}: trailing bytes after the parameter data")
        return model

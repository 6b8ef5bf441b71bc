"""Deterministic synthetic benchmark generators.

Three scenarios built on a classical fixed-step RK4 integrator:

1. Thirty heterogeneous variates in three latent clusters of ten
   trajectories each: Van der Pol relaxation oscillations (mu=2, observed
   with N(0, 0.05^2) noise), FitzHugh-Nagumo spikes driven by a periodic
   pulse current, and a damped harmonic oscillator whose state is reset
   every 2000 steps from U(-2, 2). dt = 0.05.
2. Brusselator (X, Y) whose bifurcation parameter B(t) = 2.5 + 2 U(t) is
   modulated by a slow driver U tracking 1 + 0.5 sin(0.1 t) with a
   first-order lag. dt = 0.05.
3. The z coordinate of the Lorenz system (sigma=10, rho=28, beta=8/3)
   with x and y hidden. dt = 0.02. It is integrated on Python floats
   with `integrate_ode`'s arithmetic in the same order, so it equals
   `integrate_ode` on the array field bit for bit, without numpy's
   per-call overhead on three-element arrays.

All generators are pure functions of their spec (bit-reproducible).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, check_types

__all__ = [
    "ScenarioSpec",
    "TrajectoryBatch",
    "integrate_ode",
    "gen_scenario1",
    "gen_scenario2",
    "gen_scenario3",
    "generate",
    "write_csv",
]

SCENARIO_DT = {1: 0.05, 2: 0.05, 3: 0.02}
RESET_PERIOD = 2000


@dataclass
class ScenarioSpec:
    scenario: int
    total_steps: int = 20000
    dt: float | None = None
    seed: int = 0
    observation_noise: bool = True
    hide_driver: bool = False

    def __post_init__(self):
        check_types(self, ints=("scenario", "total_steps", "seed"),
                    bools=("observation_noise", "hide_driver"))
        if self.scenario not in (1, 2, 3):
            raise ConfigError(f"unknown scenario {self.scenario}; expected 1, 2, or 3")
        # scenario 2 alone has a driver to hide, scenario 1 alone adds noise
        for setting, given, only in (("hide_driver", self.hide_driver, 2),
                                     ("observation_noise=False", not self.observation_noise, 1)):
            if given and self.scenario != only:
                raise ConfigError(f"{setting} has no effect outside scenario {only} "
                                  f"(scenario {self.scenario})")
        if self.dt is None:
            self.dt = SCENARIO_DT[self.scenario]
        check_types(self, floats=("dt",))
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrajectoryBatch:
    values: np.ndarray  # [T x N]
    columns: list[str]
    spec: ScenarioSpec
    metadata: dict = field(default_factory=dict)


def integrate_ode(field_fn, x0, n_steps: int, dt: float, t0: float = 0.0, substeps: int = 1) -> np.ndarray:
    """Classical fixed-step RK4. Row 0 is the initial state; row i is the
    state at time t0 + i*dt. ``field_fn(t, x)`` must return an array
    shaped like ``x``.

    ``substeps`` subdivides each recorded interval into equal RK4 steps
    (for stiff spikes whose stability limit sits below the sampling dt);
    the output grid stays at spacing ``dt``.
    """
    if dt <= 0 or n_steps < 1 or substeps < 1:
        raise ConfigError("integrate_ode: need dt > 0, n_steps >= 1, substeps >= 1")
    x = np.array(x0, dtype=np.float64)
    out = np.empty((n_steps, *x.shape))
    out[0] = x
    h = dt / substeps
    for i in range(1, n_steps):
        for j in range(substeps):
            t = t0 + (i - 1) * dt + j * h
            k1 = field_fn(t, x)
            k2 = field_fn(t + h / 2.0, x + h / 2.0 * k1)
            k3 = field_fn(t + h / 2.0, x + h / 2.0 * k2)
            k4 = field_fn(t + h, x + h * k3)
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"integrate_ode: non-finite state at step {i}")
        out[i] = x
    return out


def _rk4_floats(field_fn, x0, n_steps: int, dt: float, t0: float = 0.0, substeps: int = 1):
    """`integrate_ode` for a 3-vector state on Python floats: the same
    steps, times and arithmetic in the same order, so the same bits.
    ``field_fn(t, a, b, c)`` returns the three derivatives."""
    a, b, c = map(float, x0)
    out = array("d", (a, b, c))
    h = dt / substeps
    h2, h6 = h / 2.0, h / 6.0
    for i in range(1, n_steps):
        for j in range(substeps):
            t = t0 + (i - 1) * dt + j * h
            k1a, k1b, k1c = field_fn(t, a, b, c)
            k2a, k2b, k2c = field_fn(t + h2, a + h2 * k1a, b + h2 * k1b, c + h2 * k1c)
            k3a, k3b, k3c = field_fn(t + h2, a + h2 * k2a, b + h2 * k2b, c + h2 * k2c)
            k4a, k4b, k4c = field_fn(t + h, a + h * k3a, b + h * k3b, c + h * k3c)
            a = a + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            b = b + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            c = c + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise NumericError(f"integrate_ode: non-finite state at step {i}")
        out.extend((a, b, c))
    return np.frombuffer(out).reshape(n_steps, 3)


def _van_der_pol(t, x, mu=2.0):
    y1, y2 = x[..., 0], x[..., 1]
    return np.stack([y2, mu * (1.0 - y1 * y1) * y2 - y1], axis=-1)


def _fitzhugh_nagumo(t, x):
    v, w = x[..., 0], x[..., 1]
    current = 0.5 if (t % 50.0) < 2.0 else 0.0
    dv = v - v**3 / 3.0 - w + current
    dw = 0.08 * (v + 0.7 - 0.8 * w)
    return np.stack([dv, dw], axis=-1)


def _damped_oscillator(t, x):
    y1, y2 = x[..., 0], x[..., 1]
    return np.stack([y2, -0.15 * y2 - 1.0 * y1], axis=-1)


def gen_scenario1(spec: ScenarioSpec) -> TrajectoryBatch:
    """Three clusters of ten independent trajectories; first coordinate
    observed. Observation noise applies to the Van der Pol cluster only."""
    if spec.scenario != 1:
        raise ConfigError(f"gen_scenario1: spec.scenario is {spec.scenario}")
    rng = np.random.default_rng(spec.seed)
    t_steps, dt = spec.total_steps, spec.dt

    ic_a = rng.uniform(-2.0, 2.0, size=(10, 2))
    ic_b = rng.uniform(-2.0, 2.0, size=(10, 2))
    ic_c = rng.uniform(-2.0, 2.0, size=(10, 2))

    traj_a = integrate_ode(_van_der_pol, ic_a, t_steps, dt)[..., 0]
    traj_b = integrate_ode(_fitzhugh_nagumo, ic_b, t_steps, dt)[..., 0]

    traj_c = np.empty((t_steps, 10))
    reset_indices = list(range(RESET_PERIOD, t_steps, RESET_PERIOD))
    state = ic_c
    start = 0
    for stop in reset_indices + [t_steps]:
        seg = integrate_ode(_damped_oscillator, state, stop - start, dt, t0=start * dt)
        traj_c[start:stop] = seg[..., 0]
        if stop < t_steps:
            state = rng.uniform(-2.0, 2.0, size=(10, 2))
        start = stop

    if spec.observation_noise:
        traj_a = traj_a + rng.normal(0.0, 0.05, size=traj_a.shape)

    values = np.concatenate([traj_a, traj_b, traj_c], axis=1)
    return TrajectoryBatch(
        values=values,
        columns=[f"v{i + 1}" for i in range(30)],
        spec=spec,
        metadata={
            "clusters": {
                "van_der_pol": list(range(0, 10)),
                "fitzhugh_nagumo": list(range(10, 20)),
                "damped_oscillator": list(range(20, 30)),
            },
            "observed_coordinate": "first state component of each system",
            "reset_indices": reset_indices,
        },
    )


def _brusselator_driven(t, x):
    bx, by, u = x[..., 0], x[..., 1], x[..., 2]
    b_t = 2.5 + 2.0 * u
    dx = 1.0 + bx * bx * by - (b_t + 1.0) * bx
    dy = b_t * bx - bx * bx * by
    du = 0.2 * ((1.0 + 0.5 * np.sin(0.1 * t)) - u)
    return np.stack([dx, dy, du], axis=-1)


def gen_scenario2(spec: ScenarioSpec) -> TrajectoryBatch:
    """Driver-modulated Brusselator; columns (X, Y, U), or (X, Y) when the
    driver is hidden.

    The relaxation spikes near the upper driver extreme put the RK4
    stability limit below the 0.05 sampling interval, so integration runs
    on internal substeps and samples every dt.
    """
    if spec.scenario != 2:
        raise ConfigError(f"gen_scenario2: spec.scenario is {spec.scenario}")
    traj = integrate_ode(
        _brusselator_driven, np.array([1.0, 1.0, 1.0]), spec.total_steps, spec.dt, substeps=10
    )
    values, columns = traj, ["X", "Y", "U"]
    if spec.hide_driver:
        values, columns = traj[:, :2], ["X", "Y"]
    return TrajectoryBatch(
        values=np.ascontiguousarray(values),
        columns=columns,
        spec=spec,
        metadata={"driver_hidden": spec.hide_driver, "initial_state": [1.0, 1.0, 1.0]},
    )


def _lorenz(t, x, y, z, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    return sigma * (y - x), x * (rho - z) - y, x * y - beta * z


def gen_scenario3(spec: ScenarioSpec) -> TrajectoryBatch:
    """Lorenz z coordinate only; x and y stay hidden."""
    if spec.scenario != 3:
        raise ConfigError(f"gen_scenario3: spec.scenario is {spec.scenario}")
    rng = np.random.default_rng(spec.seed)
    x0 = rng.uniform(-2.0, 2.0, size=3)
    traj = _rk4_floats(_lorenz, x0, spec.total_steps, spec.dt)
    return TrajectoryBatch(
        values=traj[:, 2:3].copy(),
        columns=["z"],
        spec=spec,
        metadata={"hidden_coordinates": ["x", "y"], "initial_state": x0.tolist()},
    )


def generate(spec: ScenarioSpec) -> TrajectoryBatch:
    return {1: gen_scenario1, 2: gen_scenario2, 3: gen_scenario3}[spec.scenario](spec)


def write_csv(batch: TrajectoryBatch, path):
    """CSV (header t,v1,...,vN; t = step * dt) plus a JSON spec sidecar."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(batch.columns) + "\n")
        dt = batch.spec.dt
        for i, row in enumerate(batch.values):
            fh.write(repr(i * dt) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    sidecar = path[: path.rfind(".")] + ".json" if "." in path else path + ".json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {"spec": asdict(batch.spec), "columns": batch.columns, "metadata": batch.metadata},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return sidecar

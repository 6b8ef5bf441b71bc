import hashlib
import json
import math

import numpy as np
import pytest

from leapts.errors import ConfigError, NumericError
from leapts.synth import (
    ScenarioSpec,
    _lorenz,
    _rk4_floats,
    gen_scenario1,
    gen_scenario2,
    gen_scenario3,
    generate,
    integrate_ode,
    write_csv,
)


def lorenz_array(t, x, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """The Lorenz field on arrays, for `integrate_ode`: the oracle of the
    scenario-3 generator, which integrates the same field on floats."""
    lx, ly, lz = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([sigma * (ly - lx), lx * (rho - lz) - ly, lx * ly - beta * lz], axis=-1)


# -- RK4 ----------------------------------------------------------------------


def test_constant_field_stays_constant():
    out = integrate_ode(lambda t, x: np.zeros_like(x), np.array([1.0]), 50, 0.1)
    assert np.array_equal(out, np.ones((50, 1)))


def test_exponential_decay_matches_closed_form():
    out = integrate_ode(lambda t, x: -x, np.array([1.0]), 101, 0.01)
    assert abs(out[100, 0] - math.exp(-1.0)) < 1e-6


def test_harmonic_oscillator_energy_drift():
    def field(t, x):
        return np.array([x[1], -x[0]])

    out = integrate_ode(field, np.array([1.0, 0.0]), 10_001, 0.02)
    energy = 0.5 * (out[:, 0] ** 2 + out[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() / energy[0] < 1e-4


def test_time_dependent_field_uses_time():
    # dx/dt = sin(t): x(t) = 1 - cos(t)
    out = integrate_ode(lambda t, x: np.array([math.sin(t)]), np.array([0.0]), 1001, 0.01)
    assert abs(out[-1, 0] - (1.0 - math.cos(10.0))) < 1e-8


def test_nonfinite_state_names_step():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"step \d+"):
            integrate_ode(lambda t, x: x * x, np.array([10.0]), 500, 0.5)


def test_integrate_validates_args():
    with pytest.raises(ConfigError):
        integrate_ode(lambda t, x: x, np.array([1.0]), 0, 0.1)
    with pytest.raises(ConfigError):
        integrate_ode(lambda t, x: x, np.array([1.0]), 5, -0.1)


# -- scenario contracts ----------------------------------------------------------


def small_spec(scenario, steps=4000, **kw):
    return ScenarioSpec(scenario=scenario, total_steps=steps, seed=7, **kw)


def test_scenario_shapes_default():
    assert generate(ScenarioSpec(1, total_steps=500)).values.shape == (500, 30)
    assert generate(ScenarioSpec(2, total_steps=500)).values.shape == (500, 3)
    assert generate(ScenarioSpec(3, total_steps=500)).values.shape == (500, 1)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_determinism_bit_exact(scenario):
    a = generate(small_spec(scenario, steps=1000))
    b = generate(small_spec(scenario, steps=1000))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_all_values_finite(scenario):
    batch = generate(small_spec(scenario, steps=3000))
    assert np.all(np.isfinite(batch.values))


def test_scenario_guards():
    with pytest.raises(ConfigError):
        gen_scenario1(small_spec(2))
    with pytest.raises(ConfigError):
        gen_scenario2(small_spec(3))
    with pytest.raises(ConfigError):
        gen_scenario3(small_spec(1))
    with pytest.raises(ConfigError):
        ScenarioSpec(scenario=4)


@pytest.mark.parametrize("field, value", [("scenario", True), ("scenario", 3.0),
                                          ("total_steps", 2.5), ("total_steps", True),
                                          ("seed", True), ("seed", 0.5),
                                          ("observation_noise", 1), ("hide_driver", "no")])
def test_integer_fields_refuse_booleans_and_floats(field, value):
    """``ScenarioSpec(True)`` ran as scenario 1 and a float step count ended
    in a bare TypeError; each now names its field. The two switches take
    only bools: ``hide_driver="no"`` dropped the driver column. Numpy
    integers become Python ints."""
    with pytest.raises(ConfigError, match=f"{field} has the wrong type"):
        ScenarioSpec(**{"scenario": 3, field: value})
    spec = ScenarioSpec(np.int64(3), total_steps=np.int64(5), seed=np.int32(1))
    assert [type(v) for v in (spec.scenario, spec.total_steps, spec.seed)] == [int] * 3


@pytest.mark.parametrize("scenario, field, value", [
    (1, "hide_driver", True), (3, "hide_driver", True),
    (2, "observation_noise", False), (3, "observation_noise", False),
])
def test_switches_without_an_effect_are_refused(scenario, field, value):
    """Only scenario 2 has a driver to hide and only scenario 1 adds
    observation noise; elsewhere either switch wrote the same series."""
    with pytest.raises(ConfigError, match=rf"^{field}(=False)? has no effect outside scenario "
                                          rf"\d \(scenario {scenario}\)$"):
        ScenarioSpec(scenario, **{field: value})


# -- scenario 1 -------------------------------------------------------------------


def test_van_der_pol_limit_cycle_amplitude():
    batch = gen_scenario1(small_spec(1, steps=4000))  # t up to 200
    after = batch.values[1001:, :10]  # t > 50
    peaks = np.abs(after).max(axis=0)
    assert np.all(peaks >= 1.5) and np.all(peaks <= 2.5)


def test_cluster_c_resets_at_exact_multiples():
    batch = gen_scenario1(small_spec(1, steps=6000))
    assert batch.metadata["reset_indices"] == [2000, 4000]
    c = batch.values[:, 20:]
    steps = np.abs(np.diff(c, axis=0)).max(axis=1)
    # smooth oscillator: |dy1| <= |y2| * dt * O(1); jumps at resets dominate
    smooth_bound = 0.5
    jump_rows = set(np.flatnonzero(steps > smooth_bound) + 1)
    assert {2000, 4000} <= jump_rows
    assert all(r in (2000, 4000) for r in jump_rows)


def test_cluster_a_noise_toggle():
    noisy = gen_scenario1(small_spec(1, steps=500))
    clean = gen_scenario1(small_spec(1, steps=500, observation_noise=False))
    assert not np.array_equal(noisy.values[:, :10], clean.values[:, :10])
    assert np.array_equal(noisy.values[:, 10:], clean.values[:, 10:])  # B, C noiseless


# -- scenario 2 -------------------------------------------------------------------


def test_driver_tracks_target_within_lag_envelope():
    batch = gen_scenario2(small_spec(2, steps=8000))
    u = batch.values[200:, 2]
    assert np.all(u >= 1.0 - 0.5 - 0.02)
    assert np.all(u <= 1.0 + 0.5 + 0.02)


def test_brusselator_positive_and_finite():
    batch = gen_scenario2(small_spec(2, steps=20000))
    assert np.all(np.isfinite(batch.values))
    assert np.all(batch.values[:, :2] > 0.0)


def test_hide_driver_drops_column():
    batch = gen_scenario2(small_spec(2, steps=300, hide_driver=True))
    assert batch.values.shape == (300, 2)
    assert batch.columns == ["X", "Y"]


# -- scenario 3 -------------------------------------------------------------------


def test_lorenz_z_bounded_after_transient():
    batch = gen_scenario3(small_spec(3, steps=20000))
    z = batch.values[100:, 0]
    assert np.all(z > 0.0) and np.all(z < 60.0)


def test_lorenz_sensitivity_to_initial_conditions():
    spec = small_spec(3, steps=20000)
    rng = np.random.default_rng(spec.seed)
    x0 = rng.uniform(-2.0, 2.0, size=3)
    a = integrate_ode(lorenz_array, x0, spec.total_steps, spec.dt)
    b = integrate_ode(lorenz_array, x0 + np.array([1e-8, 0.0, 0.0]), spec.total_steps, spec.dt)
    assert np.abs(a[:, 2] - b[:, 2]).max() > 1.0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_float_rk4_equals_integrate_ode_bit_for_bit(seed):
    """Scenario 3 integrates on Python floats; every state, hidden x and y
    included, equals `integrate_ode` on the array field. Row i of
    `integrate_ode` does not depend on ``n_steps``, so one 20,000-step
    oracle covers the shorter generators too."""
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=3)
    want = integrate_ode(lorenz_array, x0, 20000, 0.02)
    assert np.array_equal(_rk4_floats(_lorenz, x0, 20000, 0.02), want)
    for steps in (1, 2, 4000, 20000):
        batch = gen_scenario3(ScenarioSpec(3, total_steps=steps, seed=seed))
        assert batch.values.shape == (steps, 1)
        assert np.array_equal(batch.values[:, 0], want[:steps, 2])
        assert batch.metadata["initial_state"] == x0.tolist()


def test_float_rk4_overflow_names_the_step():
    """A state that overflows at its fourth step raises where the array
    oracle does, naming that step."""
    x0 = [1e3, -1e3, 1e3]
    message = "^integrate_ode: non-finite state at step 4$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=message):
            integrate_ode(lorenz_array, np.array(x0), 50, 0.02)
    with pytest.raises(NumericError, match=message):
        _rk4_floats(_lorenz, x0, 50, 0.02)


@pytest.mark.parametrize(
    "scenario, steps, digest",
    [
        (1, 2400, "daf586b4a53618e54a84da99c89f09b5e46ca46076bdd11064660c753653f090"),
        (2, 600, "273e2312317a00fb686238d9e6d5d237d8d58bee94914bc6e1ae060d5187936e"),
        (3, 4000, "d3986947dd448d3bb6e1199eff84e66194ea53c2dbea2f8a75f74a5033bf82d7"),
    ],
)
def test_generated_values_are_pinned(scenario, steps, digest):
    """SHA-256 of each scenario's little-endian float64 values at seed 0.
    Scenario 1 passes its first cluster-C reset at step 2000."""
    values = generate(ScenarioSpec(scenario, total_steps=steps, seed=0)).values
    assert values.dtype == np.float64 and values.shape[0] == steps
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == digest


# -- CSV output -------------------------------------------------------------------


def test_write_csv_and_sidecar_roundtrip(tmp_path):
    batch = gen_scenario3(small_spec(3, steps=50))
    path = tmp_path / "s3.csv"
    sidecar = write_csv(batch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,z"
    assert len(lines) == 51
    meta = json.loads((tmp_path / "s3.json").read_text())
    assert meta["spec"]["scenario"] == 3
    assert meta["spec"]["dt"] == 0.02

    from leapts.data import load_csv

    ds = load_csv(path)
    assert ds.values.shape == (50, 1)
    assert np.array_equal(ds.values[:, 0], batch.values[:, 0])  # repr round-trips exactly


def test_write_csv_deterministic_bytes(tmp_path):
    for name in ("a.csv", "b.csv"):
        write_csv(gen_scenario2(small_spec(2, steps=100)), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scenario3_csv_and_sidecar_bytes_are_pinned(tmp_path):
    sidecar = write_csv(gen_scenario3(ScenarioSpec(3, total_steps=4, seed=0)), tmp_path / "s3.csv")
    assert (tmp_path / "s3.csv").read_bytes() == (
        b"t,z\n"
        b"0.0,-1.8361059042552212\n"
        b"0.02,-1.7471708473360068\n"
        b"0.04,-1.65896469714246\n"
        b"0.06,-1.5736407774099301\n"
    )
    digest = hashlib.sha256(open(sidecar, "rb").read()).hexdigest()
    assert digest == "46471980cd1e6b98843d1c79f1c78043846e2fa0e838bef9db647385680c2ed7"

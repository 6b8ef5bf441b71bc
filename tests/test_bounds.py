import itertools

import numpy as np
import pytest

from leapts.bounds import (
    BoundInstance,
    bound_direct,
    bound_leapts_optimal,
    bound_recursive,
)
from leapts.errors import ConfigError


def compositions(P: int):
    """All ordered partitions of P into positive integers (2^(P-1) of them):
    the enumeration oracle of the dynamic program."""
    if P == 1:
        yield (1,)
        return
    for first in range(1, P + 1):
        if first == P:
            yield (P,)
        else:
            for rest in compositions(P - first):
                yield (first, *rest)


def test_worked_instance():
    inst = BoundInstance(lam=2.0, eps_a=1.0, eps_p=2.0, P=4)
    assert bound_direct(inst) == 16.0
    assert bound_recursive(inst) == 15.0
    res = bound_leapts_optimal(inst)
    assert res.value == 15.0
    assert res.best_partition == (1, 1, 1, 1)
    assert res.best_alpha_endpoint == 1.0
    assert not res.attained


def test_direct_is_eps_of_horizon():
    inst = BoundInstance(lam=1.5, eps_a=1.0, eps_p=2.0, P=4)
    assert bound_direct(inst) == 16.0


def test_recursive_lambda_one_limit():
    inst = BoundInstance(lam=1.0, eps_a=1.0, eps_p=2.0, P=4)
    assert bound_recursive(inst) == 4.0


def test_composition_count():
    for P in (1, 2, 5, 8):
        parts = list(compositions(P))
        assert len(parts) == 2 ** (P - 1)
        assert all(sum(p) == P for p in parts)
        assert len(set(parts)) == len(parts)


def test_assumption_violations_rejected():
    with pytest.raises(ConfigError):
        BoundInstance(lam=0.9, eps_a=1.0, eps_p=2.0, P=4)
    with pytest.raises(ConfigError):
        BoundInstance(lam=2.0, eps_a=1.0, eps_p=1.0, P=4)
    with pytest.raises(ConfigError):
        BoundInstance(lam=2.0, eps_a=-1.0, eps_p=2.0, P=4)


@pytest.mark.parametrize("field", ["lam", "eps_a", "eps_p"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(field, value):
    """A NaN term never beats ``rest[c]`` in the dynamic program, so its
    partition walk would not advance; infinities make non-JSON output."""
    kw = {"lam": 1.1, "eps_a": 1.0, "eps_p": 1.5, "P": 4, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        BoundInstance(**kw)


@pytest.mark.parametrize("field, value", [("P", 2.5), ("P", True), ("lam", True),
                                          ("eps_a", "1.0"), ("eps_p", None)])
def test_wrong_typed_parameters_rejected(field, value):
    """A float or boolean horizon, a boolean or non-numeric term: a
    `ConfigError` naming the field, not a bare TypeError from the bound. The
    frozen instance still turns a numpy horizon into a Python int."""
    kw = {"lam": 1.1, "eps_a": 1.0, "eps_p": 2.0, "P": 4, field: value}
    with pytest.raises(ConfigError, match=f"{field} has the wrong type"):
        BoundInstance(**kw)
    assert type(BoundInstance(lam=1.1, eps_a=1.0, eps_p=2.0, P=np.int64(4)).P) is int


def exhaustive_optimum(inst):
    """Oracle: the first composition (in enumeration order) with the least
    term, and min(direct, that term)."""
    best_term, best_part = np.inf, None
    for part in compositions(inst.P):
        tau = np.cumsum(part)
        term = 0.0
        for length, t in zip(part, tau):
            term += inst.lam ** (inst.P - t) * inst.eps(length)
        if term < best_term:
            best_term, best_part = term, part
    return min(bound_direct(inst), best_term), best_part


def test_dynamic_program_matches_exhaustive_search():
    rng = np.random.default_rng(1)
    for P in range(1, 17):
        for _ in range(3 if P <= 12 else 1):
            inst = BoundInstance(
                lam=float(rng.uniform(1.0, 3.0)),
                eps_a=float(rng.uniform(0.05, 2.0)),
                eps_p=float(rng.uniform(1.01, 3.0)),
                P=P,
            )
            value, partition = exhaustive_optimum(inst)
            res = bound_leapts_optimal(inst)
            assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert res.best_partition == partition


def test_long_horizon_has_no_enumeration_cap():
    res = bound_leapts_optimal(BoundInstance(lam=1.0, eps_a=1.0, eps_p=2.0, P=200))
    assert res.best_partition == (1,) * 200  # unit steps win without amplification
    assert res.value == 200.0


def test_endpoint_recovery_and_theorem_direction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        inst = BoundInstance(
            lam=float(rng.uniform(1.0, 3.0)),
            eps_a=float(rng.uniform(0.05, 2.0)),
            eps_p=float(rng.uniform(1.01, 3.0)),
            P=int(rng.integers(2, 10)),
        )
        res = bound_leapts_optimal(inst)
        assert res.value <= bound_direct(inst) + 1e-9
        assert res.value <= bound_recursive(inst) + 1e-9


def test_matches_dense_alpha_grid_oracle():
    """Brute force over a fine alpha grid and all partitions. The grid
    cannot reach the open-interval infimum (it stops at alpha = 0.999),
    so the check is: grid minimum >= B*, the gap is exactly the bracket
    evaluated at the closest grid point, and B* = min(direct, best term)."""
    inst = BoundInstance(lam=1.0001, eps_a=1.0, eps_p=1.5, P=6)
    res = bound_leapts_optimal(inst)
    alphas = np.linspace(0.001, 0.999, 999)
    direct = bound_direct(inst)
    grid_best = np.inf
    best_term = np.inf
    for part in compositions(6):
        tau = np.cumsum(part)
        term = sum(inst.lam ** (inst.P - t) * inst.eps(l) for l, t in zip(part, tau))
        best_term = min(best_term, term)
        vals = (1 - alphas) * direct + alphas * term
        grid_best = min(grid_best, vals.min())
    assert res.value == pytest.approx(min(direct, best_term), abs=1e-12)
    assert grid_best >= res.value
    predicted_gap = 0.001 * (direct - best_term)  # best term wins here
    assert grid_best - res.value == pytest.approx(predicted_gap, abs=1e-6)


def test_alpha_attainment_flag():
    # schedule strictly better than direct -> endpoint alpha=1, not attained
    res = bound_leapts_optimal(BoundInstance(lam=1.0, eps_a=1.0, eps_p=2.0, P=4))
    assert res.best_alpha_endpoint == 1.0 and not res.attained
    # P=1: only partition (1,) and its term equals eps(1)*lam^0 = direct
    res = bound_leapts_optimal(BoundInstance(lam=2.0, eps_a=1.0, eps_p=2.0, P=1))
    assert res.attained

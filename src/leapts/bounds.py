"""Numerical simulator for the multi-horizon error-bound comparison.

Setting: single-pass prediction over a horizon P has approximation error
eps(l) = a * l**p with p > 1 (strictly superadditive), and the latent
dynamics amplify carried-over error by a Lipschitz factor lambda >= 1 per
step. Three bounds are compared:

- direct:     eps(P), one shot over the whole horizon;
- recursive:  eps(1) * (lambda**P - 1) / (lambda - 1), P unit steps;
- scheduled:  the infimum over fusion gates alpha in (0, 1) and ordered
  partitions (l_1..l_K) of P of
      (1 - alpha) * eps(P) + alpha * sum_k lambda**(P - tau_k) * eps(l_k),
  tau_k the cumulative steps. The bracket is affine in alpha, so the
  infimum sits at an endpoint of the open interval and equals
  min(eps(P), best schedule term); it is attained only if both sides tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BoundInstance",
    "BoundResult",
    "bound_direct",
    "bound_recursive",
    "bound_leapts_optimal",
]


@dataclass(frozen=True)
class BoundInstance:
    lam: float
    eps_a: float
    eps_p: float
    P: int

    def __post_init__(self):
        for name in ("lam", "eps_a", "eps_p"):  # NaN terms stall the partition walk
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 1.0:
            raise ConfigError(f"lambda must be >= 1, got {self.lam}")
        if self.eps_a <= 0:
            raise ConfigError(f"eps amplitude must be positive, got {self.eps_a}")
        if self.eps_p <= 1.0:
            raise ConfigError(
                f"eps exponent must exceed 1 for strict superadditivity, got {self.eps_p}"
            )
        if self.P < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.P}")

    def eps(self, length) -> float:
        return self.eps_a * float(length) ** self.eps_p


@dataclass
class BoundResult:
    value: float
    best_partition: tuple[int, ...]
    best_alpha_endpoint: float  # 0.0 or 1.0
    attained: bool  # infimum reached inside the open alpha interval


def bound_direct(inst: BoundInstance) -> float:
    return inst.eps(inst.P)


def bound_recursive(inst: BoundInstance) -> float:
    """eps(1) * sum_{i=0}^{P-1} lambda^i (the lambda=1 limit is P*eps(1))."""
    powers = np.power(inst.lam, np.arange(inst.P, dtype=np.float64))
    return inst.eps(1) * float(powers.sum())


def _schedule_term(inst: BoundInstance, partition) -> float:
    total = 0.0
    tau = 0
    for length in partition:
        tau += length
        total += inst.lam ** (inst.P - tau) * inst.eps(length)
    return total


def bound_leapts_optimal(inst: BoundInstance) -> BoundResult:
    """Best schedule by an O(P^2) dynamic program over the cursor.

    rest[c] is the least term of the steps after the first c horizon
    points; its first step is the shortest length that attains it, so the
    walk from c = 0 yields the lexicographically first optimal partition,
    the one an in-order enumeration of all 2^(P-1) ordered partitions
    keeps. The value is that partition's term summed in schedule order.
    """
    P = inst.P
    rest = [0.0] * (P + 1)
    step = [0] * (P + 1)
    for c in range(P - 1, -1, -1):
        rest[c] = np.inf
        for length in range(1, P - c + 1):
            term = inst.lam ** (P - c - length) * inst.eps(length) + rest[c + length]
            if term < rest[c]:
                rest[c], step[c] = term, length
    best_partition, c = [], 0
    while c < P:
        best_partition.append(step[c])
        c += step[c]
    best_partition = tuple(best_partition)
    best_sched = _schedule_term(inst, best_partition)
    direct = bound_direct(inst)
    if best_sched < direct:
        return BoundResult(best_sched, best_partition, best_alpha_endpoint=1.0, attained=False)
    if best_sched > direct:
        return BoundResult(direct, best_partition, best_alpha_endpoint=0.0, attained=False)
    return BoundResult(direct, best_partition, best_alpha_endpoint=1.0, attained=True)

"""Finite-difference gradient checking utilities.

Central differences at a configurable perturbation; the comparison is
relative with an absolute floor so that near-zero gradients are checked
absolutely instead of dividing noise by noise.
"""

from __future__ import annotations

import numpy as np

from leapts.optim import ParamStore

__all__ = ["finite_difference_grads", "max_relative_error"]


def finite_difference_grads(
    loss_fn,
    store: ParamStore,
    h: float = 1e-5,
    names=None,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``loss_fn()`` w.r.t. store parameters.

    ``loss_fn`` must be a pure function of the current parameter values
    (re-run the forward pass, return a float). Parameters are restored
    exactly after probing.
    """
    out = {}
    for name in names if names is not None else store.names():
        t = store[name]
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        out[name] = g.reshape(t.data.shape)
    return out


def max_relative_error(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    floor: float = 1e-6,
) -> tuple[float, str]:
    """Worst elementwise |a - n| / max(|a|, |n|, floor) and where it occurs."""
    worst, worst_name = 0.0, ""
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = np.abs(a - n) / denom
        m = float(rel.max()) if rel.size else 0.0
        if m > worst:
            worst, worst_name = m, name
    return worst, worst_name

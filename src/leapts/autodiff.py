"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records the nodes of one forward pass; ``Tape.backward`` walks
them in reverse and accumulates gradients into the leaves. Tapes are
single-use and confined to one thread. When no tape is active nothing is
recorded.

Each node stands for a whole computation with a hand-written reverse pass,
recorded through ``_record``. A training batch records two: the model
(``forward.forward_rows``, whose reverse pass covers the encoder, coarse
head, scheduling loop and fusion) and the mean Huber loss.

Everything is float64: finite-difference gradient checks are the primary
correctness tool of this project and need the headroom.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NumericError, ShapeError, TapeError

__all__ = ["Tensor", "Tape", "huber_loss"]

_LOCAL = threading.local()


def _active_tape():
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Append-only record of one forward pass. One backward per tape."""

    def __init__(self):
        self.nodes = []
        self._consumed = False

    def __enter__(self):
        if _active_tape() is not None:
            raise TapeError("another tape is already active on this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, *exc):
        _LOCAL.tape = None
        return False

    def backward(self, loss: "Tensor"):
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf."""
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward pass")
        if not any(node.out is loss for node in reversed(self.nodes)):
            raise TapeError("loss was not recorded on this tape")
        if loss.data.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            gout = node.out.grad
            if gout is None:
                continue
            for parent, g in zip(node.parents, node.fn(gout)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g


class _Node:
    __slots__ = ("out", "parents", "fn")

    def __init__(self, out, parents, fn):
        self.out = out
        self.parents = parents
        self.fn = fn


class Tensor:
    """Dense float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"


def _record(op: str, out_data: np.ndarray, parents, fn, scan=True) -> Tensor:
    """Scan the result for non-finite values (unless ``scan`` is off, for a
    node that checked its own values), then record."""
    if scan and not np.all(np.isfinite(out_data)):
        raise NumericError(f"{op}: non-finite values in result")
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.nodes.append(_Node(out, tuple(parents), fn))
    return out


def _stable_sigmoid(x: np.ndarray, out=None, work=None) -> np.ndarray:
    """Sigmoid of ``x`` into ``out`` (may be ``x``), ``work`` as scratch."""
    if x.ndim == 0:  # ufuncs return scalars on 0-d input; the in-place steps need an array
        return _stable_sigmoid(x.reshape(1)).reshape(())
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1/d where x >= 0 (also -0.0) and
    # e/d elsewhere, bit for bit; neither exp overflows, NaN stays NaN
    d = np.abs(x, out=work)
    y = np.minimum(x, 0.0, out=out)
    np.exp(y, out=y)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    y /= d
    return y


def huber_loss(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Mean Huber loss as one node: 0.5*r^2 where |r| <= delta, else
    delta*(|r| - delta/2), r = pred - target. The gradient with respect to
    ``pred`` is clip(r, -delta, delta) / n."""
    if pred.shape != target.shape:
        raise ShapeError(f"huber_loss: {pred.shape} vs {target.shape}")
    if delta <= 0:
        raise ValueError(f"huber_loss: delta must be positive, got {delta}")
    r = pred.data - target.data
    a = np.abs(r)
    c = np.clip(a, 0.0, delta)
    total = c * c * 0.5
    total += (a - c) * delta
    n = r.size

    def fn(g):
        gp = np.clip(r, -delta, delta) * (g / n)
        return gp, -gp

    return _record("huber_loss", np.asarray(total.mean()), (pred, target), fn)

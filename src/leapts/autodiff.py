"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records the operations of one forward pass; ``Tape.backward``
walks the records in reverse and accumulates gradients into the leaves.
Tapes are single-use and confined to one thread. When no tape is active,
operations run as plain numpy (fast inference path, nothing recorded).

Everything is float64: finite-difference gradient checks are the primary
correctness tool of this project and need the headroom.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NumericError, ShapeError, TapeError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "linear",
    "tanh",
    "sigmoid",
    "gated_sigmoid",
    "softmax",
    "concat",
    "rows_to",
    "straight_through",
    "rowwise_matvec",
    "huber_loss",
]

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

    def detach(self) -> "Tensor":
        """Leaf copy of the value; gradients never flow through it."""
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"

    def __getitem__(self, idx):
        return tslice(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, out_data: np.ndarray, parents, fn, pre=None, scan=True) -> Tensor:
    """Scan one array for non-finite values (the pre-activation ``pre`` if
    given, else the result; none for ops that only copy), then record."""
    if scan and not np.all(np.isfinite(out_data if pre is None else pre)):
        what = "result" if pre is None else "pre-activation"
        raise NumericError(f"{op}: non-finite values in {what}")
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.nodes.append(_Node(out, tuple(parents), fn))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    if x.ndim == 0:  # ufuncs return scalars on 0-d input; the in-place steps need an array
        return _stable_sigmoid(x.reshape(1)).reshape(())
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1/d where x >= 0 (also -0.0) and
    # e/d elsewhere, bit for bit; neither exp overflows, NaN stays NaN
    y = np.minimum(x, 0.0)
    np.exp(y, out=y)
    d = np.abs(x)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    y /= d
    return y


# -- primitives ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "add",
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "sub",
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    return _record(
        "mul",
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} not aligned")
    out = a.data @ b.data
    return _record(
        "matmul",
        out,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def linear(x, w, b, act=None) -> Tensor:
    """Dense layer ``act(x @ w + b)`` as one node; ``act`` is None or "tanh".

    ``x`` is [R x n], ``w`` [n x m] and ``b`` [m]. The backward makes the
    numpy calls of ``tanh(add(matmul(x, w), b))`` in the same order, so its
    gradients equal the composition's bit for bit. With tanh the pre-activation
    is scanned, as tanh would saturate an overflow to a finite value.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if act not in (None, "tanh"):
        raise ValueError(f"linear: act must be None or 'tanh', got {act!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} not aligned")
    pre = x.data @ w.data
    pre += b.data
    y = np.tanh(pre) if act == "tanh" else pre

    def fn(g):
        if act == "tanh":
            g = g * (1.0 - y * y)
        return (g @ w.data.T, x.data.T @ g, g.sum(axis=0))

    return _record("linear", y, (x, w, b), fn, pre=pre if act == "tanh" else None)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _record("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _stable_sigmoid(a.data)
    return _record("sigmoid", y, (a,), lambda g: (g * y * (1.0 - y),))


def gated_sigmoid(sel, offs, scale: float, gate) -> Tensor:
    """``gate * sigmoid((sel - offs) * scale)`` as one node.

    ``sel`` is the only differentiable input; ``offs`` and ``gate`` are
    constant arrays that broadcast with it. The forward and backward make
    the numpy calls of ``mul(sigmoid(mul(sub(sel, offs), scale)), gate)`` in
    the same order, so values and gradients equal the composition's bit for
    bit. The pre-activation is scanned, as each op of the composition was.
    """
    sel = _as_tensor(sel)
    try:
        z = sel.data - offs
    except ValueError:
        raise ShapeError(
            f"gated_sigmoid: cannot broadcast {sel.shape} with {np.shape(offs)}"
        ) from None
    z *= scale
    y = _stable_sigmoid(z)

    def fn(g):
        return (_unbroadcast(g * gate * y * (1.0 - y) * scale, sel.shape),)

    return _record("gated_sigmoid", y * gate, (sel,), fn, pre=z)


def softmax(a) -> Tensor:
    """Softmax along the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", y, (a,), fn)


def concat(tensors) -> Tensor:
    """Concatenate along the last axis."""
    ts = [_as_tensor(t) for t in tensors]
    base = ts[0].shape[:-1]
    for t in ts[1:]:
        if t.shape[:-1] != base:
            raise ShapeError(f"concat: leading dims differ: {[t.shape for t in ts]}")
    out = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]

    def fn(g):
        grads, start = [], 0
        for w in widths:
            grads.append(g[..., start : start + w])
            start += w
        return tuple(grads)

    return _record("concat", out, tuple(ts), fn, scan=False)


def rows_to(parts, n: int, width: int) -> Tensor:
    """[n x width] zeros with each ``(rows, tensor)`` part put at its (disjoint)
    ``rows``; backward hands each part its rows of the gradient. A single
    part that covers all n rows is returned as is."""
    if len(parts) == 1 and len(parts[0][0]) == n:
        return parts[0][1]
    out = np.zeros((n, width))
    for rows, t in parts:
        out[rows] = t.data
    parents = tuple(t for _, t in parts)
    return _record("rows_to", out, parents, lambda g: tuple(g[r] for r, _ in parts), scan=False)


def tslice(a, idx) -> Tensor:
    """Basic or non-repeating integer indexing; backward scatters into zeros."""
    a = _as_tensor(a)
    out = a.data[idx]
    shape = a.shape

    def fn(g):
        buf = np.zeros(shape)
        buf[idx] = g
        return (buf,)

    return _record("slice", np.array(out, copy=True), (a,), fn, scan=False)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", np.asarray(out), (a,), fn)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    n = a.data.size if axis is None else a.shape[axis]

    def fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return _record("mean", np.asarray(out), (a,), fn)


def tabs(a) -> Tensor:
    a = _as_tensor(a)
    s = np.sign(a.data)
    return _record("abs", np.abs(a.data), (a,), lambda g: (g * s,))


def tclip(a, lo: float, hi: float) -> Tensor:
    if lo > hi:
        raise ShapeError(f"clip: lower bound {lo} exceeds upper bound {hi}")
    a = _as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _record("clip", out, (a,), lambda g: (g * inside,))


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Forward emits ``hard`` exactly; backward passes gradients to ``soft``.

    ``hard`` must be shape-equal to ``soft`` (typically a one-hot built
    from soft's argmax). Used for discrete routing that must stay exact
    in the forward pass while keeping a dense gradient path.
    """
    soft = _as_tensor(soft)
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through: {hard.shape} vs {soft.shape}")
    return _record("straight_through", hard.copy(), (soft,), lambda g: (g,), scan=False)


def rowwise_matvec(fields: Tensor, vec: Tensor) -> Tensor:
    """Per-row matrix-vector product.

    ``fields`` is [R, m*n] (each row a flattened m-by-n matrix), ``vec``
    is [R, n]; the result is [R, m] with out[r] = fields[r] @ vec[r].
    """
    fields, vec = _as_tensor(fields), _as_tensor(vec)
    if fields.ndim != 2 or vec.ndim != 2 or fields.shape[0] != vec.shape[0]:
        raise ShapeError(f"rowwise_matvec: shapes {fields.shape} and {vec.shape}")
    r, n = vec.shape
    if fields.shape[1] % n:
        raise ShapeError(f"rowwise_matvec: {fields.shape[1]} not divisible by {n}")
    m = fields.shape[1] // n
    f3 = fields.data.reshape(r, m, n)
    out = np.einsum("rmn,rn->rm", f3, vec.data)

    def fn(g):
        gf = np.einsum("rm,rn->rmn", g, vec.data).reshape(r, m * n)
        gv = np.einsum("rmn,rm->rn", f3, g)
        return (gf, gv)

    return _record("rowwise_matvec", out, (fields, vec), fn)


def huber_loss(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Mean Huber loss: 0.5*r^2 where |r| <= delta, else delta*(|r| - delta/2)."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"huber_loss: {pred.shape} vs {target.shape}")
    if delta <= 0:
        raise ValueError(f"huber_loss: delta must be positive, got {delta}")
    r = sub(pred, target)
    a = tabs(r)
    c = tclip(a, 0.0, delta)
    quad = mul(mul(c, c), 0.5)
    lin = mul(sub(a, c), delta)
    return tmean(add(quad, lin))

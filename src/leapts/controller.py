"""Hierarchical scheduling decisions: category selection and
advancement-length prediction, within the scale anchors of `anchors`.
"""

from __future__ import annotations

import numpy as np

from .anchors import ScaleAnchors
from .autodiff import _stable_sigmoid
from .errors import ConfigError

__all__ = [
    "gumbel_softmax_select",
    "length_candidates",
    "route_lengths",
    "round_and_clip_rows",
]


def gumbel_softmax_select(
    logits: np.ndarray,
    tau: float,
    noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft distribution and hard one-hot from category logits [R x C].

    ``noise`` is a Gumbel(0,1) sample of the same shape, or None for
    noiseless (evaluation) selection. Hard selection is argmax of the
    soft distribution, lowest index winning ties.
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {tau}")
    scores = logits if noise is None else logits + noise
    scaled = scores * (1.0 / tau)
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    hard = np.eye(soft.shape[-1])[soft.argmax(axis=-1)]
    return soft, hard


def length_candidates(h: np.ndarray, anchors: ScaleAnchors, length_heads):
    """Continuous length per category, [R x C]: each head's output
    sigmoid-mapped into its interval. Returns (lengths, raw, sig), the
    head outputs and their sigmoids being one [R x 1] array per category."""
    raw, sig, cols = [], [], []
    for c in range(anchors.n_categories):
        w, b = length_heads[c]
        r = h @ w
        r += b
        s = _stable_sigmoid(r)
        lo, hi = float(anchors.mins[c]), float(anchors.maxs[c])
        raw.append(r)
        sig.append(s)
        cols.append(s * (hi - lo) + lo)
    return np.concatenate(cols, axis=-1), raw, sig


def route_lengths(
    lengths: np.ndarray, soft: np.ndarray, hard: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Executed continuous length [R x 1], segment routing [R x C] and the
    chosen category per row, from the per-category lengths [R x C].

    "soft" mode mixes the lengths by the scale distribution; the other
    modes route through the hard choice (its gradient passes straight
    through to ``soft``).
    """
    route = soft if mode == "soft" else hard  # hard is the one-hot of soft's argmax
    return (lengths * route).sum(axis=-1, keepdims=True), route, soft.argmax(axis=-1)


def round_and_clip_rows(length_cont: np.ndarray, cursor: np.ndarray, P: int) -> np.ndarray:
    """Integer execution length per row: clip to the remaining horizon, then
    round half-up, so the result stays within [1, P - cursor + 1]. A
    finished row (cursor P+1) gets 0.

    Gradients never pass through this (cursor arithmetic only); the soft
    mask keeps the continuous length differentiable.
    """
    rem = np.maximum(P - cursor + 1, 0)
    clipped = np.clip(length_cont, 1.0, np.maximum(rem, 1.0))
    out = np.floor(clipped + 0.5).astype(np.int64)
    return np.where(rem > 0, np.minimum(out, rem), 0)

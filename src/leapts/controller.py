"""Hierarchical scheduling decisions: scale anchors, category selection,
and advancement-length prediction.

Categories are indexed 0=short, 1=mid, 2=long; a degenerate single-level
mode (one category spanning [1, P]) applies when the horizon is too short
relative to the look-back to support three scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _stable_sigmoid
from .errors import ConfigError

__all__ = [
    "CATEGORY_NAMES",
    "ScaleAnchors",
    "scale_anchors",
    "gumbel_softmax_select",
    "length_candidates",
    "route_lengths",
    "round_and_clip_rows",
]

CATEGORY_NAMES = ("short", "mid", "long")
SINGLE_CATEGORY_NAME = "single"


@dataclass(frozen=True)
class ScaleAnchors:
    """Admissible advancement-length interval per category."""

    mins: tuple[int, ...]
    maxs: tuple[int, ...]
    degenerate: bool

    @property
    def n_categories(self) -> int:
        return len(self.mins)

    def category_names(self) -> tuple[str, ...]:
        if self.degenerate:
            return (SINGLE_CATEGORY_NAME,)
        return CATEGORY_NAMES

    def category_of_length(self, length: int) -> int:
        """Index of the category whose interval contains ``length``."""
        for c in range(self.n_categories):
            if self.mins[c] <= length <= self.maxs[c]:
                return c
        raise ValueError(f"length {length} outside all intervals {self}")


def scale_anchors(L: int, P: int) -> ScaleAnchors:
    """Derive the short/mid/long length intervals from (look-back, horizon).

    Upper anchors scale with the look-back (L/4, L/2, P); lower bounds
    stack the categories without overlap. When the horizon is too short
    (P <= floor(L/4) + 1) a single interval [1, P] is used instead. The
    long category's lower bound is capped at mid_max + 1 so the three
    intervals always cover {1..P} with no gaps.
    """
    if L < 1 or P < 1:
        raise ConfigError(f"scale_anchors: need L >= 1 and P >= 1, got ({L}, {P})")
    if P <= L // 4 + 1:
        return ScaleAnchors(mins=(1,), maxs=(P,), degenerate=True)
    short_max = max(1, min(L // 4, P - 1))
    mid_max = max(short_max + 1, min(L // 2, P - 1))
    long_max = P
    short_min = 1
    mid_min = max(2, min(mid_max, short_max + 1))
    long_min = max(3, min(long_max, max(mid_max + 1, long_max // 2)))
    long_min = min(long_min, mid_max + 1)  # gap-free coverage of {1..P}
    mins = (short_min, mid_min, long_min)
    maxs = (short_max, mid_max, long_max)
    for c in range(3):
        if not (1 <= mins[c] <= maxs[c] <= P):
            raise ConfigError(f"scale_anchors: invalid interval for ({L}, {P}): {mins} {maxs}")
    return ScaleAnchors(mins=mins, maxs=maxs, degenerate=False)


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

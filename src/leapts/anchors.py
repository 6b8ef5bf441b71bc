"""Scale anchors: the admissible advancement-length interval of each
scheduling category, derived from (look-back, horizon).

Categories are indexed 0=short, 1=mid, 2=long; a degenerate single-level
mode (one category spanning [1, P]) applies when the horizon is too short
relative to the look-back to support three scales. Pure Python, so
`leapts anchors` runs without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["CATEGORY_NAMES", "ScaleAnchors", "scale_anchors"]

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

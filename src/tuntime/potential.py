"""Piecewise-constant 1D potentials: single and double rectangular barriers
plus arbitrary non-overlapping segment lists.  Potentials vanish at both
infinities; segment edges are half-open [x_start, x_end) so V(x) is
single-valued at joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ContractViolation


@dataclass(frozen=True)
class PiecewisePotential:
    """Ordered list of (x_start, x_end, height) segments, Angstrom / eV.

    Height is implicitly zero outside all segments.  Heights below zero are
    rejected (scattering-only toolkit, no bound-state support).
    """

    segments: tuple = ()

    def __post_init__(self):
        segs = tuple((float(a), float(b), float(v)) for (a, b, v) in self.segments)
        object.__setattr__(self, "segments", segs)
        prev_end = -math.inf
        for (x0, x1, v) in segs:
            if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(v)):
                raise ContractViolation("segment coordinates and heights must be finite")
            if not x0 < x1:
                raise ContractViolation(f"segment ({x0}, {x1}) needs x_start < x_end")
            if x0 < prev_end:
                raise ContractViolation("segments must be sorted and non-overlapping")
            if v < 0:
                raise ContractViolation("negative segment heights are out of scope")
            prev_end = x1

    @property
    def is_free(self) -> bool:
        return len(self.segments) == 0

    @property
    def x_left(self) -> float:
        """Leftmost segment edge (0.0 for the free potential)."""
        return self.segments[0][0] if self.segments else 0.0

    @property
    def x_right(self) -> float:
        """Rightmost segment edge (0.0 for the free potential)."""
        return self.segments[-1][1] if self.segments else 0.0

    @property
    def extent(self) -> float:
        """Distance between the outermost edges; the phase reference length."""
        return self.x_right - self.x_left

    @property
    def max_height(self) -> float:
        return max((v for (_, _, v) in self.segments), default=0.0)

    def value(self, x: float) -> float:
        """V(x) with half-open [x_start, x_end) segment membership."""
        for (x0, x1, v) in self.segments:
            if x0 <= x < x1:
                return v
        return 0.0

    def interior_regions(self) -> list:
        """(lo, hi, height) spans covering [x_left, x_right], gaps included."""
        regions = []
        prev_end = None
        for (x0, x1, v) in self.segments:
            if prev_end is not None and x0 > prev_end:
                regions.append((prev_end, x0, 0.0))
            regions.append((x0, x1, v))
            prev_end = x1
        return regions


@dataclass(frozen=True)
class RegionMarkers:
    """Reference points x_i (pre-barrier) and x_f (post-barrier or interior)."""

    x_i: float
    x_f: float

    def __post_init__(self):
        if not (math.isfinite(self.x_i) and math.isfinite(self.x_f)):
            raise ContractViolation("markers must be finite")
        if self.x_i > self.x_f:
            raise ContractViolation("need x_i <= x_f")


def rectangular(V0: float, a: float) -> PiecewisePotential:
    """Single rectangular barrier of height V0 (eV) on (0, a) (Angstrom)."""
    if not (V0 > 0 and a > 0):
        raise ContractViolation("rectangular barrier needs V0 > 0 and a > 0")
    return PiecewisePotential(((0.0, a, V0),))


def double_rectangular(V0: float, a: float, L: float) -> PiecewisePotential:
    """Two equal barriers (0, a, V0) and (L, L+a, V0); gap width is L - a >= 0."""
    if not (V0 > 0 and a > 0):
        raise ContractViolation("double barrier needs V0 > 0 and a > 0")
    if L < a:
        raise ContractViolation("need L >= a (second barrier starts at L)")
    return PiecewisePotential(((0.0, a, V0), (L, L + a, V0)))

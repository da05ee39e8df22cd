"""Dimension-generic vector, segment and polyline primitives.

Points are plain tuples of floats; everything here is a pure function or a
frozen dataclass, so values can be shared freely between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DegenerateRay, DimensionMismatch

Point = tuple[float, ...]
PlanePoint = tuple[float, float]

#: Two points closer than this in every coordinate are considered coincident.
COINCIDENT_TOL = 1e-12


def dist(p: Point, q: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if len(p) != len(q):
        raise DimensionMismatch(f"dimensions {len(p)} and {len(q)} differ")
    return math.dist(p, q)


def each(fn, *arrays) -> np.ndarray:
    """``fn`` over the elements of equally shaped arrays, one call per element.

    Batches call libm (cos, atan2, hypot, ...) through it to get a loop's
    floats, which numpy's own versions may miss by an ulp.
    """
    shape = np.shape(arrays[0])
    cols = [np.ravel(a).tolist() for a in arrays]
    return np.fromiter(map(fn, *cols), np.float64, len(cols[0])).reshape(shape)


def lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the distance between the points ``a`` and ``b``, (m, d) arrays each.

    ``math.hypot`` of the numpy differences: the floats ``math.dist`` gives.
    A difference that overflows is inf there too, and inf - inf is nan, so
    numpy's warnings are off.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return each(math.hypot, *(a - b).T)


def sum_columns(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, column by column from 0.0, left to right.

    That is Python 3.11's ``sum`` of a row's floats, which numpy's own
    reductions, pairwise, may miss by an ulp.
    """
    out = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        out = out + x[..., k]
    return out


def points_close(p: Point, q: Point) -> bool:
    """Coincidence test: max coordinate difference below COINCIDENT_TOL."""
    return len(p) == len(q) and max(abs(a - b) for a, b in zip(p, q)) < COINCIDENT_TOL


def angle_at_apex(s: Point, u: Point, v: Point) -> float:
    """Angle in [0, pi] between the rays s->u and s->v.

    Uses the half-angle chord form 2*atan2(|a-b|, |a+b|) on the unit
    directions, which stays accurate near both 0 and pi.
    """
    if not len(s) == len(u) == len(v):
        raise DimensionMismatch(f"dimensions {len(s)}, {len(u)} and {len(v)} differ")
    a = [x - y for x, y in zip(u, s)]
    b = [x - y for x, y in zip(v, s)]
    na = math.sqrt(sum([x * x for x in a]))
    nb = math.sqrt(sum([x * x for x in b]))
    if na < COINCIDENT_TOL or nb < COINCIDENT_TOL:
        raise DegenerateRay("ray endpoint coincides with apex")
    ia, ib = 1.0 / na, 1.0 / nb
    a = [ia * x for x in a]
    b = [ib * x for x in b]
    chord = math.dist(a, b)
    cochord = math.sqrt(sum([(x + y) * (x + y) for x, y in zip(a, b)]))
    return 2.0 * math.atan2(chord, cochord)


@dataclass(frozen=True)
class ArcPosition:
    """A location on a polyline: segment index, offset within it, arc length."""

    segment_index: int
    t: float
    arc_len: float


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices with cached prefix sums of segment lengths."""

    vertices: tuple[Point, ...]
    cum_len: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not self.cum_len:
            v = self.vertices
            try:
                cum = tuple(accumulate(map(math.dist, v, v[1:]), initial=0.0))
            except ValueError as exc:  # consecutive vertices of different dimension
                raise DimensionMismatch(str(exc)) from None
            object.__setattr__(self, "cum_len", cum)

    @property
    def total_length(self) -> float:
        return self.cum_len[-1]

    def locate(self, arc: float) -> ArcPosition:
        """ArcPosition of arc-length ``arc`` along the polyline.

        ``arc`` may stray outside [0, length] by 1e-12 of the length and is
        clamped.
        """
        slack = 1e-12 * self.total_length
        if not -slack <= arc <= self.total_length + slack:
            raise ValueError(f"arc length {arc} outside [0, {self.total_length}]")
        arc = min(max(arc, 0.0), self.total_length)
        lo, hi = 0, len(self.cum_len) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.cum_len[mid] <= arc:
                lo = mid
            else:
                hi = mid
        return ArcPosition(lo, arc - self.cum_len[lo], arc)

    def point_at(self, pos: ArcPosition) -> Point:
        j = pos.segment_index
        a = self.vertices[j]
        if j + 1 >= len(self.vertices):
            return a
        b = self.vertices[j + 1]
        seg = self.cum_len[j + 1] - self.cum_len[j]
        if seg == 0.0:
            return a
        f = pos.t / seg
        return tuple(ai + f * (bi - ai) for ai, bi in zip(a, b))

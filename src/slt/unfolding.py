"""Cone surfaces over the subdivided path and their planar unfoldings.

Each surface glues the planar cones spanned at the root by consecutive
path vertices.  Unfolding lays the cones flat side by side: the root maps
to the origin, the first boundary ray to the positive x-axis, and angles
accumulate counterclockwise.  As long as the total angle stays below pi
the map is injective and preserves lengths within every cone.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dataclasses_field
from itertools import accumulate

import numpy as np

from .errors import AngleOutOfRange, AngleOverflow, DegenerateRay
from .geometry import COINCIDENT_TOL, PlanePoint, Point, Polyline, points_close
from .breakpoints import SubdividedPath


@dataclass(frozen=True, slots=True)
class Cone:
    """Planar sector at the apex spanned by two rays; angle in [0, pi)."""

    apex: Point
    ray_a: Point
    ray_b: Point
    angle: float


@dataclass(slots=True)
class FoldedSurface:
    """A run of cones glued along shared rays, ready to unfold.

    Cone j spans verts[j] to verts[j+1] at the apex with angle angles[j];
    the root surface's single zero-angle cone lies along its far ray.  The
    Cone records and each cone's in-plane frame are made on first use,
    since most surfaces are never lifted.  Not frozen: a build makes one
    per break point, and a frozen init sets every field through
    ``object.__setattr__``.
    """

    index: int  # 1-based surface number along the path
    apex: Point
    verts: tuple[Point, ...]  # sub-path vertices; verts[j] lies on cone boundary j
    angles: tuple[float, ...]  # per-cone angle
    cum_angle: tuple[float, ...]
    truncated: bool
    hstar: tuple[int, ...] = ()  # hstar vertex index of each of verts
    _cones: tuple[Cone, ...] | None = dataclasses_field(default=None, compare=False, repr=False)
    # (e1, e2) per cone once ``lift`` has needed it, else None
    _frames: list | None = dataclasses_field(default=None, compare=False, repr=False)

    @property
    def cones(self) -> tuple[Cone, ...]:
        cones = self._cones
        if cones is None:
            s = self.apex
            cones = tuple(Cone(s, *_cone_rays(self, j), a) for j, a in enumerate(self.angles))
            self._cones = cones
        return cones

    @property
    def total_angle(self) -> float:
        return self.cum_angle[-1]

    def vertex_radius(self, j: int) -> float:
        return math.dist(self.apex, self.verts[j])


def _cone_rays(surf: FoldedSurface, j: int) -> tuple[Point, Point]:
    """A point on each boundary ray of cone j.

    The root surface's one cone, the root edge, lies along its far ray.
    """
    v = surf.verts
    return (v[1], v[1]) if points_close(v[0], surf.apex) else (v[j], v[j + 1])


def _cone_frame(surf: FoldedSurface, j: int):
    """Orthonormal in-plane frame (e1, e2) of cone j; e2 is None for a cone along one ray."""
    ray_a, ray_b = _cone_rays(surf, j)
    s = surf.apex
    a = [x - y for x, y in zip(ray_a, s)]
    na = math.sqrt(sum([x * x for x in a]))
    e1 = tuple([x / na for x in a])
    b = [x - y for x, y in zip(ray_b, s)]
    proj = sum([x * y for x, y in zip(b, e1)])
    w = [x - proj * y for x, y in zip(b, e1)]
    nw = math.sqrt(sum([x * x for x in w]))
    e2 = tuple([x / nw for x in w]) if nw > COINCIDENT_TOL * max(proj, 1e-300) else None
    return e1, e2


def build_surfaces(sub: SubdividedPath, s: Point) -> list[FoldedSurface]:
    """One folded surface per sub-path between consecutive break points.

    The first surface is the root edge itself: a single zero-angle cone.
    A path vertex coinciding with the root anywhere else is rejected.

    Every surface spans at most pi/3, so it unfolds without overlap.  By
    the angle lemma (``breakpoints``), the half-angle sines of a surface
    from b_i to b_{i+1} sum to at most c = sqrt(eps) / (2 (1 - sqrt(eps))).
    The truncated tail from b_i to the path's end e obeys the same c: the
    gap arc(b_i, q) - sqrt(eps) |q| grows along the path and has no zero
    on the tail, so the tail's length L is below sqrt(eps) |e|, and its
    points are at least |e| - L > |e| (1 - sqrt(eps)) from the root.
    ``select_breakpoints`` takes eps <= 1/4, so c <= 1/2, and as asin is
    superadditive on [0, 1] the total angle is at most 2 asin(1/2) = pi/3.
    A surface that reaches pi - 1e-9 all the same raises ``AngleOverflow``.
    """
    if not points_close(sub.hstar.vertices[0], s):
        raise ValueError("path does not start at the root")
    hverts = sub.hstar.vertices
    all_angles, near_root = _vertex_angles(hverts, s)
    if near_root[1:].any():
        raise DegenerateRay(
            f"path vertex {1 + int(np.argmax(near_root[1:]))} lies at the root"
        )
    edge_angles = all_angles.tolist()
    bp = sub.bp_vertex
    last_seg = len(bp) - 2
    surfaces: list[FoldedSurface] = []
    for i, (vstart, vend) in enumerate(zip(bp, bp[1:])):
        # The hstar vertices covered by the segment's cones, and their angles.
        run: list[int] = []
        angles: list[float] = []
        for j in range(vstart, vend):
            if j == 0:  # the root edge
                run = [j, j + 1]
                angles.append(0.0)
                continue
            if hverts[j] == hverts[j + 1]:
                continue  # zero-length edge contributes nothing
            ang = edge_angles[j]
            if ang > math.pi - 1e-9:
                raise DegenerateRay("path edge passes through the root")
            if not run:
                run.append(j)
            run.append(j + 1)
            angles.append(ang)
        if not angles:
            run = [vend] * 2
            angles = [0.0]
        truncated = sub.truncated and i == last_seg
        cum = tuple(accumulate(angles, initial=0.0))
        if cum[-1] >= math.pi - 1e-9:
            raise AngleOverflow(f"surface {i + 1} spans {cum[-1]!r} rad, not below pi")
        verts = tuple([hverts[j] for j in run])
        surfaces.append(FoldedSurface(i + 1, s, verts, tuple(angles), cum, truncated, tuple(run)))
    return surfaces


def _vertex_angles(verts: tuple[Point, ...], s: Point):
    """Angle at s between consecutive rays, for every path edge at once.

    Same half-angle chord form as geometry.angle_at_apex; entry j is the
    angle of the cone over edge (verts[j], verts[j+1]), or 0 where either
    endpoint coincides with s.  Also returns the per-vertex near-root mask.
    """
    arr = np.asarray(verts, dtype=float) - np.asarray(s, dtype=float)
    near_root = np.abs(arr).max(axis=1) < COINCIDENT_TOL
    norms = np.linalg.norm(arr, axis=1)
    safe = np.where(near_root, 1.0, norms)
    dirs = arr / safe[:, None]
    chord = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    cochord = np.linalg.norm(dirs[1:] + dirs[:-1], axis=1)
    ang = 2.0 * np.arctan2(chord, cochord)
    ang[near_root[1:] | near_root[:-1]] = 0.0
    return ang, near_root


def unfold_vertex(surf: FoldedSurface, j: int) -> PlanePoint:
    """Planar image of sub-path vertex j."""
    r = surf.vertex_radius(j)
    theta = surf.cum_angle[min(j, len(surf.cum_angle) - 1)]
    return (r * math.cos(theta), r * math.sin(theta))


def lift(surf: FoldedSurface, q: PlanePoint) -> Point:
    """Map a planar point back onto the surface in R^d."""
    x, y = q
    r = math.hypot(x, y)
    if r == 0.0:
        return surf.apex
    theta = math.atan2(y, x)
    cum, angles = surf.cum_angle, surf.angles
    total = cum[-1]
    if theta < -1e-9 or theta > total + 1e-9:
        raise AngleOutOfRange(f"polar angle {theta} outside [0, {total}]")
    # min(max(theta, 0.0), total), and the same clamp for local below
    theta = 0.0 if 0.0 > theta else theta
    theta = total if total < theta else theta
    j = bisect_right(cum, theta) - 1
    if j >= len(angles):
        j = len(angles) - 1
    local = theta - cum[j]
    local = 0.0 if 0.0 > local else local
    local = angles[j] if angles[j] < local else local
    frames = surf._frames
    if frames is None:
        frames = surf._frames = [None] * len(angles)
    frame = frames[j]
    if frame is None:
        frame = frames[j] = _cone_frame(surf, j)
    e1, e2 = frame
    s = surf.apex
    if e2 is None or local == 0.0:
        return tuple([si + r * e1i for si, e1i in zip(s, e1)])
    c = r * math.cos(local)
    d = r * math.sin(local)
    return tuple([si + c * e1i + d * e2i for si, e1i, e2i in zip(s, e1, e2)])


def ray_crossings(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> list[PlanePoint]:
    """Where the planar segment q1q2 crosses the glued boundary rays, from q1 on.

    These are the bends of its lift; a segment from or to the origin has none.
    """
    rays = surf.cum_angle[1:-1]
    if not rays or q1 == (0.0, 0.0) or q2 == (0.0, 0.0):
        return []
    t1, t2 = math.atan2(q1[1], q1[0]), math.atan2(q2[1], q2[0])
    lo, hi = min(t1, t2), max(t1, t2)
    dx, dy = q2[0] - q1[0], q2[1] - q1[1]
    crossings: list[tuple[float, PlanePoint]] = []
    for theta in rays:
        if not lo + 1e-15 < theta < hi - 1e-15:
            continue
        ex, ey = math.cos(theta), math.sin(theta)
        denom = ex * dy - ey * dx
        if denom == 0.0:
            continue
        t = (ey * q1[0] - ex * q1[1]) / denom
        if 0.0 < t < 1.0:
            crossings.append((t, (q1[0] + t * dx, q1[1] + t * dy)))
    return [p for _, p in sorted(crossings, key=lambda c: c[0])]


def lift_segment(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> Polyline:
    """Lift of the planar segment q1q2: a polyline bending at cone rays.

    Interior vertices are the lifted ``ray_crossings``; the lifted polyline
    has the same length as the planar segment.
    """
    if q1 == q2:
        return Polyline((lift(surf, q1),))
    bends = (lift(surf, p) for p in ray_crossings(surf, q1, q2))
    return Polyline((lift(surf, q1), *bends, lift(surf, q2)))

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

from .errors import AngleOutOfRange, DegenerateRay
from .geometry import (
    COINCIDENT_TOL,
    PlanePoint,
    Point,
    Polyline,
    dist,
    points_close,
)
from .breakpoints import SubdividedPath

#: Surfaces are split into pieces of at most this angle when they would
#: otherwise reach pi (possible only for the truncated tail at large eps).
_MAX_SPLIT_ANGLE = math.pi / 2


@dataclass(frozen=True, slots=True)
class Cone:
    """Planar sector at the apex spanned by two rays; angle in [0, pi)."""

    apex: Point
    ray_a: Point
    ray_b: Point
    angle: float


@dataclass(frozen=True, slots=True)
class FoldedSurface:
    """A run of cones glued along shared rays, ready to unfold.

    Cone j spans verts[j] to verts[j+1] at the apex with angle angles[j];
    the root surface's single zero-angle cone lies along its far ray.  The
    Cone records are made on first use, since most surfaces are never lifted.
    """

    index: int  # 1-based surface number along the path
    apex: Point
    verts: tuple[Point, ...]  # sub-path vertices; verts[j] lies on cone boundary j
    angles: tuple[float, ...]  # per-cone angle
    cum_angle: tuple[float, ...]
    truncated: bool
    hstar: tuple[int, ...] = ()  # hstar vertex index of each of verts
    _cones: tuple[Cone, ...] | None = dataclasses_field(default=None, compare=False, repr=False)
    _frames: dict | None = dataclasses_field(default=None, compare=False, repr=False)

    @property
    def cones(self) -> tuple[Cone, ...]:
        cones = self._cones
        if cones is None:
            s, v = self.apex, self.verts
            if points_close(v[0], s):  # root edge
                cones = (Cone(s, v[1], v[1], self.angles[0]),)
            else:
                cones = tuple(Cone(s, v[j], v[j + 1], a) for j, a in enumerate(self.angles))
            object.__setattr__(self, "_cones", cones)
        return cones

    @property
    def total_angle(self) -> float:
        return self.cum_angle[-1]

    def vertex_radius(self, j: int) -> float:
        return dist(self.apex, self.verts[j])

    def cone_frame(self, j: int):
        """Orthonormal in-plane frame (e1, e2) of cone j, cached."""
        frames = self._frames
        if frames is None:
            frames = {}
            object.__setattr__(self, "_frames", frames)
        frame = frames.get(j)
        if frame is None:
            cone = self.cones[j]
            s = self.apex
            a = tuple(x - y for x, y in zip(cone.ray_a, s))
            na = math.sqrt(sum(x * x for x in a))
            e1 = tuple(x / na for x in a)
            b = tuple(x - y for x, y in zip(cone.ray_b, s))
            proj = sum(x * y for x, y in zip(b, e1))
            w = tuple(x - proj * y for x, y in zip(b, e1))
            nw = math.sqrt(sum(x * x for x in w))
            e2 = tuple(x / nw for x in w) if nw > COINCIDENT_TOL * max(proj, 1e-300) else None
            frame = (e1, e2)
            frames[j] = frame
        return frame


def build_surfaces(sub: SubdividedPath, s: Point) -> list[FoldedSurface]:
    """One folded surface per sub-path between consecutive break points.

    The first surface is the root edge itself: a single zero-angle cone.
    A path vertex coinciding with the root anywhere else is rejected.
    Surfaces whose total angle reaches pi are split greedily at cone
    boundaries into pieces of angle at most pi/2; the pieces inherit the
    truncated flag.
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
    root_edge = bool(near_root[0])
    bp = sub.bp_vertex
    last_seg = len(bp) - 2
    surfaces: list[FoldedSurface] = []
    for i, (vstart, vend) in enumerate(zip(bp, bp[1:])):
        # The hstar vertices covered by the segment's cones, and their angles.
        run: list[int] = []
        angles: list[float] = []
        for j in range(vstart, vend):
            if j == 0 and root_edge:
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
        if cum[-1] < math.pi - 1e-9:
            pieces = [(run, angles, cum)]
        else:
            pieces = [
                (run[lo : hi + 1], angles[lo:hi], tuple(accumulate(angles[lo:hi], initial=0.0)))
                for lo, hi in _split_by_angle(angles)
            ]
        # Numbered as assembled, so surface numbers stay consecutive
        # across split pieces.
        for idx, piece_angles, piece_cum in pieces:
            verts = tuple(hverts[j] for j in idx)
            number = len(surfaces) + 1
            surfaces.append(
                FoldedSurface(
                    number, s, verts, tuple(piece_angles), piece_cum, truncated, tuple(idx)
                )
            )
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


def _split_by_angle(angles: list[float]) -> list[tuple[int, int]]:
    """Greedy cone index ranges [lo, hi) of angle at most _MAX_SPLIT_ANGLE."""
    parts: list[tuple[int, int]] = []
    lo = 0
    acc = 0.0
    for i, a in enumerate(angles):
        if i > lo and acc + a > _MAX_SPLIT_ANGLE:
            parts.append((lo, i))
            lo = i
            acc = 0.0
        acc += a
    parts.append((lo, len(angles)))
    return parts


def unfold(surf: FoldedSurface, cone_index: int, r: float, theta_local: float) -> PlanePoint:
    """Planar image of the point at local polar (r, theta) in one cone."""
    angle = surf.angles[cone_index]
    if not -1e-9 <= theta_local <= angle + 1e-9:
        raise AngleOutOfRange(
            f"theta={theta_local} outside cone {cone_index} of angle {angle}"
        )
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    theta = surf.cum_angle[cone_index] + theta_local
    return (r * math.cos(theta), r * math.sin(theta))


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
    total = surf.total_angle
    if theta < -1e-9 or theta > total + 1e-9:
        raise AngleOutOfRange(f"polar angle {theta} outside [0, {total}]")
    theta = min(max(theta, 0.0), total)
    j = bisect_right(surf.cum_angle, theta) - 1
    j = min(j, len(surf.angles) - 1)
    local = min(max(theta - surf.cum_angle[j], 0.0), surf.angles[j])
    e1, e2 = surf.cone_frame(j)
    s = surf.apex
    if e2 is None or local == 0.0:
        return tuple(si + r * e1i for si, e1i in zip(s, e1))
    c = r * math.cos(local)
    d = r * math.sin(local)
    return tuple(si + c * e1i + d * e2i for si, e1i, e2i in zip(s, e1, e2))


def lift_segment(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> Polyline:
    """Lift of the planar segment q1q2: a polyline bending at cone rays.

    Interior vertices are the crossings of the segment with the glued
    boundary rays; the lifted polyline has the same length as the planar
    segment.
    """
    if q1 == q2:
        return Polyline((lift(surf, q1),))
    t1 = math.atan2(q1[1], q1[0]) if q1 != (0.0, 0.0) else None
    t2 = math.atan2(q2[1], q2[0]) if q2 != (0.0, 0.0) else None
    crossings: list[tuple[float, PlanePoint]] = []
    if t1 is not None and t2 is not None:
        lo, hi = min(t1, t2), max(t1, t2)
        dx, dy = q2[0] - q1[0], q2[1] - q1[1]
        for theta in surf.cum_angle[1:-1]:
            if not lo + 1e-15 < theta < hi - 1e-15:
                continue
            ex, ey = math.cos(theta), math.sin(theta)
            denom = ex * dy - ey * dx
            if denom == 0.0:
                continue
            t = (ey * q1[0] - ex * q1[1]) / denom
            if 0.0 < t < 1.0:
                crossings.append((t, (q1[0] + t * dx, q1[1] + t * dy)))
    crossings.sort(key=lambda c: c[0])
    pts = [lift(surf, q1)]
    pts.extend(lift(surf, p) for _, p in crossings)
    pts.append(lift(surf, q2))
    return Polyline(tuple(pts))

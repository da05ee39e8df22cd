"""Cone surfaces over the subdivided path and their planar unfoldings.

Each surface glues the planar cones spanned at the root by consecutive
path vertices.  Unfolding lays the cones flat side by side: the root maps
to the origin, the first boundary ray to the positive x-axis, and angles
accumulate counterclockwise.  As long as the total angle stays below pi
the map is injective and preserves lengths within every cone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclasses_field
from itertools import accumulate

import numpy as np

from .errors import AngleOutOfRange, AngleOverflow, DegenerateRay
from .geometry import COINCIDENT_TOL, PlanePoint, Point, Polyline, each, points_close, sum_columns
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
    Cone records are made on first use, since most surfaces never need
    them.  Not frozen: a build makes one per break point, and a frozen
    init sets every field through ``object.__setattr__``.
    """

    index: int  # 1-based surface number along the path
    apex: Point
    verts: tuple[Point, ...]  # sub-path vertices; verts[j] lies on cone boundary j
    angles: tuple[float, ...]  # per-cone angle
    cum_angle: tuple[float, ...]
    truncated: bool
    hstar: tuple[int, ...] = ()  # hstar vertex index of each of verts
    _cones: tuple[Cone, ...] | None = dataclasses_field(default=None, compare=False, repr=False)

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


@dataclass
class SurfaceRows:
    """Folded surfaces around one apex as rows of arrays, to lift many points at once.

    Row i has ``n_verts[i]`` vertices: the first n_verts[i] columns of
    ``verts`` (R^d) and ``cum_angle`` hold them and their cumulative
    angles, the last repeated after them, and ``angles[i, j]`` is the
    angle of cone j.  ``lift`` and ``crossings`` give, row by row, the
    floats of one surface and one point at a time: numpy does the
    elementwise arithmetic in the same order, a coordinate sum runs
    column by column (``sum_columns``), and libm is called once per
    element (``each``).
    """

    apex: np.ndarray  # (d,)
    verts: np.ndarray  # (S, L, d)
    n_verts: np.ndarray  # (S,)
    cum_angle: np.ndarray  # (S, L)
    angles: np.ndarray  # (S, L - 1)

    @classmethod
    def of(cls, apex: Point, surfaces: list[FoldedSurface]) -> "SurfaceRows":
        """The rows of ``surfaces``, each of at least two vertices, around ``apex``."""
        nv = np.array([len(f.verts) for f in surfaces], dtype=int)
        width = int(nv.max(initial=2))
        start = np.cumsum(nv) - nv
        at = start[:, None] + np.minimum(np.arange(width), nv[:, None] - 1)
        cone = (start - np.arange(len(nv)))[:, None] + np.minimum(np.arange(width - 1), nv[:, None] - 2)
        verts = np.array([v for f in surfaces for v in f.verts], dtype=float).reshape(-1, len(apex))
        cum = np.array([t for f in surfaces for t in f.cum_angle], dtype=float)
        angles = np.array([a for f in surfaces for a in f.angles], dtype=float)
        return cls(np.array(apex, dtype=float), verts[at], nv, cum[at], angles[cone])

    def lift(self, row: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Each planar point q[i] (m, 2) mapped back onto surface row[i] in R^d: (m, d).

        The point's polar angle is clamped to its surface and then to the
        cone it falls in, and it is placed in that cone's orthonormal frame
        (e1 along the cone's first ray, e2 towards its second; none for a
        cone along one ray).  The root surface's one cone lies along its
        far ray.  The first point whose angle lies outside its surface by
        more than 1e-9 raises ``AngleOutOfRange``.
        """
        x, y = q[:, 0], q[:, 1]
        r, theta = each(math.hypot, x, y), each(math.atan2, y, x)
        cum = self.cum_angle[row]
        total = cum[:, -1]
        bad = (r != 0.0) & ((theta < -1e-9) | (theta > total + 1e-9))
        if bad.any():
            i = int(np.argmax(bad))
            raise AngleOutOfRange(f"polar angle {float(theta[i])} outside [0, {float(total[i])}]")
        theta = np.where(0.0 > theta, 0.0, theta)
        theta = np.where(total < theta, total, theta)
        j = np.minimum((cum <= theta[:, None]).sum(1), self.n_verts[row] - 1) - 1
        local = theta - cum[np.arange(len(row)), j]
        local = np.where(0.0 > local, 0.0, local)
        angle = self.angles[row, j]
        local = np.where(angle < local, angle, local)
        v, s = self.verts, self.apex
        on_ray = np.abs(v[row, 0] - s).max(1) < COINCIDENT_TOL  # the root surface
        a = v[row, np.where(on_ray, 1, j)] - s
        e1 = a / np.sqrt(sum_columns(a * a))[:, None]
        b = v[row, np.where(on_ray, 1, j + 1)] - s
        proj = sum_columns(b * e1)
        w = b - proj[:, None] * e1
        nw = np.sqrt(sum_columns(w * w))
        bent = (nw > COINCIDENT_TOL * np.maximum(proj, 1e-300)) & (local != 0.0)
        out = s + r[:, None] * e1
        if bent.any():
            rb, lb = r[bent], local[bent]
            c, d = rb * each(math.cos, lb), rb * each(math.sin, lb)
            out[bent] = s + c[:, None] * e1[bent] + d[:, None] * (w[bent] / nw[bent, None])
        out[r == 0.0] = s
        return out

    def crossings(self, row: np.ndarray, q1: np.ndarray, q2: np.ndarray):
        """Where each planar segment q1[i] q2[i] crosses the glued rays of surface row[i].

        These are the bends of its lift; a segment from or to the origin
        has none.  Returns the segment index (k,) and point (k, 2) of every
        crossing, by segment and, within one, by the parameter t along it
        from q1 (a stable sort, so rays in order on a tie).
        """
        (x1, y1), (x2, y2) = q1.T, q2.T
        t1, t2 = each(math.atan2, y1, x1), each(math.atan2, y2, x2)
        lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
        dx, dy = x2 - x1, y2 - y1
        rays = self.cum_angle[row, 1:-1]
        ends = ((x1 != 0.0) | (y1 != 0.0)) & ((x2 != 0.0) | (y2 != 0.0))
        seg, col = np.nonzero((np.arange(rays.shape[1]) < self.n_verts[row, None] - 2) & ends[:, None]
                              & (lo[:, None] + 1e-15 < rays) & (rays < hi[:, None] - 1e-15))
        theta = rays[seg, col]
        ex, ey = each(math.cos, theta), each(math.sin, theta)
        denom = ex * dy[seg] - ey * dx[seg]
        t = (ey * x1[seg] - ex * y1[seg]) / np.where(denom == 0.0, 1.0, denom)
        hit = (denom != 0.0) & (0.0 < t) & (t < 1.0)
        seg, t = seg[hit], t[hit]
        order = np.lexsort((t, seg))
        seg, t = seg[order], t[order]
        return seg, np.stack([x1[seg] + t * dx[seg], y1[seg] + t * dy[seg]], -1)


def lift(surf: FoldedSurface, q: PlanePoint) -> Point:
    """Map a planar point back onto the surface in R^d: ``SurfaceRows.lift`` of one point."""
    rows = SurfaceRows.of(surf.apex, [surf])
    return tuple(rows.lift(np.zeros(1, dtype=int), np.array([q], dtype=float))[0].tolist())


def ray_crossings(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> list[PlanePoint]:
    """Where the planar segment q1q2 crosses the glued boundary rays, from q1 on.

    These are the bends of its lift; a segment from or to the origin has
    none.  ``SurfaceRows.crossings`` of one segment.
    """
    rows = SurfaceRows.of(surf.apex, [surf])
    _, points = rows.crossings(np.zeros(1, dtype=int), np.array([q1], float), np.array([q2], float))
    return list(map(tuple, points.tolist()))


def lift_segment(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> Polyline:
    """Lift of the planar segment q1q2: a polyline bending at cone rays.

    Interior vertices are the lifted ``ray_crossings``; the lifted polyline
    has the same length as the planar segment.
    """
    if q1 == q2:
        return Polyline((lift(surf, q1),))
    bends = (lift(surf, p) for p in ray_crossings(surf, q1, q2))
    return Polyline((lift(surf, q1), *bends, lift(surf, q2)))

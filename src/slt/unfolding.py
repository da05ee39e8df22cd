"""Cone surfaces over the subdivided path and their planar unfoldings.

Each surface glues the planar cones spanned at the root by consecutive
path vertices.  Unfolding lays the cones flat side by side: the root maps
to the origin, the first boundary ray to the positive x-axis, and angles
accumulate counterclockwise.  As long as the total angle stays below pi
the map is injective and preserves lengths within every cone.

A build keeps its surfaces in one ``Surfaces`` record of ragged rows over
the subdivided path: each surface is a run of path vertex indices with
its cone angles and cumulative angles, all made at once from the path's
per-edge angles (``build_surfaces``).  Only the surfaces that get gadgets
are padded, into ``SurfaceRows``, to lift many points at once.  The
floats are those of one surface and one point at a time: numpy does the
elementwise arithmetic in the same order, libm is called once per
element (``geometry.each``), and no sum is reassociated, so the
cumulative angles add one column of cones at a time, each row from its
first cone on.  ``FoldedSurface`` is one row as plain tuples, for
``slt render --surfaces`` and the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class FoldedSurface:
    """One surface as plain tuples: a run of cones glued along shared rays.

    Cone j spans verts[j] to verts[j+1] at the apex with angle angles[j];
    the root surface's single zero-angle cone lies along its far ray.  A
    build keeps its surfaces as the rows of ``Surfaces``; this is one row
    of them (``Surfaces[i]``), or a surface made by hand.
    """

    index: int  # 1-based surface number along the path
    apex: Point
    verts: tuple[Point, ...]  # sub-path vertices; verts[j] lies on cone boundary j
    angles: tuple[float, ...]  # per-cone angle
    cum_angle: tuple[float, ...]
    truncated: bool
    hstar: tuple[int, ...] = ()  # sub-path vertex index of each of verts

    @property
    def cones(self) -> tuple[Cone, ...]:
        v, s = self.verts, self.apex
        if points_close(v[0], s):  # the root surface's one cone, along its far ray
            return (Cone(s, v[1], v[1], self.angles[0]),)
        return tuple(Cone(s, v[j], v[j + 1], a) for j, a in enumerate(self.angles))

    @property
    def total_angle(self) -> float:
        return self.cum_angle[-1]

    def vertex_radius(self, j: int) -> float:
        return math.dist(self.apex, self.verts[j])


@dataclass(eq=False)
class Surfaces:
    """The folded surfaces around one apex, as ragged rows over the sub-path.

    Surface i (number i + 1 along the path) holds the vertex slots
    ``start[i]`` to ``start[i + 1] - 1``; slot k is sub-path vertex
    ``hstar[k]``, at ``points[hstar[k]]``, on boundary ray k - start[i] at
    cumulative angle ``cum_angle[k]``.  Cone j of surface i has angle
    ``angles[start[i] - i + j]``.  Only the last surface may be
    ``truncated``.
    """

    apex: np.ndarray  # (d,)
    points: np.ndarray  # (V, d)
    start: np.ndarray  # (S + 1,)
    hstar: np.ndarray  # (N,)
    angles: np.ndarray  # (N - S,)
    cum_angle: np.ndarray  # (N,)
    truncated: bool

    def __len__(self) -> int:
        return len(self.start) - 1

    @property
    def n_verts(self) -> np.ndarray:
        return np.diff(self.start)

    @property
    def total_angle(self) -> np.ndarray:
        return self.cum_angle[self.start[1:] - 1]

    @classmethod
    def of(cls, apex: Point, surfaces: list[FoldedSurface]) -> "Surfaces":
        """Surfaces made by hand as the rows of one record; slot k is point k."""
        nv = [len(f.verts) for f in surfaces]
        points = np.array([v for f in surfaces for v in f.verts], dtype=float).reshape(-1, len(apex))
        return cls(np.array(apex, dtype=float), points, np.cumsum([0] + nv), np.arange(len(points)),
                   np.array([a for f in surfaces for a in f.angles], dtype=float),
                   np.array([t for f in surfaces for t in f.cum_angle], dtype=float),
                   bool(surfaces) and surfaces[-1].truncated)

    def rows(self, which: np.ndarray | None = None) -> "SurfaceRows":
        """Surfaces ``which`` (all by default), each of at least two vertices, as padded rows."""
        which = np.arange(len(self)) if which is None else which
        nv, first = self.n_verts[which], self.start[which]
        width = int(nv.max(initial=2))
        at = first[:, None] + np.minimum(np.arange(width), nv[:, None] - 1)
        cone = (first - which)[:, None] + np.minimum(np.arange(width - 1), nv[:, None] - 2)
        return SurfaceRows(self.apex, self.points[self.hstar[at]], nv, self.cum_angle[at], self.angles[cone])

    def __getitem__(self, i: int) -> FoldedSurface:
        """Surface i as plain tuples."""
        i = range(len(self))[i]
        a, b = self.start[i], self.start[i + 1]
        hs = self.hstar[a:b]
        return FoldedSurface(i + 1, tuple(self.apex.tolist()), tuple(map(tuple, self.points[hs].tolist())),
                             tuple(self.angles[a - i:b - i - 1].tolist()), tuple(self.cum_angle[a:b].tolist()),
                             self.truncated and i == len(self) - 1, tuple(hs.tolist()))


def build_surfaces(sub: SubdividedPath, s: Point) -> Surfaces:
    """One folded surface per sub-path between consecutive break points.

    The first surface is the root edge itself: a single zero-angle cone.
    A path vertex coinciding with the root anywhere else is rejected.
    Each surface runs through the vertices of its sub-path, but that an
    edge of zero length adds no cone and no vertex; a surface of such
    edges alone is one zero-angle cone at its last vertex.

    Every surface spans at most pi/3, so it unfolds without overlap.  By
    the angle lemma (``breakpoints``), the half-angle sines of a surface
    from b_i to b_{i+1} sum to at most c = sqrt(eps) / (2 (1 - sqrt(eps))).
    The truncated tail from b_i to the path's end e obeys the same c: the
    gap arc(b_i, q) - sqrt(eps) |q| grows along the path and has no zero
    on the tail, so the tail's length L is below sqrt(eps) |e|, and its
    points are at least |e| - L > |e| (1 - sqrt(eps)) from the root.
    ``select_breakpoints`` takes eps <= 1/4, so c <= 1/2, and as asin is
    superadditive on [0, 1] the total angle is at most 2 asin(1/2) = pi/3.
    A surface that reaches pi - 1e-9 all the same raises ``AngleOverflow``,
    unless an edge of it reaches that angle first, which raises
    ``DegenerateRay``; the first faulty surface raises.

    The rows are made at once: the cumulative angles add one column of
    cones at a time over the rows long enough, so each is the sum from
    the row's first cone on, as one surface at a time adds them.
    """
    P = sub.points
    if not points_close(tuple(P[0].tolist()), s):
        raise ValueError("path does not start at the root")
    edge_angles, near_root = _vertex_angles(P, s)
    if near_root[1:].any():
        raise DegenerateRay(
            f"path vertex {1 + int(np.argmax(near_root[1:]))} lies at the root"
        )
    bp = sub.bp_vertex
    S = len(bp) - 1
    # The edges each surface glues: all but those of zero length; the root
    # edge's cone has angle 0.
    live = (P[1:bp[-1] + 1] != P[:bp[-1]]).any(axis=1)
    live[0] = True
    edge = np.flatnonzero(live)
    row = np.searchsorted(bp, edge, side="right") - 1
    count = np.bincount(row, minlength=S)
    cones = np.maximum(count, 1)
    start = np.concatenate([[0], np.cumsum(cones + 1)])
    first, cone0 = start[:-1], start[:-1] - np.arange(S)
    rank = np.arange(len(edge)) - (np.cumsum(count) - count)[row]
    hstar = np.empty(start[-1], dtype=int)
    hstar[first[row] + 1 + rank] = edge + 1
    hstar[first[row[rank == 0]]] = edge[rank == 0]
    empty = np.flatnonzero(count == 0)
    hstar[first[empty]] = hstar[first[empty] + 1] = bp[empty + 1]
    angles = np.zeros(start[-1] - S)
    angles[cone0[row] + rank] = edge_angles[edge]  # the root edge's is 0, as the root is its end
    cum = np.zeros(start[-1])
    longest = np.argsort(-cones, kind="stable")
    for j in range(int(cones.max(initial=0))):
        rows = longest[:np.count_nonzero(cones > j)]
        cum[first[rows] + j + 1] = cum[first[rows] + j] + angles[cone0[rows] + j]

    total = cum[start[1:] - 1]
    flat_ray = np.zeros(S, dtype=bool)
    flat_ray[row[(edge > 0) & (edge_angles[edge] > math.pi - 1e-9)]] = True
    fault = flat_ray | (total >= math.pi - 1e-9)
    if fault.any():
        i = int(np.argmax(fault))
        if flat_ray[i]:
            raise DegenerateRay("path edge passes through the root")
        raise AngleOverflow(f"surface {i + 1} spans {float(total[i])!r} rad, not below pi")
    return Surfaces(np.array(s, dtype=float), P, start, hstar, angles, cum, sub.truncated)


def _vertex_angles(verts, s: Point):
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
    rows = Surfaces.of(surf.apex, [surf]).rows()
    return tuple(rows.lift(np.zeros(1, dtype=int), np.array([q], dtype=float))[0].tolist())


def ray_crossings(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> list[PlanePoint]:
    """Where the planar segment q1q2 crosses the glued boundary rays, from q1 on.

    These are the bends of its lift; a segment from or to the origin has
    none.  ``SurfaceRows.crossings`` of one segment.
    """
    rows = Surfaces.of(surf.apex, [surf]).rows()
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

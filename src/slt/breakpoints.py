"""Break point selection on the Hamiltonian path and its subdivision.

Starting from the root, consecutive break points satisfy

    arc(b_i, b_{i+1}) = sqrt(eps) * dist(s, b_{i+1})

where arc() is measured along the path.  The left-hand side grows with
unit speed and the right-hand side is sqrt(eps)-Lipschitz, so the gap
function has exactly one zero crossing; it is found per segment with a
closed-form quadratic solve, falling back to monotone bisection where the
quadratic form is too ill-conditioned to certify the root.

Angle lemma.  On the sub-path from b_i to b_{i+1} (not truncated), the
cones at s with angles theta_j satisfy

    sum_j sin(theta_j / 2) <= sqrt(eps) / (2 (1 - sqrt(eps))).

Proof: a cone's edge of length l_j has both ends at least r_min from s, so
2 sin(theta_j / 2) <= l_j / r_min; the l_j sum to sqrt(eps)|b_{i+1}|, and
every point of the sub-path is within that arc of b_{i+1}, so
r_min >= |b_{i+1}| (1 - sqrt(eps)).  The bound is on the sine sum, not on
the total angle: an L-path at eps = 1/4 subtends pi/6 > 1/2.  Since asin
is superadditive on [0, 1], the total angle is at most 2 asin(constant).
The truncated tail obeys the same constant (``build_surfaces``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsOutOfRange
from .geometry import ArcPosition, Point, Polyline, each
from .mst_path import HamPath

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class BreakpointSet:
    """Ordered break points on H; the last one may be truncated.

    ``raw_positions`` holds each break point's (segment index, offset,
    arc length) as a plain tuple, which the cyclic garbage collector stops
    tracking; ``ArcPosition(*p)`` turns one into a record.
    """

    raw_positions: tuple[tuple[int, float, float], ...]
    points: tuple[Point, ...]
    eps: float
    truncated: bool

    def __len__(self) -> int:
        return len(self.raw_positions)


@dataclass(frozen=True)
class SubdividedPath:
    """H with its break points inserted as vertices.

    Segment i runs from hstar vertex bp_vertex[i] to bp_vertex[i + 1].
    """

    hstar: Polyline
    #: hstar vertex index of each break point
    bp_vertex: tuple[int, ...]
    #: original input index per hstar vertex, or -1 for a Steiner vertex
    input_index: tuple[int, ...]
    truncated: bool


def select_breakpoints(H: HamPath, eps: float) -> BreakpointSet:
    """Place break points on H for eps in (0, 1/4]: every surface then spans <= pi/3.

    The first break point is the root; the second is the far endpoint of
    the first path edge (from the root the defining equation has no
    solution, and the first edge spans a zero-angle surface on its own).
    If the equation has no further root before the path ends, the final
    vertex becomes a truncated break point.
    """
    if not 0.0 < eps <= 0.25:
        raise EpsOutOfRange(f"eps={eps} outside (0, 1/4]")
    path = H.geometry
    s = path.vertices[0]
    total = path.total_length
    sq = math.sqrt(eps)

    positions = [(0, 0.0, 0.0)]
    if len(path.vertices) == 1:
        return BreakpointSet(tuple(positions), (s,), eps, False)

    positions.append(_vertex_position(path, 1))
    points = [_point_at(path, p) for p in positions]
    truncated = False
    guard = 1e-12 * max(total, 1.0)
    roots = _crossings(path, sq, positions[-1])
    while positions[-1][2] < total - guard:
        found = next(roots, None)
        if found is None:
            last = _vertex_position(path, len(path.vertices) - 1)
            positions.append(last)
            points.append(_point_at(path, last))
            truncated = True
            break
        nxt, point = found
        if nxt[2] - positions[-1][2] < guard:
            raise ValueError(
                "degenerate break point spacing: path passes through the root"
            )
        positions.append(nxt)
        points.append(point)
    return BreakpointSet(tuple(positions), tuple(points), eps, truncated)


def _vertex_position(path: Polyline, j: int) -> tuple[int, float, float]:
    if j == len(path.vertices) - 1 and j > 0:
        seg = j - 1
        return (seg, path.cum_len[j] - path.cum_len[seg], path.cum_len[j])
    return (j, 0.0, path.cum_len[j])


def _point_at(path: Polyline, pos: tuple[int, float, float]) -> Point:
    return path.point_at(ArcPosition(*pos))


def _crossings(path: Polyline, sq: float, cur: tuple[int, float, float]):
    """Successive break points after ``cur``, each with its coordinates.

    Each is the first point q after the previous one where
    arc(prev, q) = sq * dist(s, q); the generator ends when the path ends
    first.
    """
    s = path.vertices[0]
    verts = path.vertices
    cum = path.cum_len
    # Per-segment data: coordinate differences, the direction dot b and
    # squared root distance c at the segment start, and the quadratic-form
    # root distance of the segment end (used only by the no-root screen).
    arr = np.asarray(verts, dtype=float)
    rel = arr[:-1] - np.asarray(s, dtype=float)
    seg = np.diff(arr, axis=0)
    lens = np.array(cum[1:]) - np.array(cum[:-1])
    u = seg / np.where(lens == 0.0, 1.0, lens)[:, None]
    b = np.einsum("ij,ij->i", u, rel)
    c = np.einsum("ij,ij->i", rel, rel)
    end_dist = np.sqrt(np.maximum(lens * lens + 2.0 * b * lens + c, 0.0)).tolist()
    # The same, as math.dist through the end's coordinates p0 + (p1 - p0).
    end_far = each(math.hypot, *(arr[:-1] + seg - np.asarray(s, dtype=float)).T).tolist()
    sqrt_c = np.sqrt(c).tolist()
    seg_lens, diffs, b, c = lens.tolist(), seg.tolist(), b.tolist(), c.tolist()
    eps = sq * sq
    margin_scale = 1e-7 * sq
    end_tol = 1e-15 * max(path.total_length, 1.0)
    cur_seg, cur_t, cur_arc = cur
    while True:
        found = None
        for j in range(cur_seg, len(seg_lens)):
            seg_len = seg_lens[j]
            if seg_len == 0.0:
                continue
            t0 = cur_t if j == cur_seg else 0.0
            if t0 >= seg_len:
                continue
            a = cum[j] - cur_arc  # arc from cur to segment start

            # Cheap no-root screen on the quadratic form, with a margin wide
            # enough to absorb its cancellation error near the closest approach.
            margin = margin_scale * (abs(a) + seg_len + sqrt_c[j] + 1.0)
            if (a + seg_len) - sq * end_dist[j] < -margin:
                continue  # g is increasing: no crossing before the segment end

            # Evaluation through point coordinates, p0 + (t/L) * (p1 - p0):
            # the quadratic form t^2 + 2bt + c cancels catastrophically near
            # the closest approach.  At t = L the factor is exactly 1.
            p0, dp = verts[j], diffs[j]
            ghi = (a + seg_len) - sq * end_far[j]
            if ghi < 0.0:
                continue  # confirmed: no crossing in this segment
            t = _solve_on_segment(a, b[j], c[j], eps, t0, seg_len)
            if t is not None:
                f = t / seg_len
                q = [x + f * d for x, d in zip(p0, dp)]
                dd = math.dist(s, q)
                if abs((a + t) - sq * dd) > _RESIDUAL_TOL * max(sq * dd, 1e-300):
                    t = None
            if t is None:
                t, q = _bisect_on_segment(s, p0, dp, a, sq, t0, seg_len)
            if t >= seg_len - end_tol:
                pos = _vertex_position(path, j + 1)
                found = (pos, _point_at(path, pos))
            else:
                found = ((j, t, cum[j] + t), tuple(q))
            break
        if found is None:
            return
        yield found
        cur_seg, cur_t, cur_arc = found[0]


def _gap_at(s, p0, dp, a, sq, seg_len, t):
    """g(t) = arc - sq * dist(s, q) at offset t, with the point q."""
    f = t / seg_len
    q = [x + f * d for x, d in zip(p0, dp)]
    return (a + t) - sq * math.dist(s, q), q


def _bisect_on_segment(s, p0, dp, a, sq, t0, seg_len):
    """Monotone bisection fallback: the crossing in [t0, seg_len] and its point."""
    glo, q = _gap_at(s, p0, dp, a, sq, seg_len, t0)
    if glo >= 0.0:
        return t0, q  # crossing collapsed onto the interval start
    lo, hi = t0, seg_len
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        gm, qm = _gap_at(s, p0, dp, a, sq, seg_len, mid)
        if gm < 0.0:
            lo = mid
        else:
            hi, q = mid, qm
        if hi - lo <= 1e-16 * seg_len:
            break
    # q is the point at hi unless hi is still seg_len, where the caller
    # takes the segment's end vertex instead.
    return hi, q


def _solve_on_segment(a, b, c, eps, t0, seg_len):
    """Smallest t in [t0, seg_len] with (a+t)^2 = eps*(t^2+2bt+c), a+t >= 0."""
    qa = 1.0 - eps  # at least 3/4
    qb = 2.0 * (a - eps * b)
    qc = a * a - eps * c
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    sd = math.sqrt(disc)
    r1 = (-qb - sd) / (2.0 * qa)
    r2 = (-qb + sd) / (2.0 * qa)
    roots = (r2, r1) if r2 < r1 else (r1, r2)
    lo = max(t0, -a)
    tol = 1e-12 * max(seg_len, 1.0)
    for t in roots:
        if lo - tol <= t <= seg_len + tol:
            return min(max(t, lo), seg_len)
    return None


def subdivide(H: HamPath, B: BreakpointSet) -> SubdividedPath:
    """Insert the break points as vertices of H, preserving length."""
    path = H.geometry
    total = path.total_length
    tol = 1e-12 * max(total, 1.0)

    verts: list[Point] = []
    input_index: list[int] = []
    bp_vertex: list[int] = []  # hstar vertex index of each break point

    arcs = [p[2] for p in B.raw_positions]
    nbp = len(arcs)
    bi = 0
    for v, arc_v, idx in zip(path.vertices, path.cum_len, H.order):
        # Break points strictly inside the previous edge.
        while bi < nbp and arcs[bi] < arc_v - tol:
            bp_vertex.append(len(verts))
            verts.append(B.points[bi])
            input_index.append(-1)
            bi += 1
        if bi < nbp and abs(arcs[bi] - arc_v) <= tol:
            bp_vertex.append(len(verts))
            bi += 1
        verts.append(v)
        input_index.append(idx)
    while bi < nbp:  # safety: trailing break points
        bp_vertex.append(len(verts))
        verts.append(B.points[bi])
        input_index.append(-1)
        bi += 1

    return SubdividedPath(
        Polyline(tuple(verts)), tuple(bp_vertex), tuple(input_index), B.truncated
    )

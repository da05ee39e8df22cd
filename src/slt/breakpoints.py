"""Break point selection on the Hamiltonian path and its subdivision.

Starting from the root, consecutive break points satisfy

    arc(b_i, b_{i+1}) = sqrt(eps) * dist(s, b_{i+1})

where arc() is measured along the path.  The left-hand side grows with
unit speed and the right-hand side is sqrt(eps)-Lipschitz, so the gap
function has exactly one zero crossing; it is found per segment with a
closed-form quadratic solve, falling back to monotone bisection where the
quadratic form is too ill-conditioned to certify the root.

Each crossing starts the next, so the search is one scalar loop over
per-segment floats computed once; it records only each crossing's segment
and offset.  After the loop, every break point is placed and every
quadratic root's residual checked in one batch.  At the first residual
that fails, the loop re-enters from the crossing before it and takes that
crossing by bisection, as a one-at-a-time search would have.  The batch
keeps the loop's floats: numpy does the elementwise arithmetic in the
same order, libm is called once per element (``geometry.each``),
``math.dist`` is ``hypot`` over coordinate differences, and no sum is
reassociated.  ``subdivide`` then merges the break points' arc lengths
with the path's in one pass of array code.

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
from .geometry import each
from .mst_path import HamPath

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BreakpointSet:
    """Ordered break points on H; the last one may be truncated.

    Break point i lies on path segment ``segment[i]`` at offset ``t[i]``
    from its start, at arc length ``arc[i]``, at ``points[i]``.
    """

    segment: np.ndarray  # (k,)
    t: np.ndarray  # (k,)
    arc: np.ndarray  # (k,)
    points: np.ndarray  # (k, d)
    eps: float
    truncated: bool

    def __len__(self) -> int:
        return len(self.arc)


@dataclass(frozen=True, eq=False)
class SubdividedPath:
    """H with its break points inserted as vertices.

    Segment i runs from vertex bp_vertex[i] to bp_vertex[i + 1].
    """

    points: np.ndarray  # (V, d) the vertices, break points among them
    #: vertex index of each break point
    bp_vertex: np.ndarray
    #: original input index per vertex, or -1 for a Steiner vertex
    input_index: np.ndarray
    truncated: bool

    @property
    def total_length(self) -> float:
        """The sum of the edge lengths, added from the root on."""
        if len(self.points) < 2:
            return 0.0
        lengths = each(math.hypot, *np.diff(self.points, axis=0).T)
        return float(np.cumsum(lengths)[-1])


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
    arr = np.asarray(path.vertices, dtype=float)
    if len(arr) == 1:
        return BreakpointSet(np.zeros(1, dtype=int), np.zeros(1), np.zeros(1), arr, eps, False)
    cum = np.array(path.cum_len)
    sq = math.sqrt(eps)
    s = arr[0]
    diffs = np.diff(arr, axis=0)
    lens = cum[1:] - cum[:-1]
    # Per segment: the direction dot b and squared root distance c at its
    # start, the quadratic-form root distance of its end (used only by the
    # no-root screen), and the same through the end's coordinates
    # p0 + (p1 - p0).
    rel = arr[:-1] - s
    u = diffs / np.where(lens == 0.0, 1.0, lens)[:, None]
    b = np.einsum("ij,ij->i", u, rel)
    c = np.einsum("ij,ij->i", rel, rel)
    end_dist = np.sqrt(np.maximum(lens * lens + 2.0 * b * lens + c, 0.0))
    end_far = each(math.hypot, *(arr[:-1] + diffs - s).T)
    segments = (cum.tolist(), lens.tolist(), b.tolist(), c.tolist(), end_dist.tolist(),
                end_far.tolist(), np.sqrt(c).tolist(), path.vertices, diffs.tolist())

    start = _vertex_position(segments[0], 1)
    found: list = []  # per crossing: segment, t, from the quadratic, position (segment, t, arc)
    # A round scans at most ``limit`` crossings: all at first, a few after
    # a failed residual, twice as many after each round without one.
    checked, cur, bisect, limit = 0, start, False, math.inf
    while True:
        end = _scan(cur, bisect, limit, found, sq, *segments)
        new = np.array(found[6 * checked:], dtype=float).reshape(-1, 6)
        j, t, quad = new[:, 0].astype(int), new[:, 1], new[:, 2] != 0.0
        # Each quadratic root's residual, at its point p0 + (t/L) (p1 - p0).
        dd = each(math.hypot, *(arr[j] + (t / lens[j])[:, None] * diffs[j] - s).T)
        a = cum[j] - np.concatenate([[cur[2]], new[:-1, 5]])
        bad = quad & (np.abs((a + t) - sq * dd) > _RESIDUAL_TOL * np.maximum(sq * dd, 1e-300))
        if bad.any():  # re-enter at the first, by bisection
            k, bisect, limit = checked + int(np.argmax(bad)), True, 8
            del found[6 * k:]
        elif end == "more":
            k, bisect, limit = len(found) // 6, False, 2 * limit
        else:
            break
        cur, checked = (start if k == 0 else tuple(found[6 * k - 3:6 * k])), k
    if end == "spacing":
        raise ValueError("degenerate break point spacing: path passes through the root")
    crossings = new if checked == 0 else np.array(found, dtype=float).reshape(-1, 6)
    tail = [_vertex_position(segments[0], len(arr) - 1)] if end == "truncated" else []
    seg, t, arc = np.concatenate([[(0, 0.0, 0.0), start], crossings[:, 3:], np.reshape(tail, (-1, 3))]).T
    seg = seg.astype(int)
    # Polyline.point_at of each: p0 + (t/L) (p1 - p0), or p0 where L is 0.
    flat = lens[seg] == 0.0
    f = t / np.where(flat, 1.0, lens[seg])
    points = np.where(flat[:, None], arr[seg], arr[seg] + f[:, None] * diffs[seg])
    return BreakpointSet(seg, t, arc, points, eps, end == "truncated")


def _vertex_position(cum: list[float], j: int) -> tuple[int, float, float]:
    """(segment, offset, arc) of path vertex j: the last one ends the last segment."""
    if j == len(cum) - 1 and j > 0:
        return (j - 1, cum[j] - cum[j - 1], cum[j])
    return (j, 0.0, cum[j])


def _scan(cur, bisect, limit, found, sq, cum, lens, b, c, end_dist, end_far, sqrt_c, verts, diffs) -> str:
    """Extend ``found`` by up to ``limit`` successive crossings after position ``cur``.

    Each is the first point q after the previous one where
    arc(prev, q) = sq * dist(s, q): on a segment, the smallest t in
    [t0, L] with (a+t)^2 = eps (t^2 + 2bt + c) and a+t >= 0, a being the
    arc from the previous crossing to the segment's start; with
    ``bisect``, the first is taken by bisection.  Returns "end" at the
    path's end, "truncated" where the path ends before the next crossing,
    "spacing" after a crossing that lies within the spacing guard of the
    one before, and "more" after ``limit`` crossings.
    """
    total = cum[-1]
    guard, end_tol = 1e-12 * total, 1e-15 * total
    eps, margin_scale = sq * sq, 1e-7 * sq
    qa = 1.0 - eps  # at least 3/4
    last = len(lens) - 1
    cur_seg, cur_t, cur_arc = cur
    while cur_arc < total - guard:
        for j in range(cur_seg, last + 1):
            seg_len = lens[j]
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
            if (a + seg_len) - sq * end_far[j] < 0.0:
                continue  # confirmed: no crossing in this segment
            t = None
            if not bisect:  # the quadratic's smaller root in range, clamped to it
                qb = 2.0 * (a - eps * b[j])
                disc = qb * qb - 4.0 * qa * (a * a - eps * c[j])
                if disc >= 0.0:
                    sd = math.sqrt(disc)
                    r1, r2 = (-qb - sd) / (2.0 * qa), (-qb + sd) / (2.0 * qa)
                    lo = -a if -a > t0 else t0
                    tol = 1e-12 * seg_len
                    for r in ((r2, r1) if r2 < r1 else (r1, r2)):
                        if lo - tol <= r <= seg_len + tol:
                            r = lo if lo > r else r
                            t = seg_len if seg_len < r else r
                            break
            quad = t is not None
            if not quad:
                t = _bisect_on_segment(verts[0], verts[j], diffs[j], a, sq, t0, seg_len)
                bisect = False
            break
        else:
            return "truncated"
        if t >= seg_len - end_tol:  # the segment's end vertex
            arc = cum[j + 1]
            cur_seg, cur_t = (j, seg_len) if j == last else (j + 1, 0.0)
        else:
            arc = cum[j] + t
            cur_seg, cur_t = j, t
        found.extend((j, t, quad, cur_seg, cur_t, arc))
        if arc - cur_arc < guard:
            return "spacing"
        limit -= 1
        if limit == 0:
            return "more"
        cur_arc = arc
    return "end"


def _gap_at(s, p0, dp, a, sq, seg_len, t):
    """g(t) = arc - sq * dist(s, q) at offset t, for the point q = p0 + (t/L) dp."""
    f = t / seg_len
    return (a + t) - sq * math.dist(s, [x + f * d for x, d in zip(p0, dp)])


def _bisect_on_segment(s, p0, dp, a, sq, t0, seg_len):
    """Monotone bisection fallback: the crossing's offset in [t0, seg_len]."""
    if _gap_at(s, p0, dp, a, sq, seg_len, t0) >= 0.0:
        return t0  # crossing collapsed onto the interval start
    lo, hi = t0, seg_len
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _gap_at(s, p0, dp, a, sq, seg_len, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * seg_len:
            break
    return hi


def subdivide(H: HamPath, B: BreakpointSet) -> SubdividedPath:
    """Insert the break points as vertices of H, preserving length.

    One merge of the break points' arc lengths with the path's: walking
    the path, the break points before a vertex (by more than a tolerance)
    are inserted ahead of it, and the next one within the tolerance of it
    becomes that vertex; any left over go after the last vertex.
    """
    path = H.geometry
    cum = np.array(path.cum_len)
    tol = 1e-12 * path.total_length
    arcs, nbp, nv = B.arc, len(B), len(cum)
    # How many break points the walk has passed before vertex p's match:
    # those inserted ahead of it, or passed at an earlier vertex.  A
    # vertex matches at most one, so the count settles within a few rounds.
    ahead = np.searchsorted(arcs, cum - tol, side="left")
    passed = ahead
    while True:
        at = np.minimum(passed, nbp - 1)
        match = (passed < nbp) & (np.abs(arcs[at] - cum) <= tol)
        after = passed + match
        settled = np.maximum(ahead, np.concatenate([[0], after[:-1]]))
        if (settled == passed).all():
            break
        passed = settled
    matched = np.zeros(nbp, dtype=bool)
    matched[passed[match]] = True
    # Each other break point goes ahead of the first vertex that passes it.
    free = np.flatnonzero(~matched)
    before = np.searchsorted(passed, free, side="right")
    free_at = before + np.arange(len(free))
    vertex_at = np.arange(nv) + np.searchsorted(before, np.arange(nv), side="right")
    n = nv + len(free)
    points = np.empty((n, B.points.shape[1]))
    points[vertex_at] = np.asarray(path.vertices, dtype=float)
    points[free_at] = B.points[free]
    input_index = np.full(n, -1)
    input_index[vertex_at] = H.order
    bp_vertex = np.empty(nbp, dtype=int)
    bp_vertex[free] = free_at
    bp_vertex[passed[match]] = vertex_at[match]
    return SubdividedPath(points, bp_vertex, input_index, B.truncated)

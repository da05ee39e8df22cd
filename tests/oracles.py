"""Reference code the tests compare the library against; no build runs it.

Shortest paths (a binary-heap Dijkstra, the SPT it gives on a connected
graph, and Floyd-Warshall, with the library's kernel over the same edge
lists), a tree's root distances and stretch by a walk over its neighbour
lists, a graph grown one vertex and edge at a time, Kruskal's MST, the
pairs of coinciding points (with a cloud on which the duplicate check's
sort finds no order), a polyline's point at an arc length, a cone's
planar unfolding, the convex-hull covering radius of the cone axes, a
lower bound on the pyramid instance's MST weight, the core's per-level
weights, slack and stretch against the paper's bounds, a core's frame,
levels and points one float at a time, the folding graph built one
surface and one element at a time, and its tree lifted one vertex, stop
and bend at a time.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import accumulate

import numpy as np

from slt import pipeline
from slt.core2d import CoreChains, CoreGraph, CoreInstance, portal_grid
from slt.errors import (
    AngleOutOfRange, AngleOverflow, DegenerateRay, Disconnected, EmptySurface, EpsOutOfRange
)
from slt.geometry import COINCIDENT_TOL, ArcPosition, PlanePoint, Point, Polyline, dist, each, points_close
from slt.metrics import dijkstra, root_paths
from slt.mst_path import HamPath, PointCloud, SteinerGraph, Tree, _direction, dfs_hamiltonian, euclidean_mst
from slt.breakpoints import BreakpointSet, SubdividedPath
from slt.pipeline import KINDS, FoldingGraph, Gadgets
from slt.pyramid import GridSpec
from slt.unfolding import FoldedSurface, Surfaces, _vertex_angles


def adjacency(n: int, edges) -> list[list[tuple[int, float]]]:
    """Neighbour lists ``(vertex, weight)`` of an undirected edge list (u, v, w), in edge order."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def triples(tree: Tree) -> list[tuple[int, int, float]]:
    """The tree's edges as (u, v, weight) triples, in edge order."""
    return list(zip(*tree.edges.T.tolist(), tree.weights.tolist()))


def coord_tuples(graph: SteinerGraph) -> list[Point]:
    """The graph's vertices as tuples of floats, in id order."""
    return list(map(tuple, graph.coords.tolist()))


def tree_distances(tree: Tree, source: int) -> list[float]:
    """Path lengths from ``source`` within a tree, by a stack walk: d(v) = d(p) + w down each edge p-v.

    A vertex is marked when first reached, not by a finite distance, so an
    edge that weighs inf gives the vertices past it inf and ends.
    """
    adj = adjacency(tree.n, triples(tree))
    dist_arr = [math.inf] * tree.n
    dist_arr[source] = 0.0
    seen = [False] * tree.n
    seen[source] = True
    stack = [source]
    while stack:
        v = stack.pop()
        for u, w in adj[v]:
            if not seen[u]:
                seen[u] = True
                dist_arr[u] = dist_arr[v] + w
                stack.append(u)
    return dist_arr


def root_stretch(graph: SteinerGraph, tree: Tree, vertex_of: list[int]) -> list[float]:
    """Per input vertex, its ``tree_distances`` over its distance to the root; the root's is 1.0."""
    d, coords = tree_distances(tree, tree.root), coord_tuples(graph)
    return [1.0 if v == tree.root else d[v] / math.dist(coords[tree.root], coords[v]) for v in vertex_of]


class ListGraph:
    """A graph grown one vertex and one edge at a time: ``coords`` and
    ``kinds`` per vertex, ``edges`` as (u, v, weight), each weighing the
    distance between its ends."""

    def __init__(self):
        self.coords: list[Point] = []
        self.kinds: list[str] = []
        self.edges: list[tuple[int, int, float]] = []

    @property
    def n(self) -> int:
        return len(self.coords)

    def add_vertex(self, p: Point, kind: str) -> int:
        self.coords.append(p)
        self.kinds.append(kind)
        return len(self.coords) - 1

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v, math.dist(self.coords[u], self.coords[v])))

    def records(self, root: int) -> tuple[SteinerGraph, Tree]:
        """The graph as the package's array records, its edges those of a tree from ``root``."""
        ends = np.array([(u, v) for u, v, _ in self.edges], dtype=np.intp).reshape(-1, 2)
        return (SteinerGraph(np.array(self.coords, dtype=float), list(self.kinds)),
                Tree(ends, np.array([w for *_, w in self.edges]), root))


def heap_dijkstra(n: int, adj: list[list[tuple[int, float]]], source: int):
    """Nonnegative-weight shortest paths; ties broken by vertex index.

    Vertices are settled in (distance, index) order among those reached.
    A vertex's distance is the least float sum d(v) + w over its
    neighbours v settled before it, and its parent is the lowest-index
    such v whose sum equals that distance; a neighbour settled later never
    changes either.  Returns (dist list, parent list); unreachable
    vertices keep inf / -1.  ``slt.metrics.dijkstra`` must agree with it.
    """
    dist_arr = [math.inf] * n
    parent = [-1] * n
    dist_arr[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w in adj[v]:
            nd = d + w
            if nd < dist_arr[u] or (nd == dist_arr[u] and not done[u] and v < parent[u]):
                dist_arr[u] = nd
                parent[u] = v
                heappush(heap, (nd, u))
    return dist_arr, parent


def oracle_spt(n: int, edges, source: int):
    """Heap Dijkstra SPT over an undirected weighted edge list."""
    dist_arr, parent = heap_dijkstra(n, adjacency(n, edges), source)
    if any(math.isinf(d) for d in dist_arr):
        raise Disconnected("graph is not connected")
    return dist_arr, parent


def kernel_spt(n: int, edges, source: int):
    """``slt.metrics.dijkstra`` over an edge list (u, v, w), as a build calls it."""
    table = np.array(edges, dtype=float).reshape(-1, 3)
    return dijkstra(n, table[:, :2], table[:, 2], source)


def floyd_warshall(n: int, edges) -> np.ndarray:
    """All-pairs shortest distances; independent check for Dijkstra."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def kruskal_mst(points: tuple[Point, ...], root: int = 0) -> Tree:
    """Independent MST oracle: sort all pairs, grow with union-find."""
    n = len(points)
    pairs = sorted(
        (dist(points[i], points[j]), i, j) for i in range(n) for j in range(i + 1, n)
    )
    uf = _UnionFind(n)
    edges, weights = [], []
    for w, i, j in pairs:
        if uf.union(i, j):
            edges.append((i, j))
            weights.append(w)
            if len(edges) == n - 1:
                break
    return Tree(np.array(edges, dtype=np.intp).reshape(-1, 2), np.array(weights), root)


def duplicate_pairs(points) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, within COINCIDENT_TOL in each coordinate, in row order.

    Brute force: each point against every later one, O(n^2 d).
    """
    arr = np.asarray(points, dtype=float)
    pairs = []
    for i in range(len(arr) - 1):
        near = np.abs(arr[i + 1 :] - arr[i]).max(axis=1) < COINCIDENT_TOL
        pairs.extend((i, i + 1 + j) for j in np.flatnonzero(near).tolist())
    return pairs


def hyperplane_cloud(side: int) -> np.ndarray:
    """side^2 points of R^4, unit-spaced, on the hyperplane orthogonal to the
    duplicate check's sort direction: all project within rounding of 0."""
    u = _direction(4)
    a, b = np.meshgrid(np.arange(float(side)), np.arange(float(side)), indexing="ij")
    a, b = a.ravel(), b.ravel()
    return np.column_stack((a * u[1], -a * u[0], b * u[3], -b * u[2]))


def point_at_arc(path: Polyline, arc: float) -> Point:
    """Linear interpolation of the polyline at the given arc length."""
    return path.point_at(path.locate(arc))


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


def _left_to_right(xs) -> float:
    """Python 3.11's ``sum`` of floats: from 0.0, one addition at a time."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _cone_rays(surf: FoldedSurface, j: int) -> tuple[Point, Point]:
    """A point on each boundary ray of cone j; the root surface's one cone lies along its far ray."""
    v = surf.verts
    return (v[1], v[1]) if points_close(v[0], surf.apex) else (v[j], v[j + 1])


def cone_frame(surf: FoldedSurface, j: int):
    """Orthonormal in-plane frame (e1, e2) of cone j; e2 is None for a cone along one ray."""
    ray_a, ray_b = _cone_rays(surf, j)
    s = surf.apex
    a = [x - y for x, y in zip(ray_a, s)]
    na = math.sqrt(_left_to_right([x * x for x in a]))
    e1 = tuple([x / na for x in a])
    b = [x - y for x, y in zip(ray_b, s)]
    proj = _left_to_right([x * y for x, y in zip(b, e1)])
    w = [x - proj * y for x, y in zip(b, e1)]
    nw = math.sqrt(_left_to_right([x * x for x in w]))
    e2 = tuple([x / nw for x in w]) if nw > COINCIDENT_TOL * max(proj, 1e-300) else None
    return e1, e2


def scalar_lift(surf: FoldedSurface, q: PlanePoint) -> Point:
    """``slt.unfolding.lift`` one point at a time: a planar point back onto the surface in R^d."""
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
    e1, e2 = cone_frame(surf, j)
    s = surf.apex
    if e2 is None or local == 0.0:
        return tuple([si + r * e1i for si, e1i in zip(s, e1)])
    c = r * math.cos(local)
    d = r * math.sin(local)
    return tuple([si + c * e1i + d * e2i for si, e1i, e2i in zip(s, e1, e2)])


def scalar_ray_crossings(surf: FoldedSurface, q1: PlanePoint, q2: PlanePoint) -> list[PlanePoint]:
    """``slt.unfolding.ray_crossings`` one ray at a time: the bends of q1q2's lift, from q1 on."""
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


def _covering_radius(axes: np.ndarray) -> float:
    """Largest angle from any direction to its nearest axis, exactly.

    The facets of the axes' convex hull are their spherical Delaunay
    triangles, so the farthest directions are the facets' outward unit
    normals (the triangles' circumcentres), at the angle between normal
    and facet vertex.
    """
    # The tests' reference for the stored radius; no build calls it.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(axes)
    normals = hull.equations[:, :3]
    corner = axes[hull.simplices[:, 0]]
    sin = np.linalg.norm(np.cross(normals, corner), axis=1)
    return float(np.arctan2(sin, np.einsum("ij,ij->i", normals, corner)).max())


def pyramid_mst_lower_bound(grid: GridSpec, d: int, eps: float) -> float:
    """Lower bound on the MST weight of the grid instance."""
    if grid.n < 2:
        raise ValueError("bound needs at least 2 grid points")
    return grid.n * math.sqrt(eps / d) / (2.0 * grid.n ** (1.0 / (d - 1)))


@dataclass
class CoreReport:
    tree_weight: float
    level_totals: list[float]
    level_bounds: list[float]
    chain_total: float
    chain_bound: float
    slack: list[float]
    slack_bounds: list[float]
    per_point_stretch: list[float]
    grid_stretch: list[float]
    max_stretch: float
    mst_weight: float
    lightness: float
    lightness_bound: float


def core_metrics(g: CoreGraph, tree: Tree, dists: list[float]) -> CoreReport:
    """Weights, per-level bounds, slack and stretch of the core SPT."""
    alpha, lam, k = g.alpha, g.lam, g.k
    level_totals = [(1 << (i + 1)) * g.chain[i] for i in range(k + 1)]
    level_bounds = [4.0 / lam**i for i in range(k + 1)]
    chain_total = sum(level_totals)
    chain_bound = 4.0 * lam / (lam - 1.0)

    # Slack per chain edge: length minus the size of its y-projection.
    slack = []
    ys = {}
    for v in range(g.n):
        lvl = g.levels[v]
        if lvl >= 0:
            ys.setdefault(lvl, g.coords[v][1])
    for i in range(k + 1):
        y_hi = ys[i]
        y_lo = ys.get(i + 1, 0.0)
        slack.append(g.chain[i] - (y_hi - y_lo))
    slack_bounds = [(alpha**2 / 4.0) * (lam / 2.0) ** i for i in range(k + 1)]

    s = g.coords[g.root]
    per_point = []
    for v in g.input_ids:
        dv = dist(s, g.coords[v])
        per_point.append(dists[v] / dv if dv > 0 else 1.0)
    grid_stretch = [
        dists[v] / dist(s, g.coords[v]) for v in g.grid_ids if dist(s, g.coords[v]) > 0
    ]
    max_stretch = max(per_point) if per_point else 1.0

    input_points = tuple(g.coords[v] for v in g.input_ids)
    tree_weight = tree.weight
    if input_points:
        mst_weight = euclidean_mst(PointCloud((s,) + input_points, 0)).weight
        lightness_val = tree_weight / mst_weight
    else:
        mst_weight = float("nan")
        lightness_val = float("nan")
    lightness_bound = (chain_bound + g.base_path_weight) / math.cos(alpha / 2.0)
    return CoreReport(
        tree_weight,
        level_totals,
        level_bounds,
        chain_total,
        chain_bound,
        slack,
        slack_bounds,
        per_point,
        grid_stretch,
        max_stretch,
        mst_weight,
        lightness_val,
        lightness_bound,
    )


# --- The folding front end one break point and one surface at a time --------
#
# ``slt.breakpoints`` and ``slt.unfolding`` place the break points, merge
# them into the path and glue the surfaces as arrays; the code below does
# it one crossing, vertex and surface at a time, as the package did
# before, and the tests hold the two to the same floats.


@dataclass(frozen=True)
class LoopBreakpoints:
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
class LoopPath:
    """H with its break points inserted as vertices.

    Segment i runs from hstar vertex bp_vertex[i] to bp_vertex[i + 1].
    """

    hstar: Polyline
    #: hstar vertex index of each break point
    bp_vertex: tuple[int, ...]
    #: original input index per hstar vertex, or -1 for a Steiner vertex
    input_index: tuple[int, ...]
    truncated: bool


def loop_select_breakpoints(H: HamPath, eps: float) -> LoopBreakpoints:
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
        return LoopBreakpoints(tuple(positions), (s,), eps, False)

    positions.append(_loop_vertex_position(path, 1))
    points = [_loop_point_at(path, p) for p in positions]
    truncated = False
    guard = 1e-12 * total
    roots = _loop_crossings(path, sq, positions[-1])
    while positions[-1][2] < total - guard:
        found = next(roots, None)
        if found is None:
            last = _loop_vertex_position(path, len(path.vertices) - 1)
            positions.append(last)
            points.append(_loop_point_at(path, last))
            truncated = True
            break
        nxt, point = found
        if nxt[2] - positions[-1][2] < guard:
            raise ValueError(
                "degenerate break point spacing: path passes through the root"
            )
        positions.append(nxt)
        points.append(point)
    return LoopBreakpoints(tuple(positions), tuple(points), eps, truncated)


def _loop_vertex_position(path: Polyline, j: int) -> tuple[int, float, float]:
    if j == len(path.vertices) - 1 and j > 0:
        seg = j - 1
        return (seg, path.cum_len[j] - path.cum_len[seg], path.cum_len[j])
    return (j, 0.0, path.cum_len[j])


def _loop_point_at(path: Polyline, pos: tuple[int, float, float]) -> Point:
    return path.point_at(ArcPosition(*pos))


def _loop_crossings(path: Polyline, sq: float, cur: tuple[int, float, float]):
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
    end_tol = 1e-15 * path.total_length
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
            t = _loop_solve_on_segment(a, b[j], c[j], eps, t0, seg_len)
            if t is not None:
                f = t / seg_len
                q = [x + f * d for x, d in zip(p0, dp)]
                dd = math.dist(s, q)
                if abs((a + t) - sq * dd) > 1e-9 * max(sq * dd, 1e-300):
                    t = None
            if t is None:
                t, q = _loop_bisect_on_segment(s, p0, dp, a, sq, t0, seg_len)
            if t >= seg_len - end_tol:
                pos = _loop_vertex_position(path, j + 1)
                found = (pos, _loop_point_at(path, pos))
            else:
                found = ((j, t, cum[j] + t), tuple(q))
            break
        if found is None:
            return
        yield found
        cur_seg, cur_t, cur_arc = found[0]


def _loop_gap_at(s, p0, dp, a, sq, seg_len, t):
    """g(t) = arc - sq * dist(s, q) at offset t, with the point q."""
    f = t / seg_len
    q = [x + f * d for x, d in zip(p0, dp)]
    return (a + t) - sq * math.dist(s, q), q


def _loop_bisect_on_segment(s, p0, dp, a, sq, t0, seg_len):
    """Monotone bisection fallback: the crossing in [t0, seg_len] and its point."""
    glo, q = _loop_gap_at(s, p0, dp, a, sq, seg_len, t0)
    if glo >= 0.0:
        return t0, q  # crossing collapsed onto the interval start
    lo, hi = t0, seg_len
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        gm, qm = _loop_gap_at(s, p0, dp, a, sq, seg_len, mid)
        if gm < 0.0:
            lo = mid
        else:
            hi, q = mid, qm
        if hi - lo <= 1e-16 * seg_len:
            break
    # q is the point at hi unless hi is still seg_len, where the caller
    # takes the segment's end vertex instead.
    return hi, q


def _loop_solve_on_segment(a, b, c, eps, t0, seg_len):
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
    tol = 1e-12 * seg_len
    for t in roots:
        if lo - tol <= t <= seg_len + tol:
            return min(max(t, lo), seg_len)
    return None


def loop_subdivide(H: HamPath, B: LoopBreakpoints) -> LoopPath:
    """Insert the break points as vertices of H, preserving length."""
    path = H.geometry
    total = path.total_length
    tol = 1e-12 * total

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

    return LoopPath(
        Polyline(tuple(verts)), tuple(bp_vertex), tuple(input_index), B.truncated
    )


def loop_build_surfaces(sub: LoopPath, s: Point) -> list[FoldedSurface]:
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


def loop_surface_inputs(
    surfaces: list[FoldedSurface], sub: LoopPath, root: int
) -> list[list[int]]:
    """Per surface, the local indices of its inputs but the root; none on the root surface.

    A surface's path positions run from its first vertex's to its last's,
    so one count over the path tells which surfaces hold an input at all.
    """
    index = sub.input_index
    held = [i >= 0 and i != root for i in index]
    before = list(accumulate(held, initial=0))  # inputs held before each position
    out: list[list[int]] = []
    for surf in surfaces:
        hs = surf.hstar
        if before[hs[-1] + 1] == before[hs[0]] or index[hs[0]] == root:
            out.append([])
        else:
            out.append([j for j, h in enumerate(hs) if held[h]])
    return out


def loop_front_end(pts: PointCloud, eps: float, gamma: float = 8.0, lam: float = 1.25):
    """``slt.pipeline._front_end`` one break point and one surface at a time."""
    if pts.n < 2:
        raise ValueError("need at least two points")
    if not 0.0 < eps <= 0.25:
        raise EpsOutOfRange(f"eps={eps} outside (0, 1/4]")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be at least 1 and finite, got {gamma}")
    if not 1.0 < lam < 2.0:
        raise ValueError(f"lambda={lam} outside (1, 2)")
    eps_int = eps / gamma
    mst = euclidean_mst(pts)
    ham = dfs_hamiltonian(mst, pts)
    bps = loop_select_breakpoints(ham, eps_int)
    sub = loop_subdivide(ham, bps)
    return eps_int, mst, bps, sub, loop_build_surfaces(sub, pts.points[pts.root])


def as_breakpoints(B: LoopBreakpoints) -> BreakpointSet:
    """The loop's break points as the library's record."""
    seg, t, arc = (np.array(x) for x in zip(*B.raw_positions))
    return BreakpointSet(seg.astype(int), t, arc, np.array(B.points, dtype=float), B.eps, B.truncated)


def as_subdivided(sub: LoopPath) -> SubdividedPath:
    """The loop's subdivided path as the library's record."""
    return SubdividedPath(np.array(sub.hstar.vertices, dtype=float), np.array(sub.bp_vertex, dtype=int),
                          np.array(sub.input_index, dtype=int), sub.truncated)


def as_surfaces(surfaces: list[FoldedSurface], sub: LoopPath) -> Surfaces:
    """The loop's surfaces over ``sub`` as the library's ragged record."""
    made = Surfaces.of(surfaces[0].apex, surfaces)
    return replace(made, points=np.array(sub.hstar.vertices, dtype=float),
                   hstar=np.array([h for f in surfaces for h in f.hstar], dtype=int))


def loop_front_end_stages():
    """``slt.pipeline``'s three front-end stages, by name, run one element at a time.

    Each returns the library's record of what the loop makes, so a build
    can run on them; the loop's own records pass from stage to stage.
    """
    made = {}

    def select(H, eps):
        made["bps"] = loop_select_breakpoints(H, eps)
        return as_breakpoints(made["bps"])

    def subdivide(H, B):
        made["sub"] = loop_subdivide(H, made["bps"])
        return as_subdivided(made["sub"])

    def surfaces(sub, s):
        return as_surfaces(loop_build_surfaces(made["sub"], s), made["sub"])

    return {"select_breakpoints": select, "subdivide": subdivide, "build_surfaces": surfaces}


def made_surfaces(surfaces: list[FoldedSurface], inputs_of: list[list[int]]):
    """Surfaces made by hand, and the slots of their inputs, as ``build_gadget`` takes them."""
    held = np.zeros(sum(len(f.verts) for f in surfaces), dtype=bool)
    start = np.cumsum([0] + [len(f.verts) for f in surfaces])
    for first, inputs in zip(start.tolist(), inputs_of):
        held[[first + j for j in inputs]] = True
    return Surfaces.of(surfaces[0].apex, surfaces), held


# --- The folding graph one surface and one element at a time ---------------
#
# ``slt.pipeline.build_gadget`` and ``_realize`` build every gadget of a
# build at once, as arrays; the code below builds them one surface at a
# time, as the package did before, and the tests hold the two to the same
# floats, vertices and edges.


class PlanarGraph(ListGraph):
    """The folding graph with its edges added one at a time.

    ``planar`` maps the key (lo, hi) of a gadget edge to its surface and
    the planar points of lo and hi; ``core_paths`` maps the root's edge
    (root, v) to its core paths (w, (surface, ScalarChain, grid vertex,
    whether the portal is on it, portal point)); ``surface`` maps a portal
    to its surface.  Two vertices get at most one edge but core paths,
    and a vertex none to itself; ``records`` tells each edge's kind.
    """

    def __init__(self):
        super().__init__()
        self.surface: dict[int, FoldedSurface] = {}
        self.planar: dict[tuple[int, int], tuple] = {}
        self.core_paths: dict[tuple[int, int], list[tuple[float, tuple]]] = {}
        self.records: list = []  # per edge: None (straight), a planar value or a core path
        self._edge_set: set[tuple[int, int]] = set()

    def add_edge(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if u != v and key not in self._edge_set:
            self._edge_set.add(key)
            self.edges.append((u, v, math.dist(self.coords[u], self.coords[v])))
            self.records.append(None)

    def add_gadget_edge(self, surf, u: int, qu: PlanePoint, v: int, qv: PlanePoint) -> None:
        """Edge between the planar points qu, qv of u, v on ``surf``, weighed in the plane."""
        key = (u, v) if u < v else (v, u)
        if u == v or key in self._edge_set:
            return
        self._edge_set.add(key)
        if u > v:
            u, v, qu, qv = v, u, qv, qu
        self.planar[key] = (surf, qu, qv)
        self.edges.append((u, v, math.dist(qu, qv)))
        self.records.append(self.planar[key])

    def add_core_path(self, u: int, v: int, w: float, path: tuple) -> None:
        """Edge u-v, maybe parallel to another, for a path through an unbuilt core."""
        self.edges.append((u, v, w))
        self.core_paths.setdefault((u, v), []).append((w, path))
        self.records.append(path)


@dataclass(slots=True)
class SecondaryBp:
    """A secondary break point on the sub-path of one surface."""

    arc: float
    edge: int  # sub-path edge index
    point: Point
    plane: PlanePoint
    at_vertex: int  # local vertex index if it coincides with one, else -1
    steiner: int  # index of the nearest Steiner point on the cross line


@dataclass
class SurfaceGadget:
    """Planar construction data for one folded surface that holds an input."""

    surface: FoldedSurface
    vertex_images: list[PlanePoint]
    secondary: list[SecondaryBp]
    ell_a: PlanePoint
    ell_b: PlanePoint
    ell_steiner: list[PlanePoint]
    r_local: int
    eps_int: float
    lam: float

    def core_triangle(self) -> CoreInstance | None:
        """The recursive triangle over the cross line; None if it has zero width."""
        a, b = self.ell_a, self.ell_b
        if math.dist(a, b) < 1e-12 * a[0]:
            return None
        eps_core = max(self.eps_int, self.surface.total_angle**2)
        return CoreInstance((0.0, 0.0), a, b, (), eps_core, self.lam)

    def core_instance(self) -> CoreInstance | None:
        """The core triangle with the Steiner points on its base, checked there."""
        tri = self.core_triangle()
        return None if tri is None else replace(tri, base_points=tuple(self.ell_steiner))


def surface_gadget(
    surf: FoldedSurface, input_locals: list[int], eps_int: float, lam: float = 1.25
) -> SurfaceGadget:
    """Planar gadget for one surface; ``input_locals`` lists its inputs, at least one."""
    verts = surf.verts
    if len(verts) < 2:
        raise EmptySurface(f"surface {surf.index} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    if not input_locals:
        raise ValueError(f"surface {surf.index} holds no input")
    radius = [math.dist(surf.apex, v) for v in verts]
    imgs = [(r * math.cos(t), r * math.sin(t))
            for r, t in zip(radius, surf.cum_angle, strict=True)]
    cum_len = list(accumulate(map(math.dist, verts, verts[1:]), initial=0.0))
    total_len = cum_len[-1]
    theta_count = math.ceil(math.sqrt(1.0 / eps_int))
    r_local = min(input_locals, key=lambda j: (radius[j], j))
    r_img = imgs[r_local]
    total_angle = surf.cum_angle[-1]
    flat = total_angle < 1e-9
    if flat:
        ell_a = ell_b = (radius[r_local], 0.0)
        steiner = [ell_a]
    else:
        phi = 0.5 * total_angle
        c = r_img[0] * math.cos(phi) + r_img[1] * math.sin(phi)
        t_ell = c / math.cos(phi)
        ell_a = (t_ell, 0.0)
        ell_b = (t_ell * math.cos(total_angle), t_ell * math.sin(total_angle))
        steiner = [
            (
                ell_a[0] + (ell_b[0] - ell_a[0]) * q / (theta_count - 1),
                ell_a[1] + (ell_b[1] - ell_a[1]) * q / (theta_count - 1),
            )
            for q in range(theta_count)
        ]
        (ax, ay), (bx, by) = steiner[0], steiner[-1]
        dx, dy = bx - ax, by - ay
        span, m = dx * dx + dy * dy, theta_count - 1
    secondary: list[SecondaryBp] = []
    vtol = 1e-12 * total_len
    j, last = 0, len(cum_len) - 2
    for q in range(1, theta_count + 1):
        arc = q * total_len / theta_count if q < theta_count else total_len
        while j < last and cum_len[j + 1] <= arc:
            j += 1
        t = arc - cum_len[j]
        seg_len = cum_len[j + 1] - cum_len[j]
        at_vertex = -1
        frac = t / seg_len if seg_len > 0 else 0.0
        if t <= vtol:
            at_vertex, frac = j, 0.0
        elif t >= seg_len - vtol:
            at_vertex, frac = j + 1, 1.0
        if at_vertex >= 0:
            point = verts[at_vertex]
            plane = imgs[at_vertex]
        else:
            point = tuple([a + frac * (b - a) for a, b in zip(verts[j], verts[j + 1])])
            a, b = imgs[j], imgs[j + 1]
            plane = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        if flat:
            nearest = 0
        else:
            ang = math.atan2(plane[1], plane[0])
            rr = c / math.cos(ang - phi)
            p = (rr * math.cos(ang), rr * math.sin(ang))
            lo = math.floor(((p[0] - ax) * dx + (p[1] - ay) * dy) / span * m)
            lo = 0 if lo < 0 else m - 1 if lo > m - 1 else lo
            nearest = lo if math.dist(steiner[lo], p) <= math.dist(steiner[lo + 1], p) else lo + 1
        secondary.append(SecondaryBp(arc, j, point, plane, at_vertex, nearest))
    return SurfaceGadget(surf, imgs, secondary, ell_a, ell_b, steiner, r_local, eps_int, lam)


def gadget_row(gad: Gadgets, surfaces: Surfaces, g: int) -> SurfaceGadget:
    """Row g of a batch of gadgets on ``surfaces`` as one ``SurfaceGadget``."""
    n, steiner = int(gad.rows.n_verts[g]), gad.ell_steiner[g, :1 if gad.flat[g] else None]
    secondary = [SecondaryBp(*row) for row in zip(
        gad.arc[g].tolist(), gad.edge[g].tolist(), map(tuple, gad.point[g].tolist()),
        map(tuple, gad.plane[g].tolist()), gad.at_vertex[g].tolist(), gad.steiner[g].tolist())]
    return SurfaceGadget(surfaces[int(gad.surface[g])], list(map(tuple, gad.vertex_images[g, :n].tolist())), secondary,
                         tuple(gad.ell_a[g].tolist()), tuple(gad.ell_b[g].tolist()),
                         list(map(tuple, steiner.tolist())), int(gad.r_local[g]),
                         gad.eps_int, gad.lam)


def realize(G: PlanarGraph, gadget: SurfaceGadget, vids: list[int], root_id: int) -> ScalarChain | None:
    """Add the surface's sub-path and its planar gadget to the graph; return its core."""
    surf = gadget.surface
    coords, kinds = G.coords, G.kinds
    add_edge, link = G.add_edge, G.add_gadget_edge
    sec_ids: list[int] = []
    prev, j = vids[0], 0
    for sb in gadget.secondary:
        if sb.at_vertex >= 0:
            sec_ids.append(vids[sb.at_vertex])
            continue
        vid = len(coords)
        coords.append(sb.point)
        kinds.append("secondary_break")
        sec_ids.append(vid)
        while j < sb.edge:
            j += 1
            add_edge(prev, vids[j])
            prev = vids[j]
        add_edge(prev, vid)
        prev = vid
    while j < len(vids) - 1:
        j += 1
        add_edge(prev, vids[j])
        prev = vids[j]
    r_id, r_img = vids[gadget.r_local], gadget.vertex_images[gadget.r_local]
    rx, ry = r_img
    near = 1e-12 * math.hypot(rx, ry)
    ids, plane = [], []
    for q in gadget.ell_steiner:
        if math.hypot(q[0] - rx, q[1] - ry) <= near:
            ids.append(r_id)
            plane.append(r_img)
        else:
            v = len(coords)
            G.surface[v] = surf
            ids.append(v)
            coords.append(q)
            kinds.append("ell_steiner")
            plane.append(q)
    core = None
    tri = gadget.core_triangle()
    if tri is None:
        link(surf, root_id, (0.0, 0.0), ids[0], plane[0])
    else:
        core = scalar_chain(tri)
        m, k = len(ids) - 1, core.k
        dx, dy = gadget.ell_b[0] - gadget.ell_a[0], gadget.ell_b[1] - gadget.ell_a[1]
        for x, v in enumerate(ids):
            (on, u), qv = portal_grid(x, m, k), plane[x]
            qu = plane[u] if u >= 0 else core.point((-1, -1 - u))
            if on < 0 and ((qu[0] - rx) * dx + (qu[1] - ry) * dy) * (
                    (qv[0] - rx) * dx + (qv[1] - ry) * dy) < 0.0:
                link(surf, r_id, r_img, v, qv)
                v, qv = r_id, r_img
            if u >= 0:
                link(surf, ids[u], qu, v, qv)
            else:
                w = core.dists[-1] + math.dist(qu, qv)
                G.add_core_path(root_id, v, w, (surf, core, -1 - u, on >= 0, qv))
    for sb, vid in zip(gadget.secondary, sec_ids):
        x = sb.steiner
        link(surf, ids[x], plane[x], vid, sb.plane)
    return core


def relay_only(s: Point, surfaces: list[FoldedSurface], inputs_of: list[list[int]], i: int) -> bool:
    """``slt.pipeline._relay_only`` of surface i alone: whether no root path can use its segment."""
    surf = surfaces[i]
    if i == 0 or i + 1 == len(surfaces) or len(surf.hstar) != 2:
        return False
    if inputs_of[i + 1] or surfaces[i + 1].hstar[0] != surf.hstar[1]:
        return False
    a, b = surf.verts
    sa, sb, ab = math.dist(s, a), math.dist(s, b), math.dist(a, b)
    margin = pipeline._CUT_MARGIN
    return sa + ab > sb * (1.0 + margin) and sb + ab > sa * (1.0 + margin)


def loop_folding_graph(pts: PointCloud, eps: float, gamma: float = 8.0, lam: float = 1.25):
    """``assemble_slt``'s graph, a gadget at a time: (graph, surfaces, gadgets)."""
    eps_int, _, _, sub, surfaces = loop_front_end(pts, eps, gamma, lam)
    s, root_id = pts.points[pts.root], pts.root
    G = PlanarGraph()
    G.coords.extend(pts.points)
    G.kinds.extend(["input"] * pts.n)
    vertex_of = list(sub.input_index)
    hverts = sub.hstar.vertices
    inputs_of = loop_surface_inputs(surfaces, sub, root_id)
    gadgets = []
    for i, surf in enumerate(surfaces):
        inputs = inputs_of[i]
        if not inputs and relay_only(s, surfaces, inputs_of, i):
            a = vertex_of[surf.hstar[0]]
            if a >= 0:
                G.add_edge(root_id, a)
            continue
        vids = []
        for h in surf.hstar:
            v = vertex_of[h]
            if v < 0:
                v = vertex_of[h] = len(G.coords)
                G.coords.append(hverts[h])
                G.kinds.append("break")
            vids.append(v)
        if not inputs:
            for u, v in zip(vids, vids[1:]):
                G.add_edge(u, v)
            if vids[0] != root_id:
                G.add_edge(root_id, vids[0])
            continue
        gadgets.append(surface_gadget(surf, inputs, eps_int, lam))
        realize(G, gadgets[-1], vids, root_id)
    return G, surfaces, gadgets


def as_folding_graph(G: PlanarGraph) -> FoldingGraph:
    """``G`` in the arrays of ``slt.pipeline.FoldingGraph``, a gadget per surface in order."""
    surfaces = {f.index: f for f in G.surface.values()}
    chains = {}
    for record in G.records:
        if record is not None:
            surfaces[record[0].index] = record[0]
        if record is not None and len(record) == 5:
            chains[record[0].index] = record[1]
    order = sorted(surfaces)
    gadget = {index: g for g, index in enumerate(order)}
    d = len(G.coords[0])  # the root's
    points, plane = np.full((G.n, d), np.nan), np.full((G.n, 2), np.nan)
    vertex_gadget = np.full(G.n, -1)
    for v, p in enumerate(G.coords):
        if v in G.surface:
            vertex_gadget[v] = gadget[G.surface[v].index]
            plane[v] = p
        else:
            points[v] = p
    m = len(G.edges)
    edge_gadget, edge_grid = np.full(m, -1), np.full(m, -1)
    edge_plane, edge_on = np.zeros((m, 4)), np.zeros(m, dtype=bool)
    for e, record in enumerate(G.records):
        if record is None:
            continue
        edge_gadget[e] = gadget[record[0].index]
        if len(record) == 3:
            edge_plane[e] = [*record[1], *record[2]]
        else:
            _, core, j, on, q_end = record
            edge_plane[e] = [*core.point((-1, j)), *q_end]
            edge_grid[e], edge_on[e] = j, on
    ends = np.array([(u, v) for u, v, _ in G.edges], dtype=int).reshape(-1, 2)
    cored = [i for i in order if i in chains]
    chain_row = np.array([cored.index(i) if i in chains else -1 for i in order], dtype=int)
    apex = surfaces[order[0]].apex if order else G.coords[0]
    return FoldingGraph(points, plane, np.array([KINDS.index(k) for k in G.kinds], dtype=int), ends,
                        np.array([w for *_, w in G.edges]), Surfaces.of(apex, [surfaces[i] for i in order]).rows(),
                        stack_chains([chains[i] for i in cored]), chain_row, vertex_gadget,
                        edge_gadget, edge_plane, edge_grid, edge_on)


def stack_chains(chains: list[ScalarChain]) -> CoreChains:
    """``ScalarChain`` records as the rows of one ``CoreChains``, which ``chain_of`` reads back."""
    top = max((c.k for c in chains), default=0)
    dists, heights = np.zeros((len(chains), top + 2)), np.zeros((len(chains), top + 2))
    for i, c in enumerate(chains):
        dists[i, :c.k + 2], heights[i, :c.k + 1] = c.dists, c.heights

    def column(values, *shape):
        return np.array(values, dtype=float).reshape(len(chains), *shape)

    return CoreChains(column([c.origin for c in chains], 2), column([c.ex for c in chains], 2),
                      column([c.ey for c in chains], 2), column([c.scale for c in chains]),
                      column([c.xa for c in chains]), column([c.xb for c in chains]),
                      np.array([c.k for c in chains], dtype=int), dists, heights)


def loop_prune(G: FoldingGraph, surfaces: list[FoldedSurface], dists: list[float], parent: list[int],
               targets: list[int], root_id: int):
    """``slt.pipeline._prune`` one vertex, stop and bend at a time; ``surfaces`` per gadget.

    Kept gadget vertices are lifted onto their surfaces, a kept core path
    is expanded into its apices and grid vertex, and each gadget edge
    becomes the polyline through its bends; its ends are kept vertices
    already, so only the bends are lifted for it.  Edges and bends are
    added in order of root distance.
    """
    used = root_paths(parent, root_id, targets)
    sub = ListGraph()
    n_old = G.n
    sub_coords, sub_kinds, sub_edges = sub.coords, sub.kinds, sub.edges
    new = {}
    for old, g in zip(used, G.vertex_gadget[used].tolist()):
        new[old] = len(sub_coords)
        q = tuple((G.points if g < 0 else G.plane)[old].tolist())
        sub_coords.append(q if g < 0 else scalar_lift(surfaces[g], q))
        sub_kinds.append(KINDS[G.kind[old]])
    # Of a pair's edges, in order (one that is not a core path, and core
    # paths from the root), a vertex takes the first core path as long as
    # its root distance, else the other edge.
    kept = np.zeros(n_old, dtype=bool)
    kept[used] = True
    between = np.flatnonzero(kept[G.ends[:, 0]] & kept[G.ends[:, 1]])
    ends = G.ends[between]
    keys = ends.min(1) * n_old + ends.max(1)
    by_key = np.argsort(keys, kind="stable")
    child = [v for v in used if parent[v] != -1]
    up = [parent[v] for v in child]
    pairs = np.minimum(child, up) * n_old + np.maximum(child, up)
    lo, hi = (np.searchsorted(keys[by_key], pairs, side).tolist() for side in ("left", "right"))
    by_key = by_key.tolist()
    weight, gadget, grid, on, plane = (x[between].tolist() for x in (
        G.weights, G.edge_gadget, G.edge_grid, G.edge_on, G.edge_plane))
    # (root distance, order, parent in sub, vertex in sub, planar segment);
    # no two share the first two, so they sort by those alone.
    steps = []
    paths = []  # (surface index, grid vertex, vertex, core path) per kept core path
    for old, p, a, b in zip(child, up, lo, hi):
        edge = path = None
        for e in by_key[a:b]:
            if grid[e] < 0:
                edge = e
            elif path is None and weight[e] == dists[old]:
                path = e
        if path is not None:
            surf, j = surfaces[gadget[path]], grid[path]
            core_path = (surf, chain_of(G.chains, G.chain_row[gadget[path]]), j, on[path], tuple(plane[path][2:]))
            paths.append((surf.index, j, old, core_path))
            continue
        seg = None
        if gadget[edge] >= 0:
            qa, qb = tuple(plane[edge][:2]), tuple(plane[edge][2:])
            seg = (surfaces[gadget[edge]], *((qb, qa) if p > old else (qa, qb)))
        steps.append((dists[old], old, new[p], new[old], seg))

    # By surface and ascending grid vertex: the order in which the tie rule
    # of ``scalar_apex_path`` shares apices, whatever the vertex numbering.
    paths.sort()
    made = {}  # surface index -> {key: (vertex in sub, planar point)}
    for index, j, old, (surf, core, _, on_grid, q_end) in paths:
        placed = made.setdefault(index, {})
        a, qa = new[root_id], (0.0, 0.0)
        for key in scalar_apex_path(core.k, j, placed) + ([] if on_grid else [(-1, j)]):
            if key not in placed:
                q = core.point(key)
                b = len(sub_coords)
                sub_coords.append(scalar_lift(surf, q))
                sub_kinds.append("ell_steiner" if key[0] < 0 else "core_apex")
                steps.append((core.dists[key[0]], n_old + len(steps), a, b, (surf, qa, q)))
                placed[key] = b, q
            a, qa = placed[key]
        steps.append((dists[old], old, a, new[old], (surf, qa, q_end)))
    steps.sort()
    for _, _, a, b, seg in steps:
        if seg is not None:
            for q in scalar_ray_crossings(*seg):
                bend = len(sub_coords)
                sub_coords.append(scalar_lift(seg[0], q))
                sub_kinds.append("bend")
                sub_edges.append((a, bend, math.dist(sub_coords[a], sub_coords[bend])))
                a = bend
        sub_edges.append((a, b, math.dist(sub_coords[a], sub_coords[b])))
    return *sub.records(new[root_id]), [new[t] for t in targets]


def scalar_apex_path(k: int, j: int, placed) -> list[tuple[int, int]]:
    """``slt.core2d.apex_path`` as a max over a dict: the apex keys from the root to grid vertex j.

    Of apices j - 1 and j, the one whose chain has the deepest apex in
    ``placed``, else the higher index.
    """
    depth = {a: next((i for i in range(k, 0, -1) if (i, a >> (k - i)) in placed), 0)
             for a in (j - 1, j) if 0 <= a < 1 << k}
    a = max(depth, key=lambda a: (depth[a], a))
    return [(i, a >> (k - i)) for i in range(1, k + 1)]


@dataclass(frozen=True)
class ScalarChain:
    """One core's chain in floats: its frame (``slt.core2d.CoreChains``' row) and levels.

    ``point`` places a key (level, j), or grid vertex j as (-1, j), one
    float at a time, as ``CoreChains.points`` places it.
    """

    origin: PlanePoint
    ex: PlanePoint
    ey: PlanePoint
    scale: float
    xa: float
    xb: float
    k: int
    dists: tuple[float, ...]  # root distance in the plane per level; k + 1 is the grid
    heights: tuple[float, ...]  # canonical height of the apices per level

    def to_plane(self, q: PlanePoint) -> PlanePoint:
        x, y = q[0] / self.scale, q[1] / self.scale
        return (self.origin[0] + x * self.ex[0] + y * self.ey[0],
                self.origin[1] + x * self.ex[1] + y * self.ey[1])

    def point(self, key: tuple[int, int]) -> PlanePoint:
        def grid_x(i, j):
            f = j / (1 << i)
            return self.xa * (1.0 - f) + self.xb * f

        i, j = key
        if i < 0:
            return self.to_plane((grid_x(self.k, j), 0.0))
        return self.to_plane((0.5 * (grid_x(i, j) + grid_x(i, j + 1)), self.heights[i]))


def scalar_chain(inst: CoreInstance) -> ScalarChain:
    """``slt.core2d.core_chains`` of one triangle, one float at a time: the frame, the levels and the legs."""
    o = (0.5 * (inst.base_a[0] + inst.base_b[0]), 0.5 * (inst.base_a[1] + inst.base_b[1]))
    abx, aby = inst.base_b[0] - inst.base_a[0], inst.base_b[1] - inst.base_a[1]
    w = math.hypot(abx, aby)
    ex = (abx / w, aby / w)
    sy = (inst.apex[0] - o[0], inst.apex[1] - o[1])
    proj = sy[0] * ex[0] + sy[1] * ex[1]
    wy = (sy[0] - proj * ex[0], sy[1] - proj * ex[1])
    ny = math.hypot(*wy)
    ey, scale = (wy[0] / ny, wy[1] / ny), 1.0 / dist(inst.apex, inst.base_a)

    def canonical(p):
        dx, dy = p[0] - o[0], p[1] - o[1]
        return (dx * ex[0] + dy * ex[1]) * scale, (dx * ey[0] + dy * ey[1]) * scale

    alpha, lam, k = inst.apex_angle, inst.lam, inst.k
    if alpha * lam**k >= math.pi / 2.0:
        raise AngleOverflow(f"final apex angle {alpha * lam**k:.4f} reaches pi/2 at level {k}")
    xa, xb = canonical(inst.base_a)[0], canonical(inst.base_b)[0]
    heights = [canonical(inst.apex)[1]] + [
        (xb - xa) / (1 << (i + 1)) / math.tan(alpha * lam**i / 2.0) for i in range(1, k + 1)]
    dx = [(xb - xa) / (1 << (i + 2)) for i in range(k)] + [(xb - xa) / (1 << (k + 1))]
    legs = map(math.hypot, dx, [hi - lo for hi, lo in zip(heights, heights[1:] + [0.0])])
    dists = [0.0] + [d / scale for d in accumulate(legs)]
    return ScalarChain(o, ex, ey, scale, xa, xb, k, tuple(dists), tuple(heights))


def chain_of(chains: CoreChains, i: int) -> ScalarChain:
    """Row i of ``chains`` as a ``ScalarChain``."""
    k = int(chains.k[i])
    return ScalarChain(tuple(chains.origin[i].tolist()), tuple(chains.ex[i].tolist()), tuple(chains.ey[i].tolist()),
                       float(chains.scale[i]), float(chains.xa[i]), float(chains.xb[i]), k,
                       tuple(chains.dists[i, :k + 2].tolist()), tuple(chains.heights[i, :k + 1].tolist()))


def chain_bits(chain: ScalarChain) -> list:
    """Every number of a ``ScalarChain``, floats as hex, to compare chains bit for bit."""
    return [chain.k] + [float(x).hex() for x in (*chain.origin, *chain.ex, *chain.ey, chain.scale, chain.xa, chain.xb,
                                                 *chain.dists, *chain.heights)]

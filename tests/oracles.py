"""Reference code the tests compare the library against; no build runs it.

Shortest paths (a binary-heap Dijkstra, the SPT it gives on a connected
graph, and Floyd-Warshall, with the library's kernel over the same edge
lists), Kruskal's MST, the pairs of coinciding points
(with a cloud on which the duplicate check's sort finds no order), a
polyline's point at an arc length, a cone's planar unfolding, the
convex-hull covering radius of the cone axes, a lower bound on the
pyramid instance's MST weight, and the core's per-level weights, slack
and stretch against the paper's bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from slt.core2d import CoreGraph
from slt.errors import AngleOutOfRange, Disconnected
from slt.geometry import COINCIDENT_TOL, PlanePoint, Point, Polyline, dist
from slt.metrics import adjacency, dijkstra, edge_table
from slt.mst_path import PointCloud, Tree, _direction, euclidean_mst
from slt.pyramid import GridSpec
from slt.unfolding import FoldedSurface


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
    table = edge_table(edges)
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
    edges = []
    for w, i, j in pairs:
        if uf.union(i, j):
            edges.append((i, j, w))
            if len(edges) == n - 1:
                break
    return Tree(n, tuple(edges), root)


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

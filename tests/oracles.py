"""Reference code the tests compare the library against; no build runs it.

Shortest paths (a binary-heap Dijkstra, the SPT it gives on a connected
graph, and Floyd-Warshall, with the library's kernel over the same edge
lists), Kruskal's MST, the pairs of coinciding points
(with a cloud on which the duplicate check's sort finds no order), a
polyline's point at an arc length, a cone's planar unfolding, the
convex-hull covering radius of the cone axes, a lower bound on the
pyramid instance's MST weight, the core's per-level weights, slack
and stretch against the paper's bounds, and the folding graph built one
surface and one element at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import accumulate

import numpy as np

from slt.core2d import CoreChain, CoreGraph, CoreInstance, Frame, portal_grid
from slt.errors import AngleOutOfRange, AngleOverflow, Disconnected, EmptySurface, EpsOutOfRange
from slt.geometry import COINCIDENT_TOL, PlanePoint, Point, Polyline, dist
from slt.metrics import adjacency, dijkstra
from slt.mst_path import PointCloud, Tree, _direction, euclidean_mst
from slt.pipeline import FoldingGraph, Gadgets, SteinerGraph, _front_end, _relay_only, surface_inputs
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


# --- The folding graph one surface and one element at a time ---------------
#
# ``slt.pipeline.build_gadget`` and ``_realize`` build every gadget of a
# build at once, as arrays; the code below builds them one surface at a
# time, as the package did before, and the tests hold the two to the same
# floats, vertices and edges.


class PlanarGraph(SteinerGraph):
    """The folding graph with its edges added one at a time.

    ``planar`` maps the key (lo, hi) of a gadget edge to its surface and
    the planar points of lo and hi; ``core_paths`` maps the root's edge
    (root, v) to its core paths (w, (surface, CoreChain, grid vertex,
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


def gadget_row(gad: Gadgets, g: int) -> SurfaceGadget:
    """Row g of a batch of gadgets as one ``SurfaceGadget``."""
    n, steiner = int(gad.n_verts[g]), gad.ell_steiner[g, :1 if gad.flat[g] else None]
    secondary = [SecondaryBp(*row) for row in zip(
        gad.arc[g].tolist(), gad.edge[g].tolist(), map(tuple, gad.point[g].tolist()),
        map(tuple, gad.plane[g].tolist()), gad.at_vertex[g].tolist(), gad.steiner[g].tolist())]
    return SurfaceGadget(gad.surfaces[g], list(map(tuple, gad.vertex_images[g, :n].tolist())), secondary,
                         tuple(gad.ell_a[g].tolist()), tuple(gad.ell_b[g].tolist()),
                         list(map(tuple, steiner.tolist())), int(gad.r_local[g]),
                         gad.eps_int, gad.lam)


def realize(G: PlanarGraph, gadget: SurfaceGadget, vids: list[int], root_id: int) -> CoreChain | None:
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
        core = CoreChain.of(tri)
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


def loop_folding_graph(pts: PointCloud, eps: float, gamma: float = 8.0, lam: float = 1.25):
    """``assemble_slt``'s graph, a gadget at a time: (graph, surfaces, gadgets)."""
    eps_int, _, _, sub, surfaces = _front_end(pts, eps, gamma, lam)
    s, root_id = pts.points[pts.root], pts.root
    G = PlanarGraph()
    G.coords.extend(pts.points)
    G.kinds.extend(["input"] * pts.n)
    vertex_of = list(sub.input_index)
    hverts = sub.hstar.vertices
    inputs_of = surface_inputs(surfaces, sub, root_id)
    gadgets = []
    for i, surf in enumerate(surfaces):
        inputs = inputs_of[i]
        if not inputs and _relay_only(s, surfaces, inputs_of, i):
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
    vertex_gadget = np.full(G.n, -1)
    for v, f in G.surface.items():
        vertex_gadget[v] = gadget[f.index]
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
    return FoldingGraph(list(G.coords), list(G.kinds), ends, np.array([w for *_, w in G.edges]),
                        [surfaces[i] for i in order], lambda g: chains[order[g]], vertex_gadget,
                        edge_gadget, edge_plane, edge_grid, edge_on)


def scalar_chain(inst: CoreInstance) -> CoreChain:
    """``CoreChain.of`` one float at a time: the frame, the levels and the legs."""
    o = (0.5 * (inst.base_a[0] + inst.base_b[0]), 0.5 * (inst.base_a[1] + inst.base_b[1]))
    abx, aby = inst.base_b[0] - inst.base_a[0], inst.base_b[1] - inst.base_a[1]
    w = math.hypot(abx, aby)
    ex = (abx / w, aby / w)
    sy = (inst.apex[0] - o[0], inst.apex[1] - o[1])
    proj = sy[0] * ex[0] + sy[1] * ex[1]
    wy = (sy[0] - proj * ex[0], sy[1] - proj * ex[1])
    ny = math.hypot(*wy)
    frame = Frame(o, ex, (wy[0] / ny, wy[1] / ny), 1.0 / dist(inst.apex, inst.base_a))
    alpha, lam, k = inst.apex_angle, inst.lam, inst.k
    if alpha * lam**k >= math.pi / 2.0:
        raise AngleOverflow(f"final apex angle {alpha * lam**k:.4f} reaches pi/2 at level {k}")
    xa, xb = frame.to_canonical(inst.base_a)[0], frame.to_canonical(inst.base_b)[0]
    heights = [frame.to_canonical(inst.apex)[1]] + [
        (xb - xa) / (1 << (i + 1)) / math.tan(alpha * lam**i / 2.0) for i in range(1, k + 1)]
    dx = [(xb - xa) / (1 << (i + 2)) for i in range(k)] + [(xb - xa) / (1 << (k + 1))]
    legs = map(math.hypot, dx, [hi - lo for hi, lo in zip(heights, heights[1:] + [0.0])])
    dists = [0.0] + [d / frame.scale for d in accumulate(legs)]
    return CoreChain(frame, xa, xb, k, tuple(dists), tuple(heights))


def chain_bits(chain: CoreChain) -> list:
    """Every number of a ``CoreChain``, floats as hex, to compare chains bit for bit."""
    f = chain.frame
    return [chain.k] + [float(x).hex() for x in (*f.origin, *f.ex, *f.ey, f.scale, chain.xa, chain.xb,
                                                 *chain.dists, *chain.heights)]

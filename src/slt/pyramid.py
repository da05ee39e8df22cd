"""Right-pyramid construction over hypercube bases in d dimensions.

The base cube sits in the hyperplane orthogonal to axis 0, scaled so the
apex is at unit distance from all base corners.  Each level subdivides
every base cube into 2^(d-1) congruent cubes and erects child pyramids
whose apex angles (measured over a base body diagonal) grow by a factor
lambda.  A 5/4-spanner over the input grid and the finest corner lattice
connects everything along the base.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

from .core2d import levels_for_eps
from .errors import AngleOverflow, DimensionTooSmall, EpsOutOfRange, SltError
from .geometry import Point, dist
from .metrics import SltReport
from .mst_path import PointCloud, Tree, euclidean_mst
from .pipeline import SteinerGraph

SPANNER_T = 1.25
_GREEDY_LIMIT = 150


@dataclass(frozen=True)
class GridSpec:
    """Point budget for the base grid: n points, per_axis^(d-1) cells."""

    n: int
    per_axis: int

    @classmethod
    def for_points(cls, n: int, d: int) -> "GridSpec":
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        m = math.ceil(n ** (1.0 / (d - 1)) - 1e-9)
        return cls(n, m)

    @staticmethod
    def regime_min(d: int, eps: float) -> float:
        """Smallest n for which the constant-lightness claim is asserted."""
        return (2.0 * math.sqrt(d) * eps ** (0.66 - d / 2.0)) ** ((d - 1.0) / (d - 2.0))

    def satisfies_regime(self, d: int, eps: float) -> bool:
        return self.n >= self.regime_min(d, eps)


def grid_points(d: int, eps: float, grid: GridSpec) -> tuple[Point, ...]:
    """Cell-center grid inside the base cube, lexicographic order."""
    alpha = math.sqrt(eps)
    side = 2.0 * math.sin(alpha / 2.0) / math.sqrt(d - 1)
    m = grid.per_axis
    pts = []
    for idx in itertools.product(range(m), repeat=d - 1):
        if len(pts) == grid.n:
            break
        coords = (0.0,) + tuple(-side / 2.0 + (i + 0.5) * side / m for i in idx)
        pts.append(coords)
    return tuple(pts)


def pyramid_points(d: int, n: int, eps: float) -> tuple[Point, ...]:
    """Input of the pyramid build: the apex, then the n base grid points.

    The apex sits at unit distance from the base corners, above the base
    centre; ``slt gen grid`` writes this layout and ``assemble_pyramid``
    accepts only it.
    """
    apex = (math.cos(math.sqrt(eps) / 2.0),) + (0.0,) * (d - 1)
    return (apex,) + grid_points(d, eps, GridSpec.for_points(n, d))


def assemble_pyramid(pts: PointCloud, eps: float, lam: float = 1.25):
    """Pyramid build over a point set: returns (graph, tree, report).

    The points must be ``pyramid_points(d, n - 1, eps)`` with the apex as
    root, each within 1e-9 (relative) of its place; the build itself
    regenerates the grid.
    """
    d, n = pts.dim, pts.n - 1
    expected = pyramid_points(d, n, eps)
    if pts.root != 0 or len(expected) != pts.n:
        raise SltError("input is not a pyramid grid instance")
    scale = max(dist(expected[0], expected[1]), 1.0)
    if any(dist(p, q) > 1e-9 * scale for p, q in zip(expected, pts.points)):
        raise SltError("input does not match the pyramid grid layout for this eps")
    return build_pyramid_core(d, eps, GridSpec.for_points(n, d), lam)


def pyramid_mst_lower_bound(grid: GridSpec, d: int, eps: float) -> float:
    """Lower bound on the MST weight of the grid instance."""
    if grid.n < 2:
        raise ValueError("bound needs at least 2 grid points")
    return grid.n * math.sqrt(eps / d) / (2.0 * grid.n ** (1.0 / (d - 1)))


def greedy_spanner(pts: list[Point], t: float) -> list[tuple[int, int, float]]:
    """Classic greedy t-spanner: keep a pair iff the graph cannot match it.

    Quadratic pair enumeration with a bounded Dijkstra per pair; meant for
    desk-scale point counts.
    """
    if t <= 1.0:
        raise ValueError("t must exceed 1")
    n = len(pts)
    pairs = sorted(
        (dist(pts[i], pts[j]), i, j) for i in range(n) for j in range(i + 1, n)
    )
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    edges: list[tuple[int, int, float]] = []
    for w, i, j in pairs:
        if _bounded_dist(adj, i, j, t * w) <= t * w:
            continue
        adj[i].append((j, w))
        adj[j].append((i, w))
        edges.append((i, j, w))
    return edges


def _bounded_dist(adj, src, dst, cap):
    best = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d0, v = heappop(heap)
        if v == dst:
            return d0
        if d0 > best.get(v, math.inf) or d0 > cap:
            continue
        for u, w in adj[v]:
            nd = d0 + w
            if nd <= cap and nd < best.get(u, math.inf):
                best[u] = nd
                heappush(heap, (nd, u))
    return math.inf


# --- Yao-style cone spanner -------------------------------------------------
#
# Correctness rests on the standard argument: if every point assigns each
# other point to a cone axis within theta_c of the connecting direction and
# keeps an edge to the nearest point per cone, the graph is a t-spanner for
# t = 1/(1 - 2 sin(theta_c)).  theta_c <= asin((1 - 1/t)/2) gives t <= 5/4.


def _cone_axes(dim: int) -> tuple[np.ndarray, float]:
    """Unit axes covering the direction sphere, with their covering radius."""
    if dim == 2:
        count = 64
        ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        axes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        radius = math.pi / count  # exact for evenly spaced directions
    elif dim == 3:
        axes = _fibonacci_sphere(768)
        radius = _covering_radius(axes)
    else:
        raise DimensionTooSmall(
            f"cone spanner supports base dimensions 2 and 3, got {dim}"
        )
    limit = math.asin((1.0 - 1.0 / SPANNER_T) / 2.0)
    if radius >= limit:
        raise AngleOverflow(
            f"cone covering radius {radius:.4f} exceeds the {limit:.4f} limit"
        )
    return axes, radius


def _fibonacci_sphere(count: int) -> np.ndarray:
    idx = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * idx / count)
    lam = math.pi * (1.0 + math.sqrt(5.0)) * idx
    return np.stack(
        [np.sin(phi) * np.cos(lam), np.sin(phi) * np.sin(lam), np.cos(phi)], axis=1
    )


def _covering_radius(axes: np.ndarray) -> float:
    """Largest angle from any direction to its nearest axis, exactly.

    The facets of the axes' convex hull are their spherical Delaunay
    triangles, so the farthest directions are the facets' outward unit
    normals (the triangles' circumcentres), at the angle between normal
    and facet vertex.
    """
    # Imported here: it takes 0.1 s, and only 3-d bases (d = 4) need it.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(axes)
    normals = hull.equations[:, :3]
    corner = axes[hull.simplices[:, 0]]
    sin = np.linalg.norm(np.cross(normals, corner), axis=1)
    return float(np.arctan2(sin, np.einsum("ij,ij->i", normals, corner)).max())


def yao_spanner(points: np.ndarray) -> list[tuple[int, int, float]]:
    """Nearest-in-cone 5/4-spanner over points in a hyperplane slice.

    ``points`` must already be reduced to their base-hyperplane coordinates
    (shape (n, 2) or (n, 3)).  Each point scans the others in increasing
    distance and keeps the first hit per cone; the scan stops once every
    cone is filled.
    """
    n, dim = points.shape
    axes, _ = _cone_axes(dim)
    axes32 = np.ascontiguousarray(axes.T, dtype=np.float32)
    ncones = len(axes)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    src_chunks: list[np.ndarray] = []
    dst_chunks: list[np.ndarray] = []
    chunk = 4096
    for u in range(n):
        diff = pts - pts[u]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(d2, kind="stable")[1:]  # drop u itself
        filled = np.zeros(ncones, dtype=bool)
        remaining = ncones
        picks = []
        for lo in range(0, n - 1, chunk):
            cand = order[lo : lo + chunk]
            # Cone assignment only needs the axis within the covering
            # radius, so single precision is more than enough here.
            cells = np.argmax(diff[cand].astype(np.float32) @ axes32, axis=1)
            fresh = ~filled[cells]
            if fresh.any():
                sub_cells = cells[fresh]
                sub_cand = cand[fresh]
                firsts = np.unique(sub_cells, return_index=True)[1]
                picks.append(sub_cand[firsts])
                filled[sub_cells[firsts]] = True
                remaining -= len(firsts)
            if remaining == 0:
                break
        if picks:
            vs = np.concatenate(picks)
            src_chunks.append(np.full(len(vs), u, dtype=np.int64))
            dst_chunks.append(vs.astype(np.int64))
    us = np.concatenate(src_chunks)
    vs = np.concatenate(dst_chunks)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    a, b = np.divmod(np.unique(lo * n + hi), n)
    ws = np.linalg.norm(pts[a] - pts[b], axis=1)
    return list(zip(a.tolist(), b.tolist(), ws.tolist()))


def base_spanner(points: list[Point]) -> tuple[list[tuple[int, int, float]], str]:
    """5/4-spanner over base points; greedy when small, cones at scale.

    The points lie in the base hyperplane x_0 = 0; the cone spanner works
    on their remaining coordinates.  Returns the edges and the method name.
    """
    if len(points) <= _GREEDY_LIMIT:
        return greedy_spanner(points, SPANNER_T), "greedy"
    return yao_spanner(np.delete(np.asarray(points, dtype=float), 0, axis=1)), "yao"


def build_pyramid_core(d: int, eps: float, grid: GridSpec, lam: float = 1.25):
    """Assemble the pyramid graph and its shortest-path tree.

    Returns (graph, tree, report).  The tree is the full SPT from the apex
    over the search graph (apex tree, apex-corner edges and base spanner),
    and the graph holds its vertices and edges; stretch is measured over
    the grid points.
    """
    if d < 3:
        raise DimensionTooSmall("pyramid construction needs d >= 3")
    if not 0.0 < eps < math.pi**2:
        raise EpsOutOfRange(f"eps={eps} outside (0, pi^2)")
    alpha = math.sqrt(eps)
    k = levels_for_eps(eps)
    if alpha * lam**k >= math.pi / 2.0:
        raise AngleOverflow("final apex angle reaches pi/2")

    side = 2.0 * math.sin(alpha / 2.0) / math.sqrt(d - 1)
    dim = d - 1
    heights = [
        (math.sin(alpha / 2.0) / (1 << i)) / math.tan(alpha * lam**i / 2.0)
        for i in range(k + 1)
    ]

    inputs = grid_points(d, eps, grid)
    apex = (heights[0],) + (0.0,) * dim

    G = SteinerGraph()
    apex_id = G.add_vertex(apex, "input")
    input_ids = [G.add_vertex(p, "input") for p in inputs]

    # Corner lattice of the level-k subdivision (the base Steiner grid), as
    # vertex ids by corner index; integer congruences decide coincidences
    # with grid cell centers.
    m = grid.per_axis
    two_k = 1 << k
    corner_coord = [-side / 2.0 + c * side / two_k for c in range(two_k + 1)]
    # grid_points makes the cell centres in this order, the first grid.n of them.
    center_of = dict(zip(itertools.product(range(m), repeat=dim), input_ids))
    corner = np.empty((two_k + 1,) * dim, dtype=int)
    for cvec in itertools.product(range(two_k + 1), repeat=dim):
        # Coincidence with a cell center: c/2^k == (i+0.5)/m for all axes.
        nums = [2 * c * m - two_k for c in cvec]
        cell = tuple(x // (2 * two_k) if x >= 0 and x % (2 * two_k) == 0 else -1 for x in nums)
        if cell in center_of:
            corner[cvec] = center_of[cell]
        else:
            corner[cvec] = G.add_vertex((0.0,) + tuple(corner_coord[c] for c in cvec), "grid")

    # Apices per level, as vertex ids by cell index: cell j's parent is cell
    # j // 2, and each level-k apex joins the corners of its cell.  Each
    # entry of ``joins`` pairs the upper with the lower ends of one level.
    level = np.full((1,) * dim, apex_id)
    joins = []
    for i in range(1, k + 1):
        cells = 1 << i
        csize = side / cells
        first = G.n
        for jvec in itertools.product(range(cells), repeat=dim):
            center = tuple(-side / 2.0 + (j + 0.5) * csize for j in jvec)
            G.add_vertex((heights[i],) + center, "core_apex")
        children = np.arange(first, G.n).reshape((cells,) * dim)
        joins.append((level[np.ix_(*[np.arange(cells) // 2] * dim)], children))
        level = children
    offsets = itertools.product((0, 1), repeat=dim)
    shifted = [corner[tuple(slice(o, o + two_k) for o in off)] for off in offsets]
    cell_corners = np.stack(shifted, axis=-1)
    joins.append((np.broadcast_to(level[..., None], cell_corners.shape), cell_corners))

    # The search graph's edges, as the columns of one sparse matrix.
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    chain: list[float] = []
    level_edge_totals: list[float] = []
    for upper, lower in joins:
        level_us, level_vs = upper.ravel().tolist(), lower.ravel().tolist()
        level_ws = [dist(G.coords[u], G.coords[v]) for u, v in zip(level_us, level_vs)]
        total = 0.0
        for w in level_ws:  # in edge order; sum() may round differently
            total += w
        us += level_us
        vs += level_vs
        ws += level_ws
        chain.append(max(level_ws))
        level_edge_totals.append(total)

    base_ids = np.array(input_ids + [i for i in corner.ravel().tolist() if i > len(inputs)])
    base_points = [G.coords[i] for i in base_ids.tolist()]
    span_edges, span_method = base_spanner(base_points)
    count = len(span_edges)
    src = np.concatenate([us, base_ids[np.fromiter((e[0] for e in span_edges), int, count)]])
    dst = np.concatenate([vs, base_ids[np.fromiter((e[1] for e in span_edges), int, count)]])
    span_w = (math.dist(base_points[u], base_points[v]) for u, v, _ in span_edges)
    weight = np.concatenate([ws, np.fromiter(span_w, float, count)])
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    search = csr_matrix((np.concatenate([weight, weight]), (rows, cols)), shape=(G.n, G.n))
    dists, parents = sparse_dijkstra(
        search, directed=False, indices=apex_id, return_predecessors=True
    )
    for v, p in enumerate(parents.tolist()):
        if v != apex_id:
            G.add_edge(p, v)
    tree = Tree(G.n, tuple(G.edges), apex_id)

    per_point = [dists[i] / dist(apex, p) for i, p in zip(input_ids, inputs)]
    mst = euclidean_mst(PointCloud((apex,) + inputs, 0))
    report = SltReport(
        n=grid.n + 1,
        d=d,
        eps=eps,
        mst_weight=mst.weight,
        tree_weight=tree.weight,
        lightness=tree.weight / mst.weight,
        per_point_stretch=per_point,
        max_stretch=max(per_point),
        flags={
            "levels": k,
            "level_angles": [alpha * lam**i for i in range(k + 1)],
            "spanner": span_method,
            "spanner_edges": len(span_edges),
            "level_edge_totals": level_edge_totals,
            "chain": chain,
            "regime": grid.satisfies_regime(d, eps),
            "corner_count": corner.size,
        },
    )
    return G, tree, report

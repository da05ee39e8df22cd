"""Right-pyramid construction over hypercube bases in d dimensions.

The base cube sits in the hyperplane orthogonal to axis 0, scaled so the
apex is at unit distance from all base corners.  Each level subdivides
every base cube into 2^(d-1) congruent cubes and erects child pyramids
whose apex angles (measured over a base body diagonal) grow by a factor
lambda.  A 5/4-spanner over the input grid and the finest corner lattice
connects everything along the base.
"""
from __future__ import annotations

import functools
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
from .metrics import collector_paused, measure, root_paths
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


def _apex_height(alpha: float, lam: float, i: int) -> float:
    """Height above the base of a level-i apex, for top apex angle alpha.

    Half a level-i cell's body diagonal over the tangent of half its apex
    angle alpha * lam^i; the top apex (i = 0) is at unit distance from the
    base corners.
    """
    return (math.sin(alpha / 2.0) / (1 << i)) / math.tan(alpha * lam**i / 2.0)


def pyramid_points(d: int, n: int, eps: float) -> tuple[Point, ...]:
    """Input of the pyramid build: the apex, then the n base grid points.

    The apex sits at unit distance from the base corners, above the base
    centre, where ``build_pyramid_core`` puts it; ``slt gen grid`` writes
    this layout and ``assemble_pyramid`` accepts only it.
    """
    apex = (_apex_height(math.sqrt(eps), 1.0, 0),) + (0.0,) * (d - 1)
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


@functools.cache
def _cone_axes(dim: int) -> tuple[np.ndarray, float]:
    """Unit axes covering the direction sphere, with their covering radius.

    Cached per dimension, read-only: the 3-d radius takes a convex hull.
    """
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
    axes.setflags(write=False)
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


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis, accurate near zero."""
    return 2.0 * np.arcsin(np.minimum(np.linalg.norm(a - b, axis=-1) / 2.0, 1.0))


def _cube_cells(dim: int, res: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cube-map cells in lookup order: centre directions, angular radii, indices.

    A direction x lies on face 2f + (x_f < 0), f an axis of largest |x_f|;
    its other coordinates, in axis order, divided by |x_f| fall in
    [-1, 1], and cell i_j of that face axis holds [-1 + 2 i_j / res,
    -1 + 2 (i_j + 1) / res].  The radius is the largest angle from the
    centre direction to a corner direction, which bounds the angle to any
    direction in the cell (a cone's section by the face plane is convex),
    and is the same on every face.  The indices are the rows
    (face, i_1, ..., i_{dim-1}).
    """
    idx = np.indices((res,) * (dim - 1)).reshape(dim - 1, -1).T
    step = 2.0 / res
    low = idx * step - 1.0

    def unit(u, axis=0, value=1.0):
        p = np.insert(u, axis, value, axis=1)
        return p / np.linalg.norm(p, axis=1, keepdims=True)

    mid = low + step / 2.0
    corners = itertools.product((0.0, step), repeat=dim - 1)
    radius = np.max([_angle(unit(mid), unit(low + np.array(c))) for c in corners], axis=0)
    faces = range(2 * dim)
    centres = np.concatenate([unit(mid, f // 2, -1.0 if f % 2 else 1.0) for f in faces])
    index = np.column_stack([np.repeat(faces, len(idx)), np.tile(idx, (2 * dim, 1))])
    return centres, np.tile(radius, 2 * dim), index


def _possible_axes(centres, radii, units, pool, slack) -> np.ndarray:
    """Per cell, the axes of ``pool`` that may be picked somewhere in it.

    ``pool`` lists axis indices per cell, ascending, then -1 pads, and so
    does the result.  An axis may be picked in the cell only if, at the
    centre, it lies within 2 * radius + slack of the nearest axis of the
    pool; a cell with one axis in its pool keeps it.  Angles come from
    arccos of float64 dot products, within 2e-8 rad.
    """
    several = np.flatnonzero(pool[:, 1] >= 0) if pool.shape[1] > 1 else np.empty(0, int)
    sub = pool[several]
    # Dot products by coordinate, the -1 pads reading an appended zero.
    cos = sum(np.append(u, 0.0)[sub] * c[several, None] for u, c in zip(units.T, centres.T))
    theta = np.arccos(np.minimum(cos, 1.0))
    theta[sub < 0] = np.inf
    reach = functools.reduce(np.minimum, theta.T) + 2.0 * radii[several] + slack
    keep = theta <= reach[:, None]
    count = keep.sum(axis=1)
    out = np.full((len(pool), int(count.max(initial=1))), -1)
    out[:, 0] = pool[:, 0]
    out[np.repeat(several, count), (np.cumsum(keep, axis=1) - 1)[keep]] = sub[keep]
    return out


@dataclass(frozen=True)
class _ConeLookup:
    """Direction table of a base dimension: which cone axes a direction may get.

    ``yao_spanner`` assigns the direction x (a float32 row) to the axis
    ``np.argmax(x @ axes32, axis=1)`` picks.  Each cube-map cell (see
    ``_cube_cells``) lists every axis that product may pick for a direction
    in the cell: in ``axis`` when it is the only one, else in its row
    ``row`` of ``cands``.

    Slack.  The float32 product rounds x.a, for a float32 row x and a
    float32 axis a of length within 1 +- nu, by at most gamma |x| (1 + nu),
    gamma = dim u / (1 - dim u), u = 2^-24.  So two products keep the
    order of their exact values once these differ by more than
    2 gamma (1 + nu) |x|; table and certificate ask for four times that,
    gap = 8 gamma (1 + nu).  If the angle from x to an axis b exceeds the
    angle to its nearest axis a by s, then
    x.a - x.b >= |x| (2 sin((theta_a + theta_b)/2) sin(s/2) - 2 nu), and
    theta_a + theta_b is at least the least angle delta between two axes;
    so b cannot win once s > slack = (gap + 2 nu) / sin(delta / 2).  That
    is 2.7e-5 rad for the 768 axes of a 3-d base (delta = 0.112: near a
    Voronoi boundary, both axes lie about 0.056 rad away) and 2.0e-5 rad
    for the 64 axes of a 2-d base.  In a cell of radius rho around the
    centre c, the nearest axis lies within theta_min(c) + rho of any of its
    directions, so only an axis b with theta_b(c) <= theta_min(c) + 2 rho
    + slack can win there: those are the listed axes.  rho grows by 1e-6
    rad, more than the float32 rounding of the face coordinates that pick
    the cell, and the table's angles are good to 2e-8 rad.

    A pair in a cell with one axis gets it.  In any other cell the pair
    takes the float64 products of its float32 row with the listed axes,
    exact to 1e-15 |x|: when the best beats the second by more than
    gap |x|, it beats every listed axis, and so every unlisted one, in the
    float32 product too.  The pairs left, near-ties, go through the float32
    product itself.
    """

    axes32: np.ndarray  # (dim, cones): the product's right operand
    axes64: np.ndarray  # (cones + 1, dim): its columns in float64, then a zero row for the -1 pad
    res: int  # cells per face axis
    axis: np.ndarray  # per cell: its only possible axis, or -1
    row: np.ndarray  # per cell: its row in ``cands``, or -1
    cands: np.ndarray  # possible axes of the cells with several, -1 padded
    gap: float  # the certified lead of the best listed axis, per unit |x|


#: Cells per face axis of the direction table (the last), and of the
#: coarser tables that narrow down its candidates.  At d = 4 (768 axes)
#: 86% of the pairs land in a cell with a single axis.
_LOOKUP_RES = (4, 16, 64, 256)
#: Pairs handled at once by ``yao_spanner``, which bounds its working memory.
_BLOCK_PAIRS = 1 << 16


@functools.cache
def _cone_lookup(dim: int) -> _ConeLookup:
    """The direction table of a base dimension, built on first use."""
    axes, _ = _cone_axes(dim)
    axes32 = np.ascontiguousarray(axes.T, dtype=np.float32)
    exact = axes32.T.astype(np.float64)
    length = np.linalg.norm(exact, axis=1)
    units = exact / length[:, None]
    u = 2.0**-24
    nu = float(np.abs(length - 1.0).max())
    gap = 8.0 * dim * u / (1.0 - dim * u) * (1.0 + nu)
    gram = units @ units.T
    np.fill_diagonal(gram, -1.0)
    delta = _angle(units, units[gram.argmax(axis=1)]).min()
    slack = (gap + 2.0 * nu) / math.sin(delta / 2.0)

    pool = np.broadcast_to(np.arange(len(units)), (2 * dim, len(units)))
    res = 1  # one cell per face
    for fine in _LOOKUP_RES:
        centres, radii, index = _cube_cells(dim, fine)
        parent = index[:, 0]
        for j in range(1, dim):
            parent = parent * res + index[:, j] // (fine // res)
        pool = _possible_axes(centres, radii + 1e-6, units, pool[parent], slack)
        res = fine
    several = (pool >= 0).sum(axis=1) > 1
    axis = np.where(several, -1, pool[:, 0])
    row = np.full(len(pool), -1)
    row[several] = np.arange(several.sum())
    lookup = _ConeLookup(
        axes32, np.vstack([exact, np.zeros((1, dim))]), res, axis, row, pool[several], gap
    )
    for table in (lookup.axes32, lookup.axes64, lookup.axis, lookup.row, lookup.cands):
        table.setflags(write=False)
    return lookup


def _cone_of(x32: np.ndarray, d2: np.ndarray, lookup: _ConeLookup) -> np.ndarray:
    """Per row of ``x32``, the axis ``np.argmax(x32 @ lookup.axes32, axis=1)`` picks.

    ``d2`` holds the squared lengths of the rows, in float64.
    """
    cols = list(x32.T)
    face = np.zeros(len(x32), dtype=np.int64)
    top, on_face = np.abs(cols[0]), cols[0]
    for j, col in enumerate(cols[1:], 1):
        mag = np.abs(col)
        up = mag > top
        face[up] = j
        top = np.where(up, mag, top)
        on_face = np.where(up, col, on_face)
    cell = 2 * face + (on_face < 0)
    for j in range(len(cols) - 1):
        coord = np.where(face <= j, cols[j + 1], cols[j]) / top
        cell = cell * lookup.res + np.minimum(
            ((coord + 1.0) * (lookup.res / 2)).astype(np.int64), lookup.res - 1
        )
    axis = lookup.axis[cell]
    several = np.flatnonzero(axis < 0)
    cand = lookup.cands[lookup.row[cell[several]]]
    rows = x32[several].T.astype(np.float64)
    dots = sum(a[cand] * x[:, None] for a, x in zip(lookup.axes64.T, rows))
    dots[cand < 0] = -np.inf
    at = np.arange(len(several))
    best = dots.argmax(axis=1)
    top_dot = dots[at, best]
    dots[at, best] = -np.inf
    sure = top_dot - functools.reduce(np.maximum, dots.T) > lookup.gap * np.sqrt(d2[several])
    axis[several[sure]] = cand[at[sure], best[sure]]
    near = several[~sure]
    axis[near] = np.argmax(x32[near] @ lookup.axes32, axis=1)
    return axis


def yao_spanner(points: np.ndarray) -> np.ndarray:
    """Nearest-in-cone 5/4-spanner over distinct points in a hyperplane slice.

    ``points`` must already be reduced to their base-hyperplane coordinates
    (shape (n, 2) or (n, 3)).  Every point keeps an edge to the nearest
    other point in each cone, the lower index among equally near ones; a
    direction x belongs to the cone whose axis the float32 product
    ``np.argmax(x @ axes32)`` picks, which the direction table of
    ``_ConeLookup`` gives without that product for all but near-ties.
    Returns the edges as an (m, 2) index array, each row (lo, hi), sorted.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, dim = pts.shape
    lookup = _cone_lookup(dim)
    cones = lookup.axes32.shape[1]
    block = max(1, _BLOCK_PAIRS // max(n, 1))
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, n, block):
        src = np.arange(lo, min(lo + block, n))
        diff = (pts[None, :, :] - pts[src, None, :]).reshape(-1, dim)
        d2 = np.einsum("ij,ij->i", diff, diff)
        own = np.arange(len(src)) * (n + 1) + lo  # the rows (u, u)
        if np.count_nonzero(d2 == 0.0) > len(src):
            raise ValueError("yao_spanner needs distinct points")
        x32 = diff.astype(np.float32)
        x32[own] = 1.0  # any direction: these rows go to the spare slot below
        slot = np.repeat(np.arange(len(src)) * cones, n) + _cone_of(x32, d2, lookup)
        slot[own] = len(src) * cones
        nearest = np.full(len(src) * cones + 1, np.inf)
        np.minimum.at(nearest, slot, d2)
        hit = np.flatnonzero(d2 == nearest[slot])
        pick = np.full(len(src) * cones + 1, n)
        np.minimum.at(pick, slot[hit], hit % n)
        kept = np.flatnonzero(pick[:-1] < n)
        us.append(src[kept // cones])
        vs.append(pick[kept])
    us, vs = np.concatenate(us), np.concatenate(vs)
    # Sorted, then deduplicated: np.unique hashes first, 20x slower here.
    key = np.sort(np.minimum(us, vs) * n + np.maximum(us, vs))
    key = key[np.flatnonzero(np.diff(key, prepend=-1))]
    return np.column_stack(np.divmod(key, n))


def base_spanner(points: list[Point]) -> tuple[np.ndarray, str]:
    """5/4-spanner over base points; greedy when small, cones at scale.

    The points lie in the base hyperplane x_0 = 0; the cone spanner works
    on their remaining coordinates.  Returns the edges as an (m, 2) index
    array and the method name.
    """
    if len(points) <= _GREEDY_LIMIT:
        edges = greedy_spanner(points, SPANNER_T)
        return np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2), "greedy"
    return yao_spanner(np.delete(np.asarray(points, dtype=float), 0, axis=1)), "yao"


@collector_paused
def build_pyramid_core(d: int, eps: float, grid: GridSpec, lam: float = 1.25):
    """Assemble the pyramid graph and its shortest-path tree.

    Returns (graph, tree, report).  The tree is the SPT from the apex over
    the search graph (apex tree, apex-corner edges and base spanner), cut
    down to the apex's paths to the grid points, and the graph holds its
    vertices and edges.  The report measures the tree over the apex, then
    the grid points (see ``measure``).
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
    heights = [_apex_height(alpha, lam, i) for i in range(k + 1)]

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
    ends = base_ids[span_edges]
    src = np.concatenate([us, ends[:, 0]])
    dst = np.concatenate([vs, ends[:, 1]])
    at = base_points.__getitem__
    span_w = map(math.dist, map(at, span_edges[:, 0].tolist()), map(at, span_edges[:, 1].tolist()))
    weight = np.concatenate([ws, np.fromiter(span_w, float, len(span_edges))])
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    search = csr_matrix((np.concatenate([weight, weight]), (rows, cols)), shape=(G.n, G.n))
    _, parents = sparse_dijkstra(
        search, directed=False, indices=apex_id, return_predecessors=True
    )
    # The tree keeps the vertices on the apex's paths to the grid points,
    # in their order: the apex and the grid points keep their ids.
    parent = parents.tolist()
    kept = root_paths(parent, apex_id, input_ids)
    graph = SteinerGraph()
    new_id = {v: graph.add_vertex(G.coords[v], G.kinds[v]) for v in kept}
    for v in kept:
        if v != apex_id:
            graph.add_edge(new_id[parent[v]], new_id[v])
    tree = Tree(graph.n, tuple(graph.edges), apex_id)

    mst = euclidean_mst(PointCloud((apex,) + inputs, 0))
    report = measure(
        tree, graph.coords, [apex_id] + input_ids, eps, mst.weight,
        {
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
    return graph, tree, report

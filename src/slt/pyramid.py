"""Right-pyramid construction over hypercube bases in d dimensions.

The base cube sits in the hyperplane orthogonal to axis 0, scaled so the
apex is at unit distance from all base corners.  Each level subdivides
every base cube into 2^(d-1) congruent cubes and erects child pyramids
whose apex angles (measured over a base body diagonal) grow by a factor
lambda.  Along the base, a cone spanner over the input grid and the
finest corner lattice gives a 5/4-path for every pair within R, 5/4 of
half a finest cell's body diagonal: a local spanner, as no shortest path
from the apex uses a longer base edge (see ``build_pyramid_core``).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core2d import levels_for_eps
from .errors import AngleOverflow, DimensionTooSmall, EpsOutOfRange, SltError
from .geometry import Point, dist
from .metrics import collector_paused, dijkstra, measure, root_paths
from .mst_path import PointCloud, Tree, _pairs_within, euclidean_mst
from .pipeline import SteinerGraph

SPANNER_T = 1.25


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


def _check_dimension(d: int) -> None:
    """Reject a d the pyramid does not build: its base spanner has cone
    axes for 2-d and 3-d bases, so d is 3 or 4."""
    if d not in (3, 4):
        error = DimensionTooSmall if d < 3 else SltError
        raise error(f"pyramid construction supports d = 3 and 4, got d = {d}")


def pyramid_points(d: int, n: int, eps: float) -> tuple[Point, ...]:
    """Input of the pyramid build: the apex, then the n base grid points.

    The apex sits at unit distance from the base corners, above the base
    centre, where ``build_pyramid_core`` puts it; ``slt gen grid`` writes
    this layout and ``assemble_pyramid`` accepts only it.
    """
    _check_dimension(d)
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


# --- Yao-style cone spanner -------------------------------------------------
#
# Correctness rests on the standard argument: if every point assigns each
# other point to a cone axis within theta_c of the connecting direction and
# keeps an edge to the nearest point per cone, the graph is a t-spanner for
# t = 1/(1 - 2 sin(theta_c)).  theta_c <= asin((1 - 1/t)/2) gives t <= 5/4.


@functools.cache
def _cone_axes(dim: int) -> tuple[np.ndarray, float]:
    """Unit axes covering the direction sphere, with their covering radius.

    Cached per dimension, read-only.
    """
    if dim == 2:
        count = 64
        ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        axes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        radius = math.pi / count  # exact for evenly spaced directions
    elif dim == 3:
        axes = _fibonacci_sphere(768)
        # _covering_radius(axes) of tests/oracles.py, stored so that no
        # build takes a convex hull; the tests certify it.
        radius = 0.09845185752037204
    else:
        error = DimensionTooSmall if dim < 2 else SltError
        raise error(f"cone spanner supports base dimensions 2 and 3, got {dim}")
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


#: Distinct direction rows per block of the cone product: 1,024 x 768 float32 is 3 MB.
_CONE_BLOCK = 1024


def _cones(rows: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """The cone of each float32 direction row: ``argmax(row @ axes32)``.

    The rows meet the axes ``_CONE_BLOCK`` at a time.  A row's product
    depends on that row alone, so its cone does not depend on the block
    size or on which rows share its block.
    """
    axes32 = np.ascontiguousarray(axes.T, dtype=np.float32)
    cone = np.empty(len(rows), dtype=np.intp)
    for lo in range(0, len(rows), _CONE_BLOCK):
        hi = lo + _CONE_BLOCK
        np.argmax(rows[lo:hi] @ axes32, axis=1, out=cone[lo:hi])
    return cone


def yao_spanner(points: np.ndarray, reach: float) -> np.ndarray:
    """Nearest-in-cone spanner over the pairs of distinct points within ``reach``.

    ``points`` must already be reduced to their base-hyperplane coordinates
    (shape (n, 2) or (n, 3)).  Every point keeps an edge to the nearest
    other point within ``reach`` in each cone, the lower index among
    equally near ones; a direction x belongs to the cone whose axis the
    float32 product ``np.argmax(x @ axes32)`` picks.  These are the edges
    of the full Yao graph no longer than ``reach`` (a nearer point in the
    same cone is within reach too), and they hold a t-path, t =
    ``SPANNER_T``, for every pair within ``reach``: the standard stretch
    induction for a pair uses only edges no longer than the pair.  A reach
    past the diameter gives the full Yao graph, a 5/4-spanner.  Returns the
    edges as an (m, 2) int64 array, each row (lo, hi), sorted.

    The cone of a row is the float32 ``argmax`` over the axes, taken once
    per distinct row (``_cones``): one ``lexsort`` of the m directed
    pairs' float32 bit patterns groups equal rows, the distinct rows meet
    the axes, and each pair takes its row's cone.  A row's product depends
    on that row alone, so no cone depends on the grouping.  Then one
    integer sort of the (source, cone) slots leaves a slot with one
    candidate as it is, and only the contested slots take their least d2
    and, among equal ones, their least index, by two minimum reductions.

    Cost: the sorts are O(m log m) time and hold O(m) index and bit arrays
    (m x dim uint32); the product is O(distinct rows x cones) time and
    O(``_CONE_BLOCK`` x cones) memory.  The only caller is the pyramid
    base, a lattice, where few rows are distinct and few slots contested:
    7,074 rows of 38,448 and 504 contested rows at d=4 eps 0.09.  On a
    cloud whose directions rarely repeat the grouping sort comes on top of
    the full product.  The candidates of ``_pairs_within`` are the pairs
    in neighbouring cells, 6.6 times the pairs within reach on the d=4
    eps=0.04 base.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, dim = pts.shape
    axes, _ = _cone_axes(dim)
    pairs, d2 = _pairs_within(pts, reach)
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    diff = pts[dst] - pts[src]
    d2 = np.concatenate([d2, d2])
    if np.any(d2 == 0.0):
        raise ValueError("yao_spanner needs distinct points")
    # The float32 rows sorted by bit pattern; ``first`` marks the first of each run.
    bits = diff.astype(np.float32).view(np.uint32)
    by_row = np.lexsort(bits.T)
    bits = bits[by_row]
    first = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:, 0], bits[:-1, 0], out=first[1:])
    for a in range(1, dim):
        first[1:] |= bits[1:, a] != bits[:-1, a]
    cone = np.empty(len(bits), dtype=np.intp)
    cone[by_row] = _cones(bits[first].view(np.float32), axes)[np.cumsum(first) - 1]
    # Per (source, cone) slot: the least d2, then the least index.  A slot
    # with one candidate keeps it; a contested slot takes the two minima.
    slot = src * len(axes) + cone
    by_slot = np.argsort(slot)
    slot = slot[by_slot]
    tied = slot[1:] == slot[:-1]
    contested = np.zeros(len(slot), dtype=bool)
    contested[1:] = tied
    contested[:-1] |= tied
    single = by_slot[~contested]
    rival = by_slot[contested]
    starts = np.flatnonzero(np.diff(slot[contested], prepend=-1))
    rival_d2 = d2[rival]
    nearest = np.repeat(np.minimum.reduceat(rival_d2, starts), np.diff(starts, append=len(rival)))
    rival_dst = np.where(rival_d2 == nearest, dst[rival], n)
    us = np.concatenate([src[single], src[rival[starts]]])
    vs = np.concatenate([dst[single], np.minimum.reduceat(rival_dst, starts)])
    # Sorted and deduplicated: ``np.unique`` would import numpy.ma on first use.
    key = np.sort(np.minimum(us, vs) * n + np.maximum(us, vs))
    key = key[np.diff(key, prepend=-1) != 0]
    return np.column_stack(np.divmod(key, n))


def base_spanner(points: list[Point], reach: float) -> tuple[np.ndarray, list[float]]:
    """Cone spanner over base points, for the pairs within ``reach``.

    The points lie in the base hyperplane x_0 = 0; ``yao_spanner`` works on
    their remaining coordinates, and every pair within ``reach`` has a
    path of at most ``SPANNER_T`` times its length.  Returns the edges as
    an (m, 2) index array and their lengths, in edge order.
    """
    edges = yao_spanner(np.delete(np.asarray(points, dtype=float), 0, axis=1), reach)
    at = points.__getitem__
    lengths = list(map(math.dist, map(at, edges[:, 0].tolist()), map(at, edges[:, 1].tolist())))
    return edges, lengths


@collector_paused
def build_pyramid_core(d: int, eps: float, grid: GridSpec, lam: float = 1.25):
    """Assemble the pyramid graph and its shortest-path tree.

    Returns (graph, tree, report).  The tree is the SPT from the apex over
    the search graph (apex tree, apex-corner edges and base spanner), cut
    down to the apex's paths to the grid points, and the graph holds its
    vertices and edges.  The report measures the tree over the apex, then
    the grid points (see ``measure``).

    The base spanner takes only the pairs within R = t h, t = ``SPANNER_T``
    and h = side sqrt(d - 1) / 2^(k+1), half the body diagonal of a
    level-k cell.  The apex tree meets the base only at the level-k
    corners, each the same distance D from the apex (every level's edges
    are equally long), so every path from the apex to a base vertex costs
    at least D before its first base edge.  Every base vertex lies within
    h of a corner, and the spanner joins the two by a path of at most t h,
    so the vertex is at most D + t h from the apex: a base edge longer
    than t h is on no shortest path.  The reach is R (1 + 1e-6).  The
    margin covers the rounding spread of the corners' apex distances:
    each is a sum of k + 1 edge lengths, about 1 in all, so they differ
    by a few ulps of 1, while 1e-6 R > 9e-8 eps (2^k < 4 / sqrt(eps)).
    """
    _check_dimension(d)
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

    # The search graph's edges: the apex tree level by level, then the base spanner.
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
    reach = SPANNER_T * side * math.sqrt(dim) / (2 * two_k) * (1.0 + 1e-6)
    span_edges, span_w = base_spanner(base_points, reach)
    ends = np.concatenate([np.column_stack([us, vs]), base_ids[span_edges]])
    _, parent = dijkstra(G.n, ends, np.concatenate([ws, span_w]), apex_id)
    # The tree keeps the vertices on the apex's paths to the grid points,
    # in their order: the apex and the grid points keep their ids.
    kept = root_paths(parent, apex_id, input_ids)
    graph = SteinerGraph()
    new_id = {v: graph.add_vertex(G.coords[v], G.kinds[v]) for v in kept}
    for v in kept:
        if v != apex_id:
            graph.add_edge(new_id[parent[v]], new_id[v])
    tree = Tree(graph.n, tuple(graph.edges), apex_id)

    mst = euclidean_mst(PointCloud((apex,) + inputs))
    report = measure(
        tree, graph.coords, [apex_id] + input_ids, eps, mst.weight,
        {
            "levels": k,
            "level_angles": [alpha * lam**i for i in range(k + 1)],
            "spanner_edges": len(span_edges),
            "level_edge_totals": level_edge_totals,
            "chain": chain,
            "regime": grid.satisfies_regime(d, eps),
            "corner_count": corner.size,
        },
    )
    return graph, tree, report

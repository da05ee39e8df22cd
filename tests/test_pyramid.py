import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from oracles import (
    _covering_radius, heap_dijkstra, hyperplane_cloud, oracle_spt, pyramid_mst_lower_bound
)

import slt.mst_path
import slt.pyramid
from slt.core2d import CoreInstance, build_core
from slt.errors import DimensionTooSmall, SltError
from slt.geometry import dist
from slt.metrics import adjacency
from slt.mst_path import PointCloud, _pairs_within
from slt.pyramid import (
    GridSpec,
    _cone_axes,
    _fibonacci_sphere,
    build_pyramid_core,
    grid_points,
    pyramid_points,
    yao_spanner,
)

T = 1.25


def yao_oracle(points: np.ndarray) -> np.ndarray:
    """The Yao graph by a scan per point, as ``yao_spanner`` once computed it.

    Each point sorts the others by distance (stably) and keeps the first
    one in each cone, a direction's cone being the axis the float32 product
    with all cone axes picks.  Returns the edges as sorted (lo, hi) rows.
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
    return np.column_stack(np.divmod(np.unique(lo * n + hi), n))


def weighted(pts, edges):
    return [(i, j, dist(tuple(pts[i]), tuple(pts[j]))) for i, j in edges.tolist()]


def within(pts, edges, reach):
    """The rows of ``edges`` no longer than ``reach``."""
    diff = pts[edges[:, 0]] - pts[edges[:, 1]]
    return edges[np.einsum("ij,ij->i", diff, diff) <= reach**2]


def past_diameter(pts):
    return math.sqrt(pts.shape[1]) * np.ptp(pts) + 1.0


def regime_grid(d, eps):
    m = math.ceil(GridSpec.regime_min(d, eps) ** (1.0 / (d - 1)))
    return GridSpec.for_points(m ** (d - 1), d)


def regime_base(d, eps):
    """A regime grid build: its base points (without their x_0 = 0), spanner
    edges and reach, and the returned graph."""
    return captured_base(d, eps, regime_grid(d, eps))


def captured_base(d, eps, grid):
    """The base points, spanner edges and reach of a build, and its graph."""
    seen = {}
    real = slt.pyramid.base_spanner

    def record(points, reach):
        seen["points"] = np.delete(np.asarray(points), 0, axis=1)
        seen["reach"] = reach
        seen["edges"], _ = result = real(points, reach)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slt.pyramid, "base_spanner", record)
        G, _, _ = build_pyramid_core(d, eps, grid)
    return seen["points"], seen["edges"], seen["reach"], G


def assert_no_long_base_edge(G, reach):
    # The base is x_0 = 0; every other vertex is an apex above it.
    base = [w for u, v, w in G.edges if G.coords[u][0] == G.coords[v][0] == 0.0]
    assert base and max(base) <= reach


def all_pairs_ratio(pts, edges):
    n = len(pts)
    worst = 0.0
    for src in range(n):
        dists, _ = oracle_spt(n, edges, src)
        for v in range(n):
            if v == src:
                continue
            worst = max(worst, dists[v] / dist(tuple(pts[src]), tuple(pts[v])))
    return worst


def full_yao(pts):
    """The full Yao graph of ``pts`` (a reach past their diameter), weighted."""
    reach = 2.0 * max(dist(p, q) for p in pts for q in pts)
    return [(i, j, dist(pts[i], pts[j])) for i, j in yao_spanner(np.array(pts), reach).tolist()]


def test_full_yao_two_points():
    edges = full_yao([(0.0, 0.0), (1.0, 2.0)])
    assert len(edges) == 1


def test_full_yao_three_collinear():
    edges = full_yao([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert len(edges) == 2
    assert all(w == 1.0 for _, _, w in edges)


@pytest.mark.parametrize("seed", range(4))
def test_full_yao_is_spanner_small(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 41)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    edges = full_yao(pts)
    assert all_pairs_ratio(pts, edges) <= T + 1e-12


def local_ratio(pts, edges, reach):
    """Worst path-to-distance ratio over the pairs within ``reach``.

    The graph may be disconnected: pairs farther apart need no path.
    """
    n = len(pts)
    adj = adjacency(n, edges)
    worst = 0.0
    for src in range(n):
        dists, _ = heap_dijkstra(n, adj, src)
        for v in range(src + 1, n):
            d = dist(tuple(pts[src]), tuple(pts[v]))
            if d <= reach:
                worst = max(worst, dists[v] / d)
    return worst


def test_yao_2d_is_spanner():
    rng = np.random.default_rng(1)
    pts = rng.random((60, 2))
    edges = weighted(pts, yao_spanner(pts, past_diameter(pts)))
    assert all_pairs_ratio(pts, edges) <= T + 1e-12
    local = weighted(pts, yao_spanner(pts, 0.2))
    assert len(local) < len(edges)
    assert local_ratio(pts, local, 0.2) <= T + 1e-12


def test_yao_3d_is_spanner():
    rng = np.random.default_rng(2)
    pts = rng.random((50, 3))
    edges = weighted(pts, yao_spanner(pts, past_diameter(pts)))
    assert all_pairs_ratio(pts, edges) <= T + 1e-12
    local = weighted(pts, yao_spanner(pts, 0.3))
    assert len(local) < len(edges)
    assert local_ratio(pts, local, 0.3) <= T + 1e-12


def test_cone_tables_are_cached_and_read_only():
    assert _cone_axes(3) is _cone_axes(3)
    assert not _cone_axes(3)[0].flags.writeable


def lattice_cloud(rng, n, dim):
    """n distinct points of a small integer grid: many repeated directions and distances."""
    side = math.ceil((2 * n) ** (1.0 / dim)) + 1
    cells = rng.choice(side**dim, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (side,) * dim), axis=1).astype(float)


def pair_keys(pairs, n):
    """The pairs as sorted keys lo * n + hi, for comparison."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))


def brute_pairs(pts, reach):
    """Every pair i < j whose squared distance, summed over the axes in
    order, is at most reach^2."""
    i, j = np.triu_indices(len(pts), 1)
    d2 = np.zeros(len(i))
    for a in range(pts.shape[1]):
        d2 += (pts[j, a] - pts[i, a]) ** 2
    near = d2 <= reach * reach
    return pair_keys(np.column_stack((i[near], j[near])), len(pts))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 60, 700])
@pytest.mark.parametrize("cloud", ["uniform", "lattice"])
def test_pairs_within_are_the_pairs_at_most_reach_apart(dim, n, cloud):
    # The cell buckets against all pairs and against a k-d tree's
    # query_pairs, at reaches on the lattice distances 1 and 2 (and
    # sqrt(2), sqrt(3)), between them, and past the diameter.
    from scipy.spatial import cKDTree

    rng = np.random.default_rng([dim, n, 7])
    if cloud == "uniform":
        pts = rng.random((n, dim))
        reaches = [0.0, 0.05, 0.17, 0.5]
    else:
        pts = lattice_cloud(rng, n, dim)
        reaches = [0.0, 0.5, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, 2.5]
    for reach in reaches + [past_diameter(pts)]:
        pairs, d2 = _pairs_within(pts, reach)
        keys = pair_keys(pairs, n)
        assert pairs.shape == (len(keys), 2)
        assert np.array_equal(keys, brute_pairs(pts, reach))
        want = np.zeros(len(pairs))
        for a in range(dim):  # summed axis by axis, as the MST orders pairs
            want += (pts[pairs[:, 1], a] - pts[pairs[:, 0], a]) ** 2
        assert np.array_equal(d2, want)
        tree_pairs = cKDTree(pts).query_pairs(reach, output_type="ndarray")
        assert np.array_equal(keys, pair_keys(tree_pairs, n))
    assert len(_pairs_within(pts, past_diameter(pts))[0]) == n * (n - 1) // 2


def test_pairs_within_at_a_reach_far_below_the_extent():
    # A cluster 1e-9 apart and one point 1e9 away: 1e18 reaches across,
    # far more cells than int64 keys can number; the cells are renumbered.
    rng = np.random.default_rng(3)
    pts = np.concatenate([lattice_cloud(rng, 200, 3) * 1e-9, [[1e9, -1e9, 1e9]]])
    for reach in (1e-9, 2.5e-9, 1e-6):
        keys = pair_keys(_pairs_within(pts, reach)[0], len(pts))
        assert len(keys) and np.array_equal(keys, brute_pairs(pts, reach))
    with pytest.raises(ValueError):
        _pairs_within(pts, -1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 41, 400, 1500])
@pytest.mark.parametrize("cloud", ["uniform", "lattice"])
def test_yao_matches_the_per_point_scan(dim, n, cloud):
    # The full graph up to n = 400, whose 159,600 directed pairs meet the
    # cone axes in many blocks; at n = 1500 the pairs within a fifth of the
    # extent, as all 2.2 million would take the test seconds longer.
    rng = np.random.default_rng([dim, n])
    pts = rng.random((n, dim)) if cloud == "uniform" else lattice_cloud(rng, n, dim)
    reach = past_diameter(pts) if n <= 400 else 0.2 * np.ptp(pts) * (1.0 + 1e-9)
    edges = yao_spanner(pts, reach)
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    full = yao_oracle(pts)
    assert np.array_equal(edges, within(pts, full, reach))
    assert (len(edges) == len(full)) == (n <= 400)


def test_yao_matches_the_per_point_scan_on_the_d3_regime_base():
    # The build's spanner is the full Yao graph cut to its reach, and no
    # base edge of the returned tree is longer.
    for eps in (0.09, 0.04):
        pts, edges, reach, G = regime_base(3, eps)
        assert np.array_equal(edges, within(pts, yao_oracle(pts), reach))
        assert_no_long_base_edge(G, reach)


def cone_spy(monkeypatch):
    """Record the rows and cones of every call of the cone product."""
    calls = []
    real = slt.pyramid._cones

    def record(rows, axes):
        cones = real(rows, axes)
        calls.append((rows.copy(), cones))
        return cones

    monkeypatch.setattr(slt.pyramid, "_cones", record)
    return calls


def distinct_directions(pts, reach):
    """The distinct float32 direction rows of the directed pairs within reach,
    as their bit patterns."""
    pairs, _ = _pairs_within(pts, reach)
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    rows = (pts[dst] - pts[src]).astype(np.float32).view(np.uint32)
    return np.unique(rows, axis=0)


@pytest.mark.parametrize("dim", [2, 3])
def test_cones_do_not_depend_on_the_block(monkeypatch, dim):
    # Thousands of distinct directions, in blocks of 7 and of 1,024: the
    # cones, and so the edges, are the same, and the oracle's.
    pts = lattice_cloud(np.random.default_rng([dim, 11]), 400, dim)
    reach = past_diameter(pts)
    expected = within(pts, yao_oracle(pts), reach)
    calls = cone_spy(monkeypatch)
    for block in (7, 1024):
        monkeypatch.setattr(slt.pyramid, "_CONE_BLOCK", block)
        assert np.array_equal(yao_spanner(pts, reach), expected)
    (rows_7, cones_7), (rows_1024, cones_1024) = calls
    assert len(rows_7) > 1024
    assert np.array_equal(rows_7, rows_1024) and np.array_equal(cones_7, cones_1024)


def test_a_tie_in_one_cone_keeps_the_lower_index():
    # From the origin, A and B are 3,425 apart squared, in 2-d cone 12.  Each
    # of them sees a nearer point (its blocker, in another cone of the
    # origin) in its cone towards the origin, so an edge to the origin comes
    # from the origin's cone 12 alone: it goes to whichever of A and B has
    # the lower index.
    origin, a, b = (0.0, 0.0), (17.0, 56.0), (20.0, 55.0)
    block_a, block_b = (16.5, 54.5), (11.5, 27.5)
    axes, _ = _cone_axes(2)
    cone = lambda x: int(np.argmax(np.float32(x) @ axes.T.astype(np.float32)))
    assert cone(a) == cone(b) == 12
    assert np.einsum("i,i", a, a) == np.einsum("i,i", b, b)
    for near, block in ((a, block_a), (b, block_b)):
        assert cone(block) != 12
        assert cone(np.subtract(block, near)) == cone(np.negative(near))
        assert dist(block, near) < dist(origin, near)
    for first, second in ((a, b), (b, a)):
        pts = np.array([origin, first, second, block_a, block_b])
        edges = yao_spanner(pts, past_diameter(pts))
        assert np.array_equal(edges, yao_oracle(pts))
        assert [0, 1] in edges.tolist() and [0, 2] not in edges.tolist()


def test_a_reach_below_every_gap_gives_no_edge():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        pts = rng.random((50, dim))
        gap = min(dist(p, q) for p, q in itertools.combinations(pts.tolist(), 2))
        for reach in (0.0, gap / 2):
            edges = yao_spanner(pts, reach)
            assert edges.dtype == np.int64 and edges.shape == (0, 2)
    # The golden grid's base has no pair within the build's reach.
    pts, edges, reach, _ = captured_base(3, 0.04, GridSpec.for_points(64, 3))
    assert edges.dtype == np.int64 and edges.shape == (0, 2)
    assert len(_pairs_within(pts, reach)[0]) == 0


def test_the_cone_product_sees_each_distinct_direction_once(monkeypatch):
    pts, edges, reach, _ = regime_base(4, 0.09)
    calls = cone_spy(monkeypatch)
    assert np.array_equal(yao_spanner(pts, reach), edges)
    [(rows, _)] = calls
    assert len(rows) == 7_074
    bits = rows.view(np.uint32)
    assert np.array_equal(np.unique(bits, axis=0), distinct_directions(pts, reach))
    assert len(np.unique(bits, axis=0)) == len(rows)


# Edge count and sha256 of the full Yao graph's edge array cut to the
# build's reach.  The full graphs, 531,585 and 3,854,800 edges on 2,059
# and 10,737 base points, came from an all-pairs cone assignment equal to
# the float32 product; the per-point scan is too slow for the test suite.
D4_REGIME_EDGES = {
    0.09: (19_133, "729dfa80965508b7c7e1eb92e597e5975fb2e25daa57fb7e2a19b287b9ba83b6"),
    0.04: (61_040, "4d29ea031f75c9915744b5e3d7feadfc877180d2d6acfff66a69546c5fa65ec1"),
}


def test_yao_edges_of_the_d4_regime_base():
    for eps, (count, sha) in D4_REGIME_EDGES.items():
        _, edges, reach, G = regime_base(4, eps)
        assert len(edges) == count
        digest = hashlib.sha256(np.ascontiguousarray(edges, dtype=np.int64).tobytes()).hexdigest()
        assert digest == sha
        assert_no_long_base_edge(G, reach)


def traced_peak(call) -> float:
    """Peak of the memory traced while ``call()`` runs, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_pyramid_temporaries_are_bounded():
    # Unblocked, these peaks were 120, 96 and 122 MB: the cone product of
    # every directed pair at once, the 4e6-element Gram blocks of the
    # duplicate check before it sorted and, in the build, the cone product
    # again.  On the hyperplane cloud all 6.5e6 pairs are candidates of the
    # duplicate check's sort window, which it takes in blocks.
    pts, _, reach, _ = regime_base(4, 0.09)
    assert traced_peak(lambda: yao_spanner(pts, reach)) < 16
    cloud = pyramid_points(4, 5832, 0.04)
    assert traced_peak(lambda: PointCloud(cloud, 0)) < 16
    flat = tuple(map(tuple, hyperplane_cloud(60).tolist()))
    assert traced_peak(lambda: PointCloud(flat, 0)) < 16
    grid = regime_grid(4, 0.09)
    assert traced_peak(lambda: build_pyramid_core(4, 0.09, grid)) < 32


def mst_clouds():
    for dim in (2, 4, 8):
        rng = np.random.default_rng([dim, 200])
        yield rng.random((200, dim))
        yield lattice_cloud(rng, 200, dim)
    yield np.array(pyramid_points(4, regime_grid(4, 0.09).n, 0.09))


def test_mst_rows_do_not_depend_on_the_path(monkeypatch):
    # The full matrix and the row-at-a-time path compute the same floats,
    # so Prim breaks every tie the same way on both.  Prim is called
    # directly: euclidean_mst takes the local path on the d=4 grid.
    for arr in mst_clouds():
        points = tuple(map(tuple, arr.tolist()))
        monkeypatch.setattr(slt.mst_path, "_FULL_MATRIX_MAX", len(points))
        full = slt.mst_path._prim(points, 0)
        monkeypatch.setattr(slt.mst_path, "_FULL_MATRIX_MAX", 0)
        assert slt.mst_path._prim(points, 0) == full


def test_yao_rejects_repeated_points():
    with pytest.raises(ValueError):
        yao_spanner(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), 2.0)


def test_cone_covering_radius_verified():
    for dim in (2, 3):
        axes, radius = _cone_axes(dim)
        # spanner factor implied by the covering radius stays under 5/4
        t_implied = 1.0 / (1.0 - 2.0 * math.sin(radius))
        assert t_implied <= T
        norms = np.linalg.norm(axes, axis=1)
        assert np.allclose(norms, 1.0, rtol=1e-12)


def test_stored_cone_radius_is_the_hull_radius():
    # The builds read the stored radius; _covering_radius computes it.
    axes, radius = _cone_axes(3)
    assert radius == pytest.approx(_covering_radius(axes), rel=1e-12)


def test_cone_covering_radius_is_exact():
    from scipy.spatial import ConvexHull

    axes, radius = _cone_axes(3)
    # Brute force: every hull facet's circumcentre, against every axis.
    hull = ConvexHull(axes)
    a, b, c = (axes[hull.simplices[:, i]] for i in range(3))
    centres = np.cross(b - a, c - a)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    centres *= np.sign(np.einsum("ij,ij->i", centres, a))[:, None]
    nearest = np.clip((centres @ axes.T).max(axis=1), -1.0, 1.0)
    assert radius == pytest.approx(float(np.arccos(nearest).max()), abs=1e-12)
    # No sampled direction lies farther than the radius from every axis.
    sample = _fibonacci_sphere(200_000)
    for lo in range(0, len(sample), 20_000):
        cos = np.clip((sample[lo : lo + 20_000] @ axes.T).max(axis=1), -1.0, 1.0)
        assert np.arccos(cos).max() <= radius + 1e-12


def test_pyramid_type_invariants():
    # The top pyramid: apex above the base centre, at unit distance from
    # the 2^(d-1) base corners, with apex angle sqrt(eps) over a diagonal.
    # The tree holds no corner (none is on a path to a grid point), so the
    # corners come from the cube, and every vertex lies over it.
    d, eps = 4, 0.25
    G, tree, _ = build_pyramid_core(d, eps, GridSpec.for_points(8, d))
    apex = G.coords[tree.root]
    half_side = math.sin(math.sqrt(eps) / 2) / math.sqrt(d - 1)
    corners = [(0.0,) + c for c in itertools.product((-half_side, half_side), repeat=d - 1)]
    assert all(abs(x) <= half_side + 1e-15 for c in G.coords for x in c[1:])
    assert apex[1:] == (0.0,) * (d - 1)
    for c in corners:
        assert dist(apex, c) == pytest.approx(1.0, rel=1e-12)
    r = half_side * math.sqrt(d - 1)
    assert 2.0 * math.atan2(r, apex[0]) == pytest.approx(math.sqrt(eps), rel=1e-12)


def test_grid_spec_regime():
    gs = GridSpec.for_points(64, 3)
    assert gs.per_axis == 8
    assert not gs.satisfies_regime(3, 0.04)
    big = GridSpec.for_points(2704, 3)
    assert big.satisfies_regime(3, 0.04)


def test_mst_lower_bound_value():
    b = pyramid_mst_lower_bound(GridSpec.for_points(64, 3), 3, 0.04)
    assert b == pytest.approx(4.0 * math.sqrt(1.0 / 75.0), rel=1e-12)
    with pytest.raises(ValueError):
        pyramid_mst_lower_bound(GridSpec(1, 1), 3, 0.04)


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        build_pyramid_core(2, 0.04, GridSpec.for_points(16, 3))


def test_yao_base_dimension_past_3_is_not_too_small():
    rng = np.random.default_rng(0)
    with pytest.raises(SltError, match="base dimensions 2 and 3, got 4") as err:
        yao_spanner(rng.random((5, 4)), 1.0)
    assert not isinstance(err.value, DimensionTooSmall)
    with pytest.raises(DimensionTooSmall):
        yao_spanner(rng.random((5, 1)), 1.0)


@pytest.mark.parametrize("d", [5, 6])
def test_dimension_past_4_is_refused_before_any_work(monkeypatch, d):
    # No cone axes for a 4-d base: refused before the lattice is built.
    monkeypatch.setattr(slt.pyramid, "SteinerGraph", None)
    with pytest.raises(SltError, match=f"supports d = 3 and 4, got d = {d}"):
        build_pyramid_core(d, 0.09, GridSpec.for_points(16, d))
    with pytest.raises(SltError, match="supports d = 3 and 4"):
        pyramid_points(d, 16, 0.09)


def test_children_count_and_levels():
    G, tree, rep = build_pyramid_core(3, 0.04, GridSpec.for_points(64, 3))
    assert rep.flags["levels"] == 4
    apex_children = sum(
        1 for u, v, _ in G.edges if u == tree.root and G.kinds[v] == "core_apex"
    )
    assert apex_children == 4  # 2^(d-1) children per pyramid at d=3


def test_cross_section_chain_matches_triangle_core():
    _, _, rep = build_pyramid_core(3, 0.04, GridSpec.for_points(64, 3))
    core = build_core(CoreInstance.canonical(0.04, 1))
    for a, b in zip(rep.flags["chain"], core.chain):
        assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("d,eps,n", [(3, 0.09, 64), (3, 0.04, 64), (4, 0.09, 216)])
def test_level_edge_totals_bound(d, eps, n):
    _, _, rep = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    lam = 1.25
    for i, total in enumerate(rep.flags["level_edge_totals"]):
        assert total <= 2**d * 2 ** ((d - 2) * i) / lam**i + 1e-9


@pytest.mark.parametrize("d,eps,n", [(3, 0.09, 64), (3, 0.04, 100), (4, 0.09, 216)])
def test_stretch_and_path_bound(d, eps, n):
    G, tree, rep = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    assert rep.max_stretch <= 1 + eps + 1e-12
    # root-to-input path lengths stay within the additive budget
    alpha = math.sqrt(eps)
    cap = math.cos(alpha / 2.0) + (17.0 / 16.0) * eps
    from slt.metrics import tree_distances

    td = tree_distances(tree, tree.root)
    apex = G.coords[tree.root]
    for i, p in enumerate(G.coords):
        if G.kinds[i] == "input" and i != tree.root:
            assert td[i] <= cap + 1e-9


def test_mst_exceeds_lower_bound():
    d, eps, n = 3, 0.04, 64
    _, _, rep = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    bound = pyramid_mst_lower_bound(GridSpec.for_points(n, d), d, eps)
    assert rep.mst_weight > bound


def test_grid_center_corner_merge():
    # per-axis counts with a shared divisor create exact coincidences
    # between cell centers and the finest corner lattice; they must merge
    # into a single vertex
    d, eps = 3, 0.04
    n = 100  # 10 per axis; 2^k = 16 -> no merge
    G1, _, _ = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    coords = {}
    for i, c in enumerate(G1.coords):
        key = tuple(round(x, 12) for x in c)
        assert key not in coords, f"duplicate vertex at {c}"
        coords[key] = i


def test_base_points_within_cube():
    pts = grid_points(3, 0.04, GridSpec.for_points(64, 3))
    side = 2 * math.sin(0.1) / math.sqrt(2)
    for p in pts:
        assert p[0] == 0.0
        assert all(abs(x) <= side / 2 for x in p[1:])


@pytest.mark.parametrize("d,eps,n,vertices", [(4, 0.09, 200, 658), (3, 0.04, 64, 213), (4, 0.25, 8, 25)])
def test_tree_keeps_only_the_paths_to_the_grid_points(d, eps, n, vertices):
    # Off the regime most of the corner lattice is on no such path: the
    # full shortest-path trees held 1,506, 630 and 198 vertices here.
    G, tree, rep = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    assert G.n == tree.n == len(tree.edges) + 1 == vertices
    assert G.kinds[: n + 1] == ["input"] * (n + 1)
    degree = [0] * G.n
    for u, v, _ in tree.edges:
        degree[u] += 1
        degree[v] += 1
    leaves = [v for v in range(G.n) if degree[v] == 1 and v != tree.root]
    assert all(G.kinds[v] == "input" for v in leaves)
    assert rep.max_stretch <= 1 + eps + 1e-12


@pytest.mark.parametrize("d,eps,n", [(3, 0.04, 64), (3, 0.09, 64), (4, 0.09, 216), (3, 0.25, 9)])
def test_points_and_build_put_the_apex_in_one_place(d, eps, n):
    # slt verify finds the inputs by their exact coordinates.
    G, tree, rep = build_pyramid_core(d, eps, GridSpec.for_points(n, d))
    assert tuple(G.coords[: n + 1]) == pyramid_points(d, n, eps)
    assert tree.root == 0
    assert len(rep.per_point_stretch) == rep.n == n + 1
    assert rep.per_point_stretch[0] == 1.0

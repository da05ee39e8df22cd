import math
import random

import numpy as np
import pytest

from slt.core2d import CoreInstance, build_core
from slt.errors import DimensionTooSmall
from slt.geometry import dist
from slt.metrics import oracle_spt
from slt.pyramid import (
    GridSpec,
    _cone_axes,
    _fibonacci_sphere,
    build_pyramid_core,
    greedy_spanner,
    grid_points,
    pyramid_mst_lower_bound,
    yao_spanner,
)

T = 1.25


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


def test_greedy_two_points():
    edges = greedy_spanner([(0.0, 0.0), (1.0, 2.0)], T)
    assert len(edges) == 1


def test_greedy_three_collinear():
    edges = greedy_spanner([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], T)
    assert len(edges) == 2
    assert all(w == 1.0 for _, _, w in edges)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_is_spanner_small(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 41)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    edges = greedy_spanner(pts, T)
    assert all_pairs_ratio(pts, edges) <= T + 1e-12


def test_yao_2d_is_spanner():
    rng = np.random.default_rng(1)
    pts = rng.random((60, 2))
    edges = yao_spanner(pts)
    assert all_pairs_ratio(pts, edges) <= T + 1e-12


def test_yao_3d_is_spanner():
    rng = np.random.default_rng(2)
    pts = rng.random((50, 3))
    edges = yao_spanner(pts)
    assert all_pairs_ratio(pts, edges) <= T + 1e-12


def test_cone_covering_radius_verified():
    for dim in (2, 3):
        axes, radius = _cone_axes(dim)
        # spanner factor implied by the covering radius stays under 5/4
        t_implied = 1.0 / (1.0 - 2.0 * math.sin(radius))
        assert t_implied <= T
        norms = np.linalg.norm(axes, axis=1)
        assert np.allclose(norms, 1.0, rtol=1e-12)


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
    d, eps = 4, 0.25
    G, tree, _ = build_pyramid_core(d, eps, GridSpec.for_points(8, d))
    apex = G.coords[tree.root]
    half_side = math.sin(math.sqrt(eps) / 2) / math.sqrt(d - 1)
    corners = [
        c for c in G.coords
        if c[0] == 0.0 and all(abs(abs(x) - half_side) < 1e-15 for x in c[1:])
    ]
    assert len(corners) == 2 ** (d - 1)
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

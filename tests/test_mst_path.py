import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from oracles import kruskal_mst

import slt.mst_path
from slt.errors import DuplicatePoints
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst


def random_cloud(n, d, seed):
    rng = random.Random(seed)
    return PointCloud(tuple(tuple(rng.random() for _ in range(d)) for _ in range(n)))


def shifted_cloud(seed, offset=0.0, scale=1.0, n=60, d=3):
    rng = random.Random(seed)
    return [tuple(offset + scale * rng.random() for _ in range(d)) for _ in range(n)]


def edge_set(tree):
    return {(min(u, v), max(u, v)) for u, v, _ in tree.edges}


@pytest.mark.parametrize("offset", [1e8, 1e9])
def test_prim_matches_kruskal_far_from_origin(offset):
    # The Gram form |x|^2+|y|^2-2x.y cancels unless centred on the cloud.
    for seed in range(10):
        pts = tuple(shifted_cloud(seed, offset))
        prim, kruskal = euclidean_mst(PointCloud(pts)), kruskal_mst(pts)
        assert edge_set(prim) == edge_set(kruskal)
        assert prim.weight == kruskal.weight


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_prim_matches_kruskal_far_from_root(offset):
    # Root at the origin, the other 59 points in a unit cube near offset:
    # moving the cloud by the root cannot bring the cluster near the origin.
    for seed in range(10):
        pts = ((0.0, 0.0, 0.0),) + tuple(shifted_cloud(seed, offset, n=59))
        prim, kruskal = euclidean_mst(PointCloud(pts)), kruskal_mst(pts)
        assert edge_set(prim) == edge_set(kruskal)
        assert prim.weight == kruskal.weight


@pytest.mark.parametrize("offset,scale", [(1e9, 1.0), (0.0, 1e6)])
def test_exact_duplicates_found_at_any_scale(offset, scale):
    # The duplicate prefilter must allow for the Gram form's rounding.
    for seed in range(50):
        pts = shifted_cloud(seed, offset, scale)
        pts.append(pts[seed])
        with pytest.raises(DuplicatePoints):
            PointCloud(tuple(pts))


def test_two_points():
    t = euclidean_mst(PointCloud(((0.0, 0.0), (3.0, 4.0))))
    assert len(t.edges) == 1
    assert t.weight == 5.0


def test_unit_square_weight_three():
    pc = PointCloud(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert euclidean_mst(pc).weight == 3.0


def test_prim_matches_kruskal_exactly():
    pc = random_cloud(10, 2, 7)
    assert euclidean_mst(pc).weight == kruskal_mst(pc.points).weight


@pytest.mark.parametrize("seed", range(12))
def test_prim_matches_kruskal_many(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 120)
    d = rng.randrange(2, 9)
    pc = random_cloud(n, d, seed * 31 + 1)
    assert euclidean_mst(pc).weight == kruskal_mst(pc.points).weight


def test_exact_reals_accepted_non_numbers_rejected():
    for c in (Fraction(1, 3), Decimal("0.5"), 2**70, True):
        assert PointCloud(((c, 0), (-1, 1))).n == 2
    for c in ("1", 1j, None):
        with pytest.raises(TypeError):
            PointCloud(((c, 0), (-1, 1)))
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PointCloud(((c, 0), (-1, 1)))


def test_duplicates_rejected():
    with pytest.raises(DuplicatePoints) as e:
        PointCloud(((0.0, 0.0), (1.0, 1.0), (0.0, 0.0)))
    assert (0, 2) in e.value.pairs


def test_near_duplicates_rejected():
    with pytest.raises(DuplicatePoints):
        PointCloud(((0.0, 0.0), (1e-13, -1e-13)))


def test_dfs_collinear_identity_order():
    pts = tuple((float(i), 0.0) for i in range(5))
    pc = PointCloud(pts)
    tree = euclidean_mst(pc)
    ham = dfs_hamiltonian(tree, pc)
    assert ham.order == (0, 1, 2, 3, 4)
    assert ham.weight == tree.weight


def test_dfs_star():
    leaves = [
        (math.cos(a), math.sin(a))
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ]
    pc = PointCloud(((0.0, 0.0),) + tuple(leaves))
    tree = euclidean_mst(pc)
    assert tree.weight == pytest.approx(3.0, rel=1e-12)
    ham = dfs_hamiltonian(tree, pc)
    # center -> leaf, then leaf to leaf at distance sqrt(3)
    want = 1.0 + 2.0 * math.sqrt(3.0)
    assert ham.weight == pytest.approx(want, rel=1e-12)
    assert ham.weight <= 2.0 * tree.weight


@pytest.mark.parametrize("seed", range(8))
def test_path_doubling_bound(seed):
    rng = random.Random(seed)
    pc = random_cloud(rng.randrange(2, 80), rng.randrange(2, 6), seed + 100)
    tree = euclidean_mst(pc)
    ham = dfs_hamiltonian(tree, pc)
    assert ham.weight <= 2.0 * tree.weight * (1 + 1e-12)
    # path shortcuts the closing leg of the doubled tour
    assert ham.weight <= 2.0 * tree.weight - math.dist(
        pc.points[ham.order[-1]], pc.points[pc.root]
    ) + 1e-12


def test_dfs_deterministic():
    pc = random_cloud(40, 3, 5)
    t1 = euclidean_mst(pc)
    t2 = euclidean_mst(pc)
    assert t1.edges == t2.edges
    assert dfs_hamiltonian(t1, pc).order == dfs_hamiltonian(t2, pc).order


def test_root_respected():
    pc = random_cloud(20, 2, 9)
    pc2 = PointCloud(pc.points, root=7)
    ham = dfs_hamiltonian(euclidean_mst(pc2), pc2)
    assert ham.order[0] == 7
    assert sorted(ham.order) == list(range(20))


def test_duplicates_found_in_any_block(monkeypatch):
    # One row per Gram block finds the same pairs, in the same order.
    pts = shifted_cloud(0, n=61)
    pts += [pts[3], pts[40], pts[3]]
    with pytest.raises(DuplicatePoints) as whole:
        PointCloud(tuple(pts))
    monkeypatch.setattr(slt.mst_path, "_GRAM_BLOCK", 1)
    with pytest.raises(DuplicatePoints) as rows:
        PointCloud(tuple(pts))
    assert rows.value.pairs == whole.value.pairs == [(3, 61), (3, 63), (40, 62), (61, 63)]

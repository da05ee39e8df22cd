import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from oracles import duplicate_pairs, hyperplane_cloud, kruskal_mst

import slt.mst_path
from slt.errors import DuplicatePoints
from slt.geometry import COINCIDENT_TOL
from slt.mst_path import PointCloud, Tree, dfs_hamiltonian, euclidean_mst
from slt.pipeline import assemble_slt
from slt.pyramid import GridSpec, pyramid_points


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
    # Exact duplicates project alike, however far from the origin.
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
    # One sorted position per candidate block finds the same pairs, in the
    # same order; so do small blocks on a cloud whose every pair is a candidate.
    pts = shifted_cloud(0, n=61)
    pts += [pts[3], pts[40], pts[3]]
    with pytest.raises(DuplicatePoints) as whole:
        PointCloud(tuple(pts))
    flat = hyperplane_cloud(12)
    u = slt.mst_path._direction(4)  # all project far inside the window
    assert np.ptp(flat @ u) < 0.01 * math.fsum(u.tolist()) * COINCIDENT_TOL
    flat = np.concatenate([flat, flat[[5, 90, 5]] + COINCIDENT_TOL / 2])
    want = duplicate_pairs(flat)
    assert want == [(5, 144), (5, 146), (90, 145), (144, 146)]
    assert slt.mst_path._duplicate_pairs(flat) == want
    for block in (1, 7, 1000):
        monkeypatch.setattr(slt.mst_path, "_PAIR_BLOCK", block)
        with pytest.raises(DuplicatePoints) as rows:
            PointCloud(tuple(pts))
        assert rows.value.pairs == whole.value.pairs == [(3, 61), (3, 63), (40, 62), (61, 63)]
        assert slt.mst_path._duplicate_pairs(flat) == want


def tol_offset_cloud(base):
    # Each point of a base cloud, then moved by f * tol along one axis and
    # along all axes, for f = 0.9, 1.0, 1.1: the test is strict.
    rng = np.random.default_rng(5)
    origin = base + rng.random((20, 3))
    moved = [origin]
    for f in (0.9, 1.0, 1.1):
        moved.append(origin + [f * COINCIDENT_TOL, 0.0, 0.0])
        moved.append(origin + f * COINCIDENT_TOL)
    return np.concatenate(moved)


def ulp_twin_cloud():
    # Between 4096 and 8192 one ulp is 9.1e-13, just under the tolerance,
    # and each projection's rounding is about as large: a window without
    # the rounding term misses some of these twins.
    rng = np.random.default_rng(11)
    base = 4096.0 * (1.0 + rng.random((300, 3)))
    return np.concatenate([base, np.nextafter(base, rng.choice([-np.inf, np.inf], (300, 3)))])


def far_cloud(offset, scale, seed):
    pts = shifted_cloud(seed, offset, scale)
    return pts + [pts[seed]]


DUPLICATE_CLOUDS = {
    "tol offsets at 0": lambda: tol_offset_cloud(0.0),
    "tol offsets at 1": lambda: tol_offset_cloud(1.0),
    "tol offsets at 1000": lambda: tol_offset_cloud(1000.0),
    "one-ulp twins at 4096": ulp_twin_cloud,
    "1e9 offset": lambda: np.concatenate([far_cloud(1e9, 1.0, s) for s in range(50)]),
    "1e6 scale": lambda: np.concatenate([far_cloud(0.0, 1e6, s) for s in range(50)]),
    "2^-30": lambda: shifted_cloud(0, scale=2.0**-30, n=200),
    "2^-40": lambda: shifted_cloud(0, scale=2.0**-40, n=200),
    "2-d lattice": lambda: np.stack(np.unravel_index(np.arange(1600), (40, 40)), axis=1),
    "3-d lattice": lambda: np.stack(np.unravel_index(np.arange(1728), (12, 12, 12)), axis=1),
    "within tol pairwise": lambda: 0.5 + 0.45 * COINCIDENT_TOL * np.random.default_rng(2).random(
        (60, 3)),
    "hyperplane, every pair a candidate": lambda: hyperplane_cloud(60),
    **{f"criterion 8, d={d} eps={eps}": (lambda d=d, eps=eps: regime_points(d, eps))
       for d, eps in [(3, 0.09), (3, 0.04), (4, 0.09), (4, 0.04)]},
}


@pytest.mark.parametrize("name", DUPLICATE_CLOUDS)
def test_duplicate_pairs_match_brute_force(name):
    pts = np.asarray(DUPLICATE_CLOUDS[name](), dtype=float)
    want = duplicate_pairs(pts)
    assert slt.mst_path._duplicate_pairs(pts) == want
    if want:
        with pytest.raises(DuplicatePoints) as e:
            PointCloud(tuple(map(tuple, pts.tolist())))
        assert e.value.pairs == want


def test_duplicate_pairs_cover_every_kind_of_cloud():
    # The oracle clouds hold pairs just inside and just outside the
    # tolerance, and clouds where every pair coincides.
    for base in ("0", "1", "1000"):
        pairs = set(duplicate_pairs(DUPLICATE_CLOUDS["tol offsets at " + base]()))
        assert all((i, 20 + i) in pairs and (i, 100 + i) not in pairs for i in range(20))
    counts = {name: len(duplicate_pairs(DUPLICATE_CLOUDS[name]())) for name in
              ("one-ulp twins at 4096", "2^-40", "within tol pairwise", "2-d lattice")}
    assert counts == {"one-ulp twins at 4096": 300, "2^-40": 200 * 199 // 2,
                      "within tol pairwise": 60 * 59 // 2, "2-d lattice": 0}


def reference_weight(pts):
    """Kruskal's weight; above 1,500 points Prim's, as Kruskal's list of
    every pair would take gigabytes."""
    if len(pts) <= 1500:
        return kruskal_mst(pts).weight
    return Tree(len(pts), slt.mst_path._prim(pts, 0), 0).weight


def assert_mst_weight(pts):
    pts = tuple(map(tuple, np.asarray(pts, dtype=float).tolist()))
    want = reference_weight(pts)
    got = euclidean_mst(PointCloud(pts)).weight
    assert got == want or abs(got - want) <= 1e-15 * want, (got, want)


def regime_points(d, eps):
    m = math.ceil(GridSpec.regime_min(d, eps) ** (1.0 / (d - 1)))
    return pyramid_points(d, m ** (d - 1), eps)


def lattice(rng, n, dim):
    side = math.ceil((2 * n) ** (1.0 / dim)) + 1
    cells = rng.choice(side**dim, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (side,) * dim), axis=1)


@pytest.mark.parametrize("d,eps", [(3, 0.09), (3, 0.04), (4, 0.09), (4, 0.04)])
def test_mst_weight_on_the_criterion_8_grids(d, eps):
    assert_mst_weight(regime_points(d, eps))


@pytest.mark.parametrize("kind", ["lattice", "uniform"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [300, 800, 6000])
def test_mst_weight_on_clouds(kind, dim, n):
    # 300 points take Prim, 800 and 6,000 the local candidate graph.
    rng = np.random.default_rng([dim, n])
    assert_mst_weight(lattice(rng, n, dim) if kind == "lattice" else rng.random((n, dim)))


def test_mst_weight_joins_far_clusters():
    # Each cluster is whole before the reach nears the gap: the rows of
    # the smaller ones find the joining edges.
    rng = np.random.default_rng(7)
    clusters = [rng.random((300, 3)), rng.random((250, 3)) + 1e4, rng.random((8, 3)) - 1e3]
    assert_mst_weight(np.concatenate(clusters))


def test_mst_weight_of_many_far_clusters_is_prims(monkeypatch):
    # 64 clusters: after the growth cap, Borůvka would take more rows than
    # Prim, so Prim gives the weight.
    calls = []
    real = slt.mst_path._prim
    monkeypatch.setattr(slt.mst_path, "_prim", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(4)
    centres = rng.random((64, 1, 3)) * 1e3
    assert_mst_weight((centres + rng.random((64, 10, 3))).reshape(-1, 3))
    assert len(calls) == 1


def test_mst_weight_of_a_tiny_cluster_and_a_far_point():
    cluster = np.stack(np.unravel_index(np.arange(512), (8, 8, 8)), axis=1) * 1.25e-10
    assert_mst_weight(np.concatenate([cluster, [[1e9, 0.0, 0.0]]]))


def test_mst_weight_of_collinear_points():
    rng = np.random.default_rng(3)
    steps = np.cumsum(rng.choice([0.5, 1.0, 1.5], size=700))
    assert_mst_weight(np.outer(steps, [1.0, -2.0, 0.5]))
    assert_mst_weight(np.outer(np.arange(700.0), [0.0, 1.0]))


def test_mst_weight_of_one_and_two_points():
    assert euclidean_mst(PointCloud(((1.0, 2.0),))).weight == 0.0
    assert euclidean_mst(PointCloud(((0.0, 0.0), (3.0, 4.0)))).weight == 5.0


def test_mst_weight_reach_grows_only_while_many_points_are_left(monkeypatch):
    # A uniform cloud's first reach leaves most points outside the largest
    # component, so the reach doubles; on the pyramid grid it leaves only
    # the apex, which one Borůvka row joins.
    reaches = []
    real = slt.mst_path._pairs_within

    def record(pts, reach):
        reaches.append(reach)
        return real(pts, reach)

    monkeypatch.setattr(slt.mst_path, "_pairs_within", record)
    rng = np.random.default_rng(11)
    euclidean_mst(PointCloud(tuple(map(tuple, rng.random((2000, 3)).tolist()))))
    assert len(reaches) >= 2 and reaches[1] == 2 * reaches[0]
    reaches.clear()
    euclidean_mst(PointCloud(regime_points(4, 0.09)))
    assert len(reaches) == 1


def test_mst_weight_leaves_scipy_unloaded():
    # slt verify of a large low-dimensional tree takes this path; neither it
    # nor the whole package, the pyramid included, loads scipy.
    code = ("import sys, random, slt; from slt.mst_path import PointCloud, euclidean_mst; "
            "rng = random.Random(5); "
            "w = euclidean_mst(PointCloud(tuple((rng.random(), rng.random(), rng.random()) "
            "for _ in range(2000)))).weight; print(w > 0, 'scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(slt.mst_path.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_prim_tree_does_not_overflow(scale):
    # Squared differences of 1e160 overflow, unless the coordinates are
    # first scaled by a power of two.
    rng = random.Random(3)
    pts = [tuple(rng.random() for _ in range(3)) for _ in range(40)]
    want = [(u, v) for u, v, _ in euclidean_mst(PointCloud(tuple(pts))).edges]
    big = euclidean_mst(PointCloud(tuple(tuple(scale * x for x in p) for p in pts)))
    assert [(u, v) for u, v, _ in big.edges] == want


@pytest.mark.parametrize("kind", ["lattice", "uniform"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [500, 2000])
def test_local_mst_is_prims_tree(monkeypatch, kind, dim, n):
    # Where no two distances nearly tie, Prim's window is the exact order:
    # integer lattices tie exactly, uniform clouds not at all.  The growth
    # cap only picks the cheaper path; lifted, the sparse d=4 lattice of
    # 2,000 points runs the local path too.
    monkeypatch.setattr(slt.mst_path, "_PAIRS_PER_POINT", math.inf)
    rng = np.random.default_rng([dim, n, 1])
    cloud = lattice(rng, n, dim) if kind == "lattice" else rng.random((n, dim))
    pts = tuple(map(tuple, cloud.astype(float).tolist()))
    local = slt.mst_path._local_mst(pts)
    assert local is not None
    assert edge_set(Tree(n, local, 0)) == edge_set(Tree(n, slt.mst_path._prim(pts, 0), 0))


@pytest.mark.parametrize("n,dim,calls", [(600, 3, 0), (600, 5, 1), (499, 3, 1)])
def test_a_folding_build_takes_one_mst(monkeypatch, n, dim, calls):
    # In d <= 4 from 500 points the local tree, else Prim's; the report
    # takes the tree's weight, so no second MST runs.
    seen = []
    real = slt.mst_path._prim
    monkeypatch.setattr(slt.mst_path, "_prim", lambda *a: seen.append(a) or real(*a))
    rng = np.random.default_rng([n, dim])
    assemble_slt(PointCloud(tuple(map(tuple, rng.random((n, dim)).tolist()))), 0.25)
    assert len(seen) == calls

import math
import random

import pytest
from oracles import point_at_arc

from slt.breakpoints import select_breakpoints, subdivide
from slt.errors import EpsOutOfRange
from slt.geometry import dist
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst


def ham_for(points, root=0):
    pc = PointCloud(tuple(points), root)
    return dfs_hamiltonian(euclidean_mst(pc), pc)


def bisect_gap_zero(path, s, start_arc, sq, tol=1e-13):
    """Independent oracle: scan then bisect g(q) = arc - sq*dist(s, q)."""

    def g(arc):
        return (arc - start_arc) - sq * dist(s, point_at_arc(path, arc))

    total = path.total_length
    steps = 20000
    prev = start_arc
    for i in range(1, steps + 1):
        arc = start_arc + (total - start_arc) * i / steps
        if g(arc) >= 0.0:
            lo, hi = prev, arc
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev = arc
    return None


def test_single_edge_root_rule():
    H = ham_for([(0.0, 0.0), (4.0, 0.0)])
    B = select_breakpoints(H, 0.25)
    assert B.points.tolist() == [[0.0, 0.0], [4.0, 0.0]]
    assert not B.truncated


def test_l_path_closed_form():
    H = ham_for([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    B = select_breakpoints(H, 0.25)
    want_t = 1.0 / math.sqrt(3.0)  # solves t = 0.5*sqrt(1+t^2)
    assert len(B.points) == 4
    assert B.points[0].tolist() == [0.0, 0.0]
    assert B.points[1].tolist() == [1.0, 0.0]
    assert B.points[2][0] == pytest.approx(1.0, abs=1e-15)
    assert B.points[2][1] == pytest.approx(want_t, rel=1e-12)
    assert B.points[3].tolist() == [1.0, 1.0]
    assert B.truncated


def test_l_path_matches_bisection_oracle():
    H = ham_for([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    B = select_breakpoints(H, 0.25)
    oracle = bisect_gap_zero(H.geometry, (0.0, 0.0), 1.0, 0.5)
    assert B.arc[2] == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("seed,eps", [(s, e) for s in range(6) for e in (0.25, 0.04)])
def test_defining_equation_residual(seed, eps):
    rng = random.Random(seed)
    pts = [tuple(rng.random() for _ in range(3)) for _ in range(30)]
    H = ham_for(pts)
    B = select_breakpoints(H, eps)
    s = pts[0]
    sq = math.sqrt(eps)
    upper = len(B) - (2 if B.truncated else 1)
    for i in range(1, upper):
        gap = B.arc[i + 1] - B.arc[i]
        want = sq * dist(s, B.points[i + 1])
        assert abs(gap - want) <= 1e-9 * want
    if B.truncated:
        # inequality direction is preserved at the truncated tail
        gap = B.arc[-1] - B.arc[-2]
        assert gap <= sq * dist(s, B.points[-1]) * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_monotone_and_separated(seed):
    rng = random.Random(seed + 50)
    pts = [tuple(rng.random() for _ in range(2)) for _ in range(40)]
    H = ham_for(pts)
    B = select_breakpoints(H, 0.09)
    arcs = B.arc.tolist()
    assert arcs[0] == 0.0
    assert arcs[-1] == pytest.approx(H.geometry.total_length, rel=1e-12)
    for a, b in zip(arcs, arcs[1:]):
        assert b - a > 1e-12 * H.geometry.total_length


def test_eps_out_of_range():
    H = ham_for([(0.0, 0.0), (1.0, 0.0)])
    for eps in (0.0, 0.3, 0.81, 1.0, -0.5, 2.0):
        with pytest.raises(EpsOutOfRange):
            select_breakpoints(H, eps)


def test_subdivide_verbatim_when_breakpoints_on_vertices():
    H = ham_for([(0.0, 0.0), (4.0, 0.0)])
    B = select_breakpoints(H, 0.25)
    sub = subdivide(H, B)
    assert sub.points.tolist() == [list(v) for v in H.geometry.vertices]


def test_subdivide_l_path():
    H = ham_for([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    B = select_breakpoints(H, 0.25)
    sub = subdivide(H, B)
    assert len(sub.points) == 4
    assert sub.points[2][1] == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert sub.input_index.tolist() == [0, 1, -1, 2]


@pytest.mark.parametrize("seed", range(5))
def test_subdivide_preserves_length(seed):
    rng = random.Random(seed + 7)
    pts = [tuple(rng.random() for _ in range(4)) for _ in range(25)]
    H = ham_for(pts)
    B = select_breakpoints(H, 0.04)
    sub = subdivide(H, B)
    assert sub.total_length == pytest.approx(H.geometry.total_length, rel=1e-12)
    # every break point appears as a vertex
    verts = sub.points
    for p in B.points:
        assert any(dist(p, v) < 1e-9 for v in verts)


@pytest.mark.parametrize("seed", range(8))
def test_phase1_weight_inequality_random(seed):
    # The spoke sum is bounded by w(H*)/sqrt(eps) for all equation-defined
    # break points, plus one extra spoke for a truncated tail (whose own
    # gap fell short of the defining equation).
    rng = random.Random(seed + 400)
    d = rng.randrange(2, 7)
    pts = [tuple(rng.random() for _ in range(d)) for _ in range(rng.randrange(3, 60))]
    H = ham_for(pts)
    eps = rng.choice([0.25, 0.09, 0.04])
    B = select_breakpoints(H, eps)
    sub = subdivide(H, B)
    s = pts[0]
    spokes = math.fsum(dist(s, q) for q in B.points[1:])
    slack = dist(s, B.points[-1]) if B.truncated else 0.0
    hw = sub.total_length
    assert spokes <= hw / math.sqrt(eps) + slack + 1e-12 * hw


def test_phase1_tail_spoke_can_exceed_bare_bound():
    # Tiny first edge then a long straight run: the truncated tail spoke
    # pushes the spoke sum past w(H*)/sqrt(eps) alone, so the extra tail
    # term in the inequality above is genuinely needed.
    pts = [(0.0, 0.0), (0.001, 0.0)] + [
        (0.001 * (1.3 ** i), 0.0) for i in range(1, 32)
    ]
    H = ham_for(pts)
    eps = 0.04
    B = select_breakpoints(H, eps)
    assert B.truncated
    s = (0.0, 0.0)
    spokes = math.fsum(dist(s, q) for q in B.points[1:])
    hw = H.geometry.total_length
    assert spokes <= hw / math.sqrt(eps) + dist(s, B.points[-1]) + 1e-12
    assert spokes > hw / math.sqrt(eps)

import math
import random

import numpy as np
import pytest
from oracles import unfold

from slt.breakpoints import select_breakpoints, subdivide
from slt.errors import AngleOutOfRange, DegenerateRay
from slt.geometry import Polyline, dist
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst
from slt.unfolding import (
    build_surfaces,
    lift,
    lift_segment,
    unfold_vertex,
)


def surfaces_for(points, eps, root=0):
    pc = PointCloud(tuple(points), root)
    H = dfs_hamiltonian(euclidean_mst(pc), pc)
    B = select_breakpoints(H, eps)
    sub = subdivide(H, B)
    return build_surfaces(sub, pc.points[root]), H, B


def random_surfaces(seed, n=25, d=3, eps=0.09):
    rng = random.Random(seed)
    pts = [tuple(rng.random() for _ in range(d)) for _ in range(n)]
    return surfaces_for(pts, eps)


def test_root_surface_is_degenerate():
    surfs, _, _ = surfaces_for([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.25)
    root_surf = surfs[0]
    assert root_surf.index == 1
    assert root_surf.total_angle == 0.0
    assert root_surf.verts[0] == (0.0, 0.0)


def test_single_cone_angle():
    surfs, _, _ = surfaces_for(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)], 0.25
    )
    # second surface starts at (1,0,0); its first cone spans 45 degrees or less
    s2 = surfs[1]
    assert s2.cones[0].ray_a == (1.0, 0.0, 0.0)
    assert s2.total_angle <= math.pi / 4 + 1e-12


def test_vertex_at_root_rejected():
    from slt.breakpoints import SubdividedPath

    path = Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)))
    sub = SubdividedPath(np.array(path.vertices), np.array([0, 2]), np.arange(3), False)  # one segment, vertices 0..2
    with pytest.raises(DegenerateRay):
        build_surfaces(sub, (0.0, 0.0))


def test_chord_sum_bound_holds_everywhere():
    # Provable form of the per-surface angle budget: the sines of the cone
    # half-angles, summed, stay within sqrt(eps)/(2(1-sqrt(eps))).
    for seed in range(10):
        for eps in (0.25, 0.09, 0.04):
            surfs, _, B = random_surfaces(seed, eps=eps)
            bound = math.sqrt(eps) / (2.0 * (1.0 - math.sqrt(eps)))
            for f in surfs:
                if f.index < 2:
                    continue
                sines = sum(math.sin(c.angle / 2.0) for c in f.cones)
                assert sines <= bound + 1e-9


def test_total_angle_stays_below_pi_for_small_eps():
    for seed in range(10):
        surfs, _, _ = random_surfaces(seed, eps=0.25)
        for f in surfs:
            assert f.total_angle < math.pi / 2


def test_tangent_surface_exceeds_half_sine_constant():
    # A path tangent to a circle around the far break point subtends
    # asin(sqrt(eps)) at the root, above sqrt(eps)/(2(1-sqrt(eps))); the
    # smaller constant holds only for the half-angle sine sum.
    surfs, _, _ = surfaces_for([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.25)
    claimed = math.sqrt(0.25) / (2.0 * (1.0 - math.sqrt(0.25)))
    s2 = surfs[1]
    assert s2.total_angle == pytest.approx(math.pi / 6, rel=1e-12)
    assert s2.total_angle > claimed
    assert s2.total_angle <= math.asin(math.sqrt(0.25)) + 1e-12


def test_unfold_apex_and_first_ray():
    surfs, _, _ = surfaces_for(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)], 0.25
    )
    s2 = surfs[1]
    assert unfold(s2, 0, 0.0, 0.0) == (0.0, 0.0)
    assert unfold(s2, 0, 1.0, 0.0) == (1.0, 0.0)
    assert unfold_vertex(s2, 0) == (1.0, 0.0)


def test_unfold_diagonal_point():
    # cone from (2,0,0) to (2,1,0), one truncated surface at eps 1/4 (the
    # break point would lie 2/sqrt(3) up): far vertex lands at (2,1)
    surfs, _, _ = surfaces_for(
        [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 1.0, 0.0)], 0.25
    )
    s2 = surfs[1]
    assert s2.truncated and len(s2.verts) == 2
    img = unfold_vertex(s2, len(s2.verts) - 1)
    assert img[0] == pytest.approx(2.0, rel=1e-12)
    assert img[1] == pytest.approx(1.0, rel=1e-12)


def test_lift_origin_is_root():
    surfs, _, _ = random_surfaces(1)
    for f in list(surfs)[:5]:
        assert lift(f, (0.0, 0.0)) == f.apex


def test_lift_unfold_roundtrip_random():
    rng = random.Random(99)
    count = 0
    for seed in range(6):
        surfs, _, _ = random_surfaces(seed)
        for f in surfs:
            for _ in range(10):
                j = rng.randrange(len(f.cones))
                cone = f.cones[j]
                theta = rng.random() * cone.angle
                r = rng.random() * 2.0
                q = unfold(f, j, r, theta)
                p = lift(f, q)
                q2_r = dist(p, f.apex)
                assert q2_r == pytest.approx(r, rel=1e-9, abs=1e-12)
                back = lift(f, q)
                assert dist(back, p) == 0.0
                count += 1
    assert count >= 1000


def test_lift_vertex_roundtrip_exact_radius():
    for seed in range(4):
        surfs, _, _ = random_surfaces(seed)
        for f in surfs:
            for j in range(len(f.verts)):
                q = unfold_vertex(f, j)
                p = lift(f, q)
                assert dist(p, f.apex) == pytest.approx(
                    f.vertex_radius(j), rel=1e-12, abs=1e-15
                )
                assert dist(p, f.verts[j]) <= 1e-9 * max(1.0, f.vertex_radius(j))


def test_lift_angle_out_of_range():
    surfs, _, _ = random_surfaces(3)
    f = surfs[1]
    with pytest.raises(AngleOutOfRange):
        lift(f, (math.cos(f.total_angle + 0.2), math.sin(f.total_angle + 0.2)))


def test_source_isometry():
    # planar distance from the origin to any path vertex equals the true
    # distance from the root in R^d
    for seed in range(8):
        surfs, _, _ = random_surfaces(seed, d=5)
        for f in surfs:
            for j in range(len(f.verts)):
                img = unfold_vertex(f, j)
                want = dist(f.apex, f.verts[j])
                assert math.hypot(*img) == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_same_cone_isometry():
    rng = random.Random(17)
    surfs, _, _ = random_surfaces(11, d=4)
    for f in list(surfs)[:8]:
        for j in range(len(f.cones)):
            cone = f.cones[j]
            if cone.angle < 1e-9:
                continue
            for _ in range(5):
                t1, t2 = rng.random() * cone.angle, rng.random() * cone.angle
                r1, r2 = rng.random() * 3, rng.random() * 3
                q1, q2 = unfold(f, j, r1, t1), unfold(f, j, r2, t2)
                p1, p2 = lift(f, q1), lift(f, q2)
                assert dist(p1, p2) == pytest.approx(
                    dist(q1, q2), rel=1e-9, abs=1e-12
                )


def test_lift_segment_within_one_cone():
    surfs, _, _ = random_surfaces(2)
    f = next(s for s in surfs if len(s.cones) >= 1 and s.cones[0].angle > 1e-6)
    q1 = unfold(f, 0, 1.0, 0.2 * f.cones[0].angle)
    q2 = unfold(f, 0, 2.0, 0.8 * f.cones[0].angle)
    poly = lift_segment(f, q1, q2)
    assert len(poly.vertices) == 2
    assert poly.total_length == pytest.approx(dist(q1, q2), rel=1e-9)


def test_lift_segment_crossing_boundary():
    surfs, _, _ = next(
        (s, h, b)
        for (s, h, b) in [random_surfaces(seed, d=3, eps=0.25) for seed in range(20)]
        if any(len(f.cones) >= 2 and min(c.angle for c in f.cones) > 1e-3 for f in s)
    )
    f = next(
        f for f in surfs if len(f.cones) >= 2 and min(c.angle for c in f.cones) > 1e-3
    )
    q1 = unfold(f, 0, 1.5, 0.5 * f.cones[0].angle)
    q2 = unfold(f, 1, 1.2, 0.5 * f.cones[1].angle)
    poly = lift_segment(f, q1, q2)
    assert len(poly.vertices) == 3
    assert poly.total_length == pytest.approx(dist(q1, q2), rel=1e-9)
    # interior vertex sits on the shared boundary ray
    mid = poly.vertices[1]
    boundary_dir = f.cones[0].ray_b
    ang = math.atan2(*reversed(list(unfold_vertex(f, 1))))
    assert ang == pytest.approx(f.cum_angle[1], abs=1e-9)
    r_mid = dist(mid, f.apex)
    along = tuple(
        f.apex[i] + r_mid * (boundary_dir[i] - f.apex[i]) / dist(boundary_dir, f.apex)
        for i in range(len(f.apex))
    )
    assert dist(mid, along) <= 1e-9 * max(1.0, r_mid)


def test_lift_segment_degenerate_point():
    surfs, _, _ = random_surfaces(5)
    f = surfs[1]
    q = unfold(f, 0, 1.0, 0.0)
    poly = lift_segment(f, q, q)
    assert len(poly.vertices) == 1
    assert poly.total_length == 0.0


def test_surfaces_stay_within_the_angle_lemma():
    # At eps 1/4, the largest eps select_breakpoints takes, the half-angle
    # sines of every surface, the truncated tail included, sum to at most
    # c = 1/2, so no surface spans more than 2 asin(c) = pi/3.  On a circle
    # around the root the path winds once around it.
    eps = 0.25
    c = math.sqrt(eps) / (2.0 * (1.0 - math.sqrt(eps)))
    m = 40
    circle = [(0.0, 0.0)] + [
        (math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m)) for j in range(m)
    ]
    clouds = [circle]
    for seed in range(40):
        rng = random.Random(seed)
        d = 2 + seed % 2
        clouds.append([tuple(rng.random() for _ in range(d)) for _ in range(rng.randrange(3, 60))])
    truncated = 0
    for pts in clouds:
        surfs, _, _ = surfaces_for(pts, eps)
        for f in list(surfs)[1:]:
            truncated += f.truncated
            assert sum(math.sin(a / 2.0) for a in f.angles) <= c + 1e-9
            assert f.total_angle <= 2.0 * math.asin(c) + 1e-9
    assert truncated > 0

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import point_at_arc

from slt.breakpoints import SubdividedPath
from slt.errors import AngleOutOfRange, DegenerateRay, DimensionMismatch
from slt.geometry import Polyline, angle_at_apex, dist
from slt.unfolding import FoldedSurface, build_surfaces, lift

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def pts(dim, n):
    return st.lists(
        st.tuples(*[coord] * dim).map(tuple), min_size=n, max_size=n
    )


def test_dist_345():
    assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_dist_identity():
    p = (1.25, -7.5, 3.0)
    assert dist(p, p) == 0.0


def test_dist_unit_simplex_edge():
    assert dist((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist((0.0, 0.0), (1.0, 2.0, 3.0))


def test_angle_orthogonal():
    assert angle_at_apex((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == pytest.approx(
        math.pi / 2, abs=1e-15
    )


def test_angle_45_degrees_in_3d():
    assert angle_at_apex((0.0,) * 3, (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)) == pytest.approx(
        math.pi / 4, abs=1e-15
    )


def test_angle_collinear_same_side():
    assert angle_at_apex((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) == 0.0


def test_angle_degenerate_ray():
    with pytest.raises(DegenerateRay):
        angle_at_apex((1.0, 1.0), (1.0, 1.0), (2.0, 2.0))


def test_angle_tiny_is_accurate():
    # chord form must resolve angles ~1e-8 without cancellation
    t = 1e-8
    got = angle_at_apex((0.0, 0.0), (1.0, 0.0), (math.cos(t), math.sin(t)))
    assert got == pytest.approx(t, rel=1e-6)


def in_span(s, u, v, theta, r):
    """Point at polar (r, theta) in the 2-plane of the rays s->u and s->v.

    theta is measured from s->u toward v.  The construction maps such
    points with ``lift`` on a surface of one cone, as here.
    """
    ang = angle_at_apex(s, u, v)
    surf = FoldedSurface(1, s, (u, v), (ang,), (0.0, ang), False)
    return lift(surf, (r * math.cos(theta), r * math.sin(theta)))


def test_rotate_zero_angle():
    assert in_span((0.0,) * 3, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.0, 2.0) == (
        2.0,
        0.0,
        0.0,
    )


def test_rotate_to_second_ray():
    got = in_span((0.0,) * 3, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), math.pi / 2, 1.0)
    assert dist(got, (0.0, 1.0, 0.0)) < 1e-15


def test_rotate_pi_over_8():
    # expected value from an independent Gram-Schmidt of span{(1,0,0),(1,1,0)}
    got = in_span((0.0,) * 3, (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), math.pi / 8, 1.0)
    want = (math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0)
    assert dist(got, want) < 1e-15


def test_rotate_angle_out_of_range():
    with pytest.raises(AngleOutOfRange):
        in_span((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 1.0)


def test_rotate_antiparallel_rejected():
    # A path edge from (1, 0) to (-1, 0) spans antiparallel rays at the root.
    path = Polyline(((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)))
    with pytest.raises(DegenerateRay):
        build_surfaces(SubdividedPath(path, (0, 2), (0, 1, 2), False), (0.0, 0.0))


def test_point_at_arc_straight():
    path = Polyline(((0.0, 0.0), (4.0, 0.0)))
    assert point_at_arc(path, 1.0) == (1.0, 0.0)


def test_point_at_arc_endpoints():
    path = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    assert point_at_arc(path, 0.0) == (0.0, 0.0)
    assert point_at_arc(path, path.total_length) == (1.0, 1.0)


def test_point_at_arc_second_segment_midpoint():
    path = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    assert point_at_arc(path, 1.5) == (1.0, 0.5)


def test_point_at_arc_out_of_range():
    path = Polyline(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        point_at_arc(path, 2.0)


@settings(max_examples=200, deadline=None)
@given(pts(3, 3))
def test_triangle_inequality(points):
    p, q, r = points
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12 * (dist(p, q) + dist(q, r) + 1)


@settings(max_examples=150, deadline=None)
@given(pts(4, 3))
def test_rotate_full_angle_reaches_second_ray(points):
    s, u, v = points
    if dist(u, s) < 1e-6 or dist(v, s) < 1e-6:
        return
    ang = angle_at_apex(s, u, v)
    if ang < 1e-9 or ang > math.pi - 1e-6:
        return
    got = in_span(s, u, v, ang, dist(s, v))
    assert dist(got, v) <= 1e-9 * max(1.0, dist(s, v))


@settings(max_examples=150, deadline=None)
@given(
    pts(2, 4),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_point_at_arc_is_1_lipschitz(points, f1, f2):
    path = Polyline(tuple(points))
    L1 = f1 * path.total_length
    L2 = f2 * path.total_length
    a = point_at_arc(path, L1)
    b = point_at_arc(path, L2)
    assert dist(a, b) <= abs(L1 - L2) + 1e-9


def test_rotate_radius_preserved():
    s = (2.0, -1.0, 0.5, 3.0)
    u = (3.0, 0.0, 1.0, 3.5)
    v = (2.0, 1.0, 0.0, 2.0)
    for theta in (0.0, 0.3, 0.7):
        got = in_span(s, u, v, theta, 2.5)
        assert dist(got, s) == pytest.approx(2.5, rel=1e-12)

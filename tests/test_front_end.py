"""The array front end against the one-at-a-time oracle: break points, path, surfaces, errors."""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    LoopBreakpoints, LoopPath, as_surfaces, loop_build_surfaces, loop_front_end_stages,
    loop_select_breakpoints, loop_subdivide, loop_surface_inputs, relay_only,
)

import slt.pipeline
from slt.breakpoints import BreakpointSet, SubdividedPath, select_breakpoints, subdivide
from slt.errors import AngleOutOfRange
from slt.geometry import Polyline
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst
from slt.pipeline import _relay_only, assemble_slt, surface_inputs
from slt.unfolding import build_surfaces


def bits(x):
    """Every float of ``x`` as a hex string, to compare bit for bit (signed zeros too)."""
    return [float(v).hex() for v in np.ravel(np.asarray(x, dtype=float))]


def outcome(call):
    """``call()``, or the class and message of what it raises."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001  the error itself is compared
        return type(err), str(err)


def assert_same_front_end(H, eps, root_point):
    """select_breakpoints, subdivide and build_surfaces give the loop's floats, or its error."""
    B, loop_B = outcome(lambda: select_breakpoints(H, eps)), outcome(lambda: loop_select_breakpoints(H, eps))
    if isinstance(loop_B, tuple):
        assert B == loop_B
        return None
    assert len(B) == len(loop_B.raw_positions) and B.truncated == loop_B.truncated
    assert B.segment.tolist() == [p[0] for p in loop_B.raw_positions]
    assert bits(np.stack([B.t, B.arc], 1)) == bits([p[1:] for p in loop_B.raw_positions])
    assert bits(B.points) == bits(loop_B.points)
    sub, loop_sub = subdivide(H, B), loop_subdivide(H, loop_B)
    assert bits(sub.points) == bits(loop_sub.hstar.vertices)
    assert sub.bp_vertex.tolist() == list(loop_sub.bp_vertex)
    assert sub.input_index.tolist() == list(loop_sub.input_index)
    assert float(sub.total_length).hex() == loop_sub.hstar.total_length.hex()
    surfaces = outcome(lambda: build_surfaces(sub, root_point))
    loop = outcome(lambda: loop_build_surfaces(loop_sub, root_point))
    if isinstance(loop, tuple):
        assert surfaces == loop
        return None
    assert_same_rows(surfaces, as_surfaces(loop, loop_sub))
    assert list(surfaces) == loop  # the one-row views are the loop's surfaces
    return surfaces, loop, loop_sub


def assert_same_rows(surfaces, loop):
    assert surfaces.start.tolist() == loop.start.tolist()
    assert surfaces.hstar.tolist() == loop.hstar.tolist()
    assert bits(surfaces.angles) == bits(loop.angles)
    assert bits(surfaces.cum_angle) == bits(loop.cum_angle)
    assert bits(surfaces.points) == bits(loop.points) and bits(surfaces.apex) == bits(loop.apex)
    assert surfaces.truncated == loop.truncated


def _cloud(shape, d, n, seed):
    rng = np.random.default_rng([seed, n, d])
    if shape == "uniform":
        return rng.random((n, d))
    if shape == "lattice":  # ties, and points on rays from the root
        return np.floor(3.0 * rng.random((n, d)))
    # Near a line through the root: the path runs back past it, and break
    # points close in on the root, where quadratic roots fail their residual.
    t = np.arange(n) - (n // 2)
    pts = np.zeros((n, d))
    pts[:, 0] = t + 0.5 * rng.random()
    pts[:, 1:] = 10.0 ** -rng.integers(3, 10) * rng.random((n, d - 1))
    pts[n // 2] = 0.0
    return pts


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["uniform", "lattice", "line"]), st.integers(2, 8), st.integers(2, 40),
       st.sampled_from([0.25, 0.09, 0.04]), st.integers(0, 2**32))
def test_front_end_is_the_loop_bit_for_bit(shape, d, n, eps, seed):
    arr = _cloud(shape, d, n, seed)
    keep = np.unique(arr, axis=0, return_index=True)[1]
    arr = arr[np.sort(keep)]
    if len(arr) < 2:
        return
    root = int(np.argmin(np.abs(arr).sum(1))) if shape == "line" else 0
    pc = PointCloud(tuple(map(tuple, arr.tolist())), root)
    H = dfs_hamiltonian(euclidean_mst(pc), pc)
    assert_same_front_end(H, eps / 8, pc.points[root])


def test_failed_residuals_re_enter_by_bisection_as_the_loop_does(monkeypatch):
    # Paths that run back past the root within 1e-3 to 1e-9 of it: break
    # points close in on the root, quadratic roots there fail their
    # residual, and the scan re-enters by bisection, tens to hundreds of
    # times per path.  At 1e-11 the spacing guard raises, as in the loop.
    import slt.breakpoints

    real, entries = slt.breakpoints._scan, []

    def scan(cur, bisect, *args):
        entries.append(bisect)
        return real(cur, bisect, *args)

    monkeypatch.setattr(slt.breakpoints, "_scan", scan)
    for off in (1e-3, 1e-6, 1e-9, 1e-11):
        for shift in (0.0, 0.3):
            pts = ((0.0, 0.0),) + tuple((i + shift, off) for i in range(-4, 5) if i or shift)
            pc = PointCloud(pts, 0)
            H = dfs_hamiltonian(euclidean_mst(pc), pc)
            for eps in (0.25, 0.04, 0.005):
                entries.clear()
                built = assert_same_front_end(H, eps, pts[0])
                assert (built is None) == (off == 1e-11), (off, shift, eps)
                assert sum(entries) > 0, (off, shift, eps)


def _error_inputs():
    r = random.Random(5)
    return {
        "five-on-a-line": (tuple((float(i), 0.0) for i in range(5)), 2),
        "lattice-3x3x3": (tuple(itertools.product((0.0, 1.0, 2.0), repeat=3)), 13),
        "near-collinear": (tuple((float(t), 1e-7 * r.random(), 1e-7 * r.random()) for t in range(30)), 0),
    }


def _with_oracle_front_end(monkeypatch, call):
    """``call()`` with the pipeline's front-end stages run one element at a time, or its error."""
    with monkeypatch.context() as m:
        for name, stage in loop_front_end_stages().items():
            m.setattr(slt.pipeline, name, stage)
        return outcome(call)


@pytest.mark.parametrize("name", ["five-on-a-line", "lattice-3x3x3", "near-collinear"])
@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04])
def test_builds_raise_what_the_oracle_front_end_raises(name, eps, monkeypatch):
    # A path back through the root, and a core stop outside a thin surface.
    pts, root = _error_inputs()[name]
    pc = PointCloud(pts, root)
    got = outcome(lambda: assemble_slt(pc, eps))
    assert got == _with_oracle_front_end(monkeypatch, lambda: assemble_slt(pc, eps))
    if name == "near-collinear":
        assert got[0] is AngleOutOfRange
    else:
        assert got == (ValueError, "degenerate break point spacing: path passes through the root")


def _made_paths():
    """Sub-paths made by hand: (vertices, break point vertices), each a fault or a zero-length edge."""
    return {
        "vertex at the root": ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 2.0)], [0, 1, 4]),
        "edge through the root": ([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (-2.0, -1.0)], [0, 1, 3]),
        "surface reaching pi": ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.01), (0.0, -1.0)], [0, 1, 4]),
        "pi, then a flat ray": ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.01), (0.0, -1.0),
                                 (0.0, -2.0), (0.0, 2.0)], [0, 1, 4, 6]),
        "a flat ray, then pi": ([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (-2.0, -1.0), (0.0, 1.0),
                                 (-1.0, 0.01), (0.0, -1.0)], [0, 1, 3, 6]),
        "zero-length edges": ([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                               (2.0, 1.0), (2.0, 1.0), (3.0, 1.0)], [0, 1, 2, 4, 7, 8]),
    }


@pytest.mark.parametrize("name", list(_made_paths()))
def test_made_paths_build_the_loops_surfaces_or_raise_its_error(name, monkeypatch):
    verts, bp = _made_paths()[name]
    index = tuple(range(len(verts)))
    loop_sub = LoopPath(Polyline(tuple(verts)), tuple(bp), index, False)
    sub = SubdividedPath(np.array(verts), np.array(bp), np.array(index), False)
    s = verts[0]
    got = outcome(lambda: build_surfaces(sub, s))
    want = outcome(lambda: loop_build_surfaces(loop_sub, s))
    if not isinstance(want, tuple):
        assert_same_rows(got, as_surfaces(want, loop_sub))
        assert list(got) == want
        assert name == "zero-length edges"
        return
    assert got == want
    # A build whose subdivided path is the made one raises the same.
    pc = PointCloud(((0.0, 0.0), (1.0, 0.3), (1.7, 1.2), (0.4, 2.0)), 0)
    with monkeypatch.context() as m:
        m.setattr(slt.pipeline, "subdivide", lambda H, B: sub)
        assert outcome(lambda: assemble_slt(pc, 0.04)) == want
        m.setattr(slt.pipeline, "build_surfaces",
                  lambda sub_, s_: as_surfaces(loop_build_surfaces(loop_sub, s_), loop_sub))
        assert outcome(lambda: assemble_slt(pc, 0.04)) == want


def test_subdivide_matches_each_vertex_once_as_the_loop_does():
    # Two break points within the tolerance of one vertex: the first
    # becomes the vertex, the second is inserted ahead of the next one.
    H = dfs_hamiltonian(euclidean_mst(PointCloud(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)))),
                        PointCloud(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))))
    tol = 1e-12 * 3.0
    for arcs in ([0.0, 1.0, 2.0 - 0.5 * tol, 2.0 + 0.5 * tol, 3.0],
                 [0.0, 1.0, 1.0 + 0.9 * tol, 2.0 + 0.2 * tol, 2.0 + 0.9 * tol, 3.0],
                 [0.0, 1.0, 2.5, 3.0, 3.0]):
        points = [(a, 0.0) for a in arcs]
        positions = tuple((min(int(a), 2), a - min(int(a), 2), a) for a in arcs)
        loop = loop_subdivide(H, LoopBreakpoints(positions, tuple(points), 0.04, False))
        seg, t, arc = (np.array(x) for x in zip(*positions))
        sub = subdivide(H, BreakpointSet(seg, t, arc, np.array(points), 0.04, False))
        assert bits(sub.points) == bits(loop.hstar.vertices)
        assert sub.bp_vertex.tolist() == list(loop.bp_vertex)
        assert sub.input_index.tolist() == list(loop.input_index)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["uniform", "ray", "lattice"])
def test_relayed_segments_are_the_loops(shape, seed):
    # numpy's lengths decide most candidates; those within their error of
    # the margin, such as every segment on a ray from the root, take
    # math.dist, and the result is the loop's, surface by surface.
    rng = random.Random(seed)
    if shape == "ray":
        pts = tuple((0.37 * t, 0.21 * t, 0.05 * t) for t in range(30))
    elif shape == "lattice":
        pts = tuple(map(tuple, itertools.product((0.0, 1.0, 2.0, 3.0), repeat=2)))
    else:
        pts = tuple(tuple(rng.random() for _ in range(3)) for _ in range(60))
    pc = PointCloud(pts, 0)
    for eps in (0.25, 0.04):
        _, _, _, sub, surfaces = slt.pipeline._front_end(pc, eps, 8.0)
        held = surface_inputs(surfaces, sub, pc.root)
        views = list(surfaces)
        loop_sub = LoopPath(None, (), tuple(sub.input_index.tolist()), False)
        inputs_of = loop_surface_inputs(views, loop_sub, pc.root)
        assert [np.flatnonzero(held[a:b]).tolist()
                for a, b in zip(surfaces.start[:-1], surfaces.start[1:])] == inputs_of
        want = [not inputs_of[i] and relay_only(pc.points[0], views, inputs_of, i) for i in range(len(views))]
        assert _relay_only(surfaces, held).tolist() == want
        if shape != "lattice":
            assert any(want) == (shape == "uniform")

import json
import math
import random

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    adjacency, floyd_warshall, heap_dijkstra, kernel_spt, kruskal_mst, oracle_spt, root_stretch,
    tree_distances,
)

import slt.core2d
import slt.metrics
import slt.pipeline
import slt.pyramid
from slt.cli import canonical_dumps, run_cli, write_points
from slt.core2d import CoreInstance, build_core, core_spt
from slt.errors import Disconnected, Unreachable
from slt.metrics import dijkstra, measure, root_paths
from slt.mst_path import PointCloud, SteinerGraph, Tree, euclidean_mst


def test_spt_path_graph_prefix_sums():
    edges = [(i, i + 1, float(i + 1)) for i in range(5)]
    dists, parent = oracle_spt(6, edges, 0)
    assert dists == [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
    assert parent[1:] == [0, 1, 2, 3, 4]


def test_spt_complete_graph_unit_weights():
    edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    dists, _ = oracle_spt(4, edges, 0)
    assert dists == [0.0, 1.0, 1.0, 1.0]


def test_spt_disconnected_raises():
    with pytest.raises(Disconnected):
        oracle_spt(3, [(0, 1, 1.0)], 0)


@pytest.mark.parametrize("seed", range(6))
def test_dijkstra_matches_floyd_warshall(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 60)
    edges = []
    for i in range(1, n):
        edges.append((rng.randrange(i), i, rng.random() + 0.01))
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rng.random() + 0.01))
    fw = floyd_warshall(n, edges)
    for src in range(0, n, max(1, n // 5)):
        dists, _ = kernel_spt(n, edges, src)
        assert np.allclose(dists, fw[src], rtol=1e-12, atol=0)
        assert dists == oracle_spt(n, edges, src)[0]


# Few distinct weights, so that many sums tie; 0 and 1 against 2^53 add
# nothing to a distance, 2^53 + 2 is the next float.
WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 0.1, 0.2, 0.3, 2.0**53])


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, WEIGHTS), max_size=4 * n))
    return n, edges, draw(vertex)


@st.composite
def lattices(draw):
    a, b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    diagonal = draw(st.booleans())
    edges = []
    for x in range(a):
        for y in range(b):
            v = x * b + y
            if x + 1 < a:
                edges.append((v, v + b, 1.0))
            if y + 1 < b:
                edges.append((v, v + 1, 1.0))
            if diagonal and x + 1 < a and y + 1 < b:
                edges.append((v, v + b + 1, math.sqrt(2.0)))
    return a * b, edges, draw(st.integers(0, a * b - 1))


@st.composite
def chains(draw):
    n = draw(st.integers(2, 300))
    order = draw(st.permutations(range(n)))
    edges = [(u, v, draw(WEIGHTS)) for u, v in zip(order, order[1:])]
    return n, edges, draw(st.sampled_from([order[0], order[-1], order[n // 2]]))


@st.composite
def disconnected(draw):
    n, edges, source = draw(random_graphs())
    m, more, _ = draw(random_graphs())
    return n + m, edges + [(u + n, v + n, w) for u, v, w in more], source


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_graphs(), lattices(), chains(), disconnected()))
def test_dijkstra_matches_the_heap(graph):
    # Distances and parents, ties and unreachable vertices (inf, -1) included.
    n, edges, source = graph
    dists, parent = kernel_spt(n, edges, source)
    assert (dists, parent) == heap_dijkstra(n, adjacency(n, edges), source)
    lost = [v for v in range(n) if math.isinf(dists[v])]
    assert all(parent[v] == -1 for v in lost)
    if lost:
        with pytest.raises(Unreachable):
            root_paths(parent, source, lost[:1])


def test_an_edge_that_adds_nothing_keeps_the_heap_parent():
    # 2 is at 2^53 and 1 hangs off it by a weight that rounds to nothing:
    # fl(d(2) + 1) == d(2) == d(1).  The heap settles 2 first and gives 1
    # the parent 2, though (d(2), 2) > (d(1), 1).
    edges = [(0, 2, 2.0**53), (1, 2, 1.0)]
    dists, parent = kernel_spt(3, edges, 0)
    assert dists == [0.0, 2.0**53, 2.0**53]
    assert parent == [-1, 2, 0]
    assert (dists, parent) == heap_dijkstra(3, adjacency(3, edges), 0)


def test_core_spt_raises_on_a_disconnected_core():
    g = build_core(CoreInstance.canonical(0.09, 4))
    last = g.n - 1
    cut = dataclasses.replace(g, edges=[e for e in g.edges if last not in e[:2]])
    with pytest.raises(Disconnected):
        core_spt(cut)


def _hop_depth(parent) -> int:
    """Edges on the longest root path of a parent array; unreached vertices skipped."""
    depth = {}
    for v in range(len(parent)):
        walk = []
        while v not in depth and v >= 0:
            walk.append(v)
            v = parent[v]
        d = depth.get(v, -1)
        for u in reversed(walk):
            d += 1
            depth[u] = d
    return max(depth.values())


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_graphs(), lattices(), chains()))
def test_rounds_stay_within_the_hop_depth(graph):
    n, edges, source = graph
    rounds = []
    real = slt.metrics._relax

    def counted(*args):
        rounds.append(1)
        return real(*args)

    slt.metrics._relax = counted
    try:
        _, parent = kernel_spt(n, edges, source)
    finally:
        slt.metrics._relax = real
    assert 1 <= len(rounds) <= _hop_depth(parent) + 1


def test_rounds_stay_within_the_hop_depth_in_every_build(monkeypatch):
    # One folding, one core2d and one pyramid build; each solve's rounds
    # against its own tree's depth, the solves of ``measure`` on the
    # folding and pyramid trees included.
    seen = []
    relax = slt.metrics._relax

    def counted(*args):
        seen[-1][0] += 1
        return relax(*args)

    def spied(real):
        def solve(*args):
            seen.append([0, 0])
            dists, parent = real(*args)
            seen[-1][1] = _hop_depth(parent)
            return dists, parent
        return solve

    monkeypatch.setattr(slt.metrics, "_relax", counted)
    for module in (slt.pipeline, slt.pyramid, slt.core2d, slt.metrics):
        monkeypatch.setattr(module, "dijkstra", spied(module.dijkstra))
    rng = random.Random(3)
    slt.pipeline.assemble_slt(
        PointCloud(tuple((rng.random(), rng.random(), rng.random()) for _ in range(40))), 0.04
    )
    core_spt(build_core(CoreInstance.canonical(0.04, 12)))
    slt.pyramid.build_pyramid_core(3, 0.09, slt.pyramid.GridSpec.for_points(64, 3))
    assert len(seen) == 5
    assert all(1 <= rounds <= depth + 1 for rounds, depth in seen), seen


def test_a_deep_tree_stops_the_rounds_and_keeps_the_heap_tree(monkeypatch):
    # Points along a ray from the root give a hop per point, and sums that
    # differ in their last bits lower vertices again and again: the rounds
    # stop at 2 log2(2m), and the heap finishes on the heap's tree.
    solves, rounds, settles = [], [], []
    real, relax, settle = slt.pipeline.dijkstra, slt.metrics._relax, slt.metrics._settle

    def solve(n, ends, weights, source):
        out = real(n, ends, weights, source)
        # The counts so far: ``measure``'s own solve of the tree comes later.
        solves.append((n, ends.tolist(), weights.tolist(), source, out, len(rounds), len(settles)))
        return out

    def counted(*args):
        rounds.append(1)
        return relax(*args)

    def settled(*args):
        settles.append(1)
        return settle(*args)

    monkeypatch.setattr(slt.pipeline, "dijkstra", solve)
    monkeypatch.setattr(slt.metrics, "_relax", counted)
    monkeypatch.setattr(slt.metrics, "_settle", settled)
    slt.pipeline.assemble_slt(PointCloud(tuple((0.37 * t, 0.21 * t, 0.05 * t) for t in range(300))), 0.09)
    (n, ends, weights, source, (dists, parent), n_rounds, n_settles), = solves
    edges = [(int(u), int(v), w) for (u, v), w in zip(ends, weights)]
    assert (dists, parent) == heap_dijkstra(n, adjacency(n, edges), source)
    assert n_rounds == 2 * (2 * len(edges)).bit_length() and n_settles == 1
    assert _hop_depth(parent) > 2 * n_rounds


def test_root_paths_keeps_the_walks_to_the_targets_in_ascending_order():
    #       0 (root)
    #      / \
    #     3   1      5 is cut off; 6's walk ends at 5
    #    / \   \
    #   2   4   7
    parent = [-1, 0, 3, 0, 3, -1, 5, 1]
    assert root_paths(parent, 0, [7, 2]) == [0, 1, 2, 3, 7]
    assert root_paths(parent, 0, [4, 2, 4]) == [0, 2, 3, 4]
    assert root_paths(parent, 0, []) == [0]
    assert root_paths(parent, 0, [0]) == [0]
    with pytest.raises(Unreachable):
        root_paths(parent, 0, [1, 6])


def _stretch(coords, edges, weights, vertex_of):
    """``measure``'s per-point stretch of the tree from vertex 0."""
    graph = SteinerGraph(np.array(coords), ["input"] * len(coords))
    tree = Tree(np.array(edges).reshape(-1, 2), np.array(weights, dtype=float), 0)
    return measure(graph, tree, vertex_of, 0.25, 1.0, {}).per_point_stretch


def test_root_stretch_two_points():
    assert _stretch([(0.0, 0.0), (3.0, 4.0)], [(0, 1)], [5.0], [0, 1]) == [1.0, 1.0]


def test_root_stretch_star_is_one():
    rng = random.Random(4)
    coords = [(0.0, 0.0)] + [(rng.random() + 0.1, rng.random()) for _ in range(9)]
    weights = [math.dist(coords[0], coords[i]) for i in range(1, 10)]
    assert _stretch(coords, [(0, i) for i in range(1, 10)], weights, list(range(10))) == [1.0] * 10


@st.composite
def random_trees(draw):
    """(coords, tree): n from 1 to 300, edges in random order, each flipped at random,
    weights the distances between the ends or, at random, 0."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    coords = np.array([(rng.random(), rng.random(), rng.random()) for _ in range(n)])
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    rng.shuffle(edges)
    edges = np.array([(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges], dtype=np.intp)
    weights = np.array([0.0 if rng.random() < 0.1 else math.dist(coords[u], coords[v])
                        for u, v in edges.tolist()])
    return coords, Tree(edges.reshape(-1, 2), weights, order[0])


@settings(max_examples=200, deadline=None)
@given(random_trees())
def test_the_kernel_gives_a_tree_walks_distances_and_stretch(case):
    # The root distances are the walk's floats bit for bit, so the stretch
    # ``measure`` takes from them is the walk's too.
    coords, tree = case
    dists, _ = dijkstra(tree.n, tree.edges, tree.weights, tree.root)
    assert [d.hex() for d in dists] == [d.hex() for d in tree_distances(tree, tree.root)]
    graph = SteinerGraph(coords, ["input"] * tree.n)
    inputs = [v for v in range(tree.n) if v == tree.root or math.dist(coords[v], coords[tree.root]) > 0]
    report = measure(graph, tree, inputs, 0.25, 1.0, {})
    assert report.per_point_stretch == root_stretch(graph, tree, inputs)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_the_kernel_gives_a_tree_walks_distances_on_a_deep_path_and_a_star(shape):
    # A 20,000-vertex path outruns the rounds and ends in the heap.
    n = 20_000
    rng = np.random.default_rng(3)
    ends = np.column_stack([np.arange(n - 1) if shape == "path" else np.zeros(n - 1, int), np.arange(1, n)])
    tree = Tree(ends, rng.random(n - 1), 0)
    dists, _ = dijkstra(n, tree.edges, tree.weights, 0)
    assert dists == tree_distances(tree, 0)


def test_an_edge_that_weighs_inf_cuts_off_the_vertices_past_it():
    # 0 - 1 - 2 = 3 - 4 with edge 2-3 at inf: 3 and 4 are not reached, and
    # no overflow warning is raised on the way.
    tree = Tree(np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), np.array([1.0, 1e308, math.inf, 1.0]), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists, parent = dijkstra(tree.n, tree.edges, tree.weights, 0)
    assert dists == tree_distances(tree, 0) == [0.0, 1.0, 1e308, math.inf, math.inf]
    assert parent[3:] == [-1, -1]


def test_lightness_of_mst_is_one(tmp_path, capsys):
    # slt verify measures lightness as tree weight over MST weight.
    rng = random.Random(11)
    pts = tuple((rng.random(), rng.random(), rng.random()) for _ in range(20))
    mst = euclidean_mst(PointCloud(pts))
    write_points(tmp_path / "pts.json", pts, 0)
    tree = {
        "vertices": [{"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(pts)],
        "edges": mst.edges.tolist(),
        "root": 0,
    }
    (tmp_path / "tree.json").write_text(canonical_dumps(tree))
    run_cli(["verify", "--input", str(tmp_path / "pts.json"),
             "--tree", str(tmp_path / "tree.json"), "--eps", "0.04"])
    assert json.loads(capsys.readouterr().out)["lightness"] == 1.0


def test_kruskal_small():
    pts = ((0.0, 0.0), (3.0, 4.0), (3.0, 5.0))
    t = kruskal_mst(pts)
    assert t.weight == 6.0


def test_scale_invariance_exact():
    # Power-of-two scaling leaves every float decision identical, so both
    # measurements must agree to full precision.
    rng = random.Random(21)
    pts = tuple((rng.random(), rng.random()) for _ in range(15))
    from slt.pipeline import assemble_slt

    _, t1, rep1 = assemble_slt(PointCloud(pts), 0.09)
    scaled = tuple((32.0 * x, 32.0 * y) for x, y in pts)
    _, t2, rep2 = assemble_slt(PointCloud(scaled), 0.09)
    assert rep2.max_stretch == pytest.approx(rep1.max_stretch, rel=1e-12)
    assert rep2.lightness == pytest.approx(rep1.lightness, rel=1e-12)


def test_scale_invariance_inexact_scaling():
    # A non-representable scale factor perturbs shortest-path ties; the
    # stretch is stable but the pruned tree weight may swap between
    # equal-length routes, so lightness only matches loosely.
    rng = random.Random(21)
    pts = tuple((rng.random(), rng.random()) for _ in range(15))
    from slt.pipeline import assemble_slt

    _, t1, rep1 = assemble_slt(PointCloud(pts), 0.09)
    scaled = tuple((37.0 * x, 37.0 * y) for x, y in pts)
    _, t2, rep2 = assemble_slt(PointCloud(scaled), 0.09)
    assert rep2.max_stretch == pytest.approx(rep1.max_stretch, rel=1e-9)
    assert rep2.lightness == pytest.approx(rep1.lightness, rel=1e-3)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(5)
    pts = rng.random((18, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = pts @ q.T + np.array([2.0, -1.0, 0.5])
    from slt.pipeline import assemble_slt

    _, _, rep1 = assemble_slt(PointCloud(tuple(map(tuple, pts))), 0.09)
    _, _, rep2 = assemble_slt(PointCloud(tuple(map(tuple, moved))), 0.09)
    assert rep2.max_stretch == pytest.approx(rep1.max_stretch, rel=1e-6)
    assert rep2.lightness == pytest.approx(rep1.lightness, rel=1e-6)

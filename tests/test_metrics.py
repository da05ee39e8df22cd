import json
import math
import random

import numpy as np
import pytest
from oracles import floyd_warshall, kruskal_mst, oracle_spt

from slt.cli import canonical_dumps, run_cli, write_points
from slt.errors import Disconnected, Unreachable
from slt.metrics import root_paths, root_stretch
from slt.mst_path import PointCloud, Tree, euclidean_mst


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
        dists, _ = oracle_spt(n, edges, src)
        assert np.allclose(dists, fw[src], rtol=1e-12, atol=0)


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


def test_root_stretch_two_points():
    tree = Tree(2, ((0, 1, 5.0),), 0)
    coords = [(0.0, 0.0), (3.0, 4.0)]
    assert root_stretch(tree, coords, 0, [0, 1]) == [1.0, 1.0]


def test_root_stretch_star_is_one():
    rng = random.Random(4)
    coords = [(0.0, 0.0)] + [(rng.random() + 0.1, rng.random()) for _ in range(9)]
    edges = tuple((0, i, math.dist(coords[0], coords[i])) for i in range(1, 10))
    tree = Tree(10, edges, 0)
    assert root_stretch(tree, coords, 0, list(range(10))) == [1.0] * 10


def test_lightness_of_mst_is_one(tmp_path, capsys):
    # slt verify measures lightness as tree weight over MST weight.
    rng = random.Random(11)
    pts = tuple((rng.random(), rng.random(), rng.random()) for _ in range(20))
    mst = euclidean_mst(PointCloud(pts))
    write_points(tmp_path / "pts.json", pts, 0)
    tree = {
        "vertices": [{"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(pts)],
        "edges": [[u, v] for u, v, _ in mst.edges],
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

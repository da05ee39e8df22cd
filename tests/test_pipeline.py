import math
import random

import numpy as np
import pytest

from slt.breakpoints import select_breakpoints, subdivide
from slt.cli import run_cli, write_points, write_tree
from slt.errors import EpsOutOfRange
from slt.geometry import dist
from slt.metrics import adjacency, dijkstra, oracle_spt, tree_distances
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst
from slt.pipeline import FoldingGraph, _prune, _realize, assemble_slt, build_gadget
from slt.unfolding import build_surfaces, lift, lift_segment, unfold_vertex


def circle_cloud(eps, dim=2, seed=None):
    m = math.ceil(math.sqrt(1.0 / eps))
    pts = [
        (math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
        for j in range(m)
    ]
    if dim > 2:
        rng = np.random.default_rng(seed or 0)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        arr = np.zeros((m, dim))
        arr[:, :2] = pts
        arr = arr @ q.T
        pts = [tuple(map(float, row)) for row in arr]
    return PointCloud(tuple(pts), 0)


def random_cloud(n, d, seed):
    rng = random.Random(seed)
    return PointCloud(tuple(tuple(rng.random() for _ in range(d)) for _ in range(n)))


def test_two_points_single_edge():
    g, tree, rep = assemble_slt(PointCloud(((0.0, 0.0), (3.0, 4.0))), 0.04)
    assert len(tree.edges) == 1
    assert rep.max_stretch == 1.0
    assert rep.tree_weight == 5.0


def test_eps_validated():
    pc = random_cloud(5, 2, 1)
    for eps in (0.0, 0.3, -1.0):
        with pytest.raises(EpsOutOfRange):
            assemble_slt(pc, eps)


def surfaces_and_sub(pc, eps_int):
    H = dfs_hamiltonian(euclidean_mst(pc), pc)
    B = select_breakpoints(H, eps_int)
    sub = subdivide(H, B)
    return build_surfaces(sub, pc.points[pc.root]), sub


def test_gadget_empty_surface_is_degenerate():
    pc = random_cloud(12, 3, 3)
    surfs, sub = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    empties = [f for f in surfs if not inputs_of[f.index]]
    assert empties, "expected at least one surface without input points"
    g = build_gadget(empties[0], [], 0.04)
    assert g.degenerate
    assert g.ell_steiner == []


def test_empty_surface_spoke_in_full_graph():
    # a surface without inputs contributes its sub-path plus one direct
    # spoke from the root to its first break point
    pc = random_cloud(12, 3, 3)
    surfs, sub = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    empty = next(f for f in surfs if not inputs_of[f.index] and f.index >= 2)
    G = FoldingGraph()
    root_id = G.add_vertex(pc.points[0], "input")
    vids = [G.add_vertex(v, "break") for v in empty.verts]
    gadget = build_gadget(empty, [], 0.04)
    _realize(G, gadget, vids, root_id, False)
    assert any(
        (u == root_id and v == vids[0]) or (v == root_id and u == vids[0])
        for u, v, _ in G.edges
    )
    # and the sub-path edges are present
    for a, b in zip(vids, vids[1:]):
        assert any((u, v) in ((a, b), (b, a)) for u, v, _ in G.edges)


def _input_locals(pc, surfs):
    out = {}
    s = pc.points[pc.root]
    for f in surfs:
        loc = []
        for j, v in enumerate(f.verts):
            if v == s:
                continue
            if any(v == p for p in pc.points):
                loc.append(j)
        out[f.index] = loc
    return out


def test_gadget_counts_at_eps_004():
    # theta = ceil(sqrt(1/eps)) secondary break points and line points
    pc = random_cloud(30, 2, 5)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    f = next(f for f in surfs if inputs_of[f.index] and f.index >= 2)
    g = build_gadget(f, inputs_of[f.index], 0.04)
    assert len(g.secondary) == 5
    assert len(g.ell_steiner) == 5
    spacing = [b.arc for b in g.secondary]
    want = [q * f_total(f) / 5 for q in range(1, 6)]
    assert spacing == pytest.approx(want, rel=1e-12)


def f_total(f):
    from slt.geometry import Polyline

    return Polyline(f.verts).total_length


def test_gadget_line_geometry():
    pc = random_cloud(30, 3, 8)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    f = next(
        f for f in surfs if inputs_of[f.index] and f.index >= 2 and f.total_angle > 1e-6
    )
    g = build_gadget(f, inputs_of[f.index], 0.04)
    # isosceles: both line endpoints equidistant from the origin
    ra = math.hypot(*g.ell_a)
    rb = math.hypot(*g.ell_b)
    assert ra == pytest.approx(rb, rel=1e-12)
    # the closest input sits on the line, all other inputs on its far side
    r_img = g.vertex_images[g.r_local]
    phi = f.total_angle / 2
    c = r_img[0] * math.cos(phi) + r_img[1] * math.sin(phi)
    for j in inputs_of[f.index]:
        q = g.vertex_images[j]
        assert q[0] * math.cos(phi) + q[1] * math.sin(phi) >= c * (1 - 1e-12)


def test_single_input_direct_path_bound():
    # with one input on the first boundary ray, the planar route through
    # its nearest line point is within one line-spacing of the distance
    pc = random_cloud(30, 2, 5)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    f = next(f for f in surfs if inputs_of[f.index] and f.index >= 2)
    g = build_gadget(f, inputs_of[f.index], 0.04)
    for j in inputs_of[f.index]:
        v_img = g.vertex_images[j]
        v_tilde, steiner_idx = g.assignments[j]
        v_prime = g.ell_steiner[steiner_idx]
        route = math.hypot(*v_prime) + dist(v_prime, v_img)
        direct = math.hypot(*v_img)
        spacing = (
            dist(g.ell_a, g.ell_b) / (len(g.ell_steiner) - 1)
            if len(g.ell_steiner) > 1
            else 0.0
        )
        assert route <= direct + spacing + 1e-12


def test_lifted_edges_preserve_length():
    pc = random_cloud(25, 4, 2)
    g, tree, rep = assemble_slt(pc, 0.09)
    # every edge weight equals the distance of its endpoints
    for u, v, w in g.edges:
        assert w == pytest.approx(dist(g.coords[u], g.coords[v]), rel=1e-12)


def test_planar_image_distance_matches_true_distance():
    pc = random_cloud(40, 6, 13)
    surfs, _ = surfaces_and_sub(pc, 0.01)
    s = pc.points[0]
    for f in surfs:
        for j in range(len(f.verts)):
            img = unfold_vertex(f, j)
            assert math.hypot(*img) == pytest.approx(
                dist(s, f.verts[j]), rel=1e-9, abs=1e-15
            )


def test_lift_segment_length_preservation_in_pipeline():
    pc = random_cloud(20, 3, 4)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    rng = random.Random(0)
    for f in surfs[:10]:
        if f.total_angle < 1e-9:
            continue
        for _ in range(5):
            a = (rng.random() * f.total_angle, rng.random() * 2)
            b = (rng.random() * f.total_angle, rng.random() * 2)
            q1 = (a[1] * math.cos(a[0]), a[1] * math.sin(a[0]))
            q2 = (b[1] * math.cos(b[0]), b[1] * math.sin(b[0]))
            poly = lift_segment(f, q1, q2)
            assert poly.total_length == pytest.approx(dist(q1, q2), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("eps", [0.25, 0.04])
def test_stretch_random_instances(d, eps):
    for seed in range(3):
        pc = random_cloud(30, d, seed * 17 + d)
        _, _, rep = assemble_slt(pc, eps)
        assert rep.max_stretch <= 1 + eps + 1e-12


def test_circle_instance():
    pc = circle_cloud(0.04)
    _, tree, rep = assemble_slt(pc, 0.04)
    assert rep.max_stretch <= 1.04 + 1e-12
    assert rep.lightness > 1.0


def test_dimension_independence_of_circle():
    _, _, rep2 = assemble_slt(circle_cloud(0.04), 0.04)
    _, _, rep8 = assemble_slt(circle_cloud(0.04, dim=8, seed=3), 0.04)
    assert rep8.max_stretch <= 1.04 + 1e-12
    assert rep8.lightness <= 1.2 * rep2.lightness
    assert rep2.lightness <= 1.2 * rep8.lightness


def test_phase1_weight_bound():
    for seed in range(4):
        pc = random_cloud(35, 3, seed + 60)
        _, _, rep = assemble_slt(pc, 0.09)
        eps_int = 0.09 / 8.0
        bound = (1 + 1 / math.sqrt(eps_int)) * 2 * rep.mst_weight
        assert rep.flags["phase1_weight"] <= bound * (1 + 1e-12)


def test_spt_distances_match_all_pairs_oracle():
    pc = random_cloud(8, 2, 3)
    g, tree, rep = assemble_slt(pc, 0.25)
    # recompute on the pruned graph with the plain oracle
    dists, _ = oracle_spt(g.n, g.edges, tree.root)
    td = tree_distances(tree, tree.root)
    for v in range(g.n):
        assert td[v] == pytest.approx(dists[v], rel=1e-12, abs=1e-15)


def test_chord_shortcut_never_worse():
    # Chords shorten every lifted edge, so all shortest-path distances and
    # the stretch can only improve.  The union-of-paths weight may still
    # wobble slightly when cheaper routes shift which edges are shared.
    pc = random_cloud(30, 3, 9)
    _, _, rep = assemble_slt(pc, 0.09)
    _, _, rep_c = assemble_slt(pc, 0.09, chord_shortcut=True)
    assert rep_c.max_stretch <= rep.max_stretch + 1e-12
    assert rep_c.tree_weight <= rep.tree_weight * 1.01


def test_deterministic_rebuild():
    pc = random_cloud(25, 3, 14)
    g1, t1, r1 = assemble_slt(pc, 0.09)
    g2, t2, r2 = assemble_slt(pc, 0.09)
    assert t1.edges == t2.edges
    assert r1.as_dict() == r2.as_dict()


def test_gamma_controls_stretch():
    # The default gamma=8 must land under the budget; smaller values trade
    # lightness for stretch and are allowed to exceed it.
    pc = random_cloud(20, 2, 31)
    results = {}
    for gamma in (1.0, 2.0, 4.0, 8.0):
        _, _, rep = assemble_slt(pc, 0.25, gamma=gamma)
        results[gamma] = (rep.max_stretch, rep.lightness)
    assert results[8.0][0] <= 1.25 + 1e-12
    # stretch should not degrade as gamma grows on this instance
    assert results[8.0][0] <= results[1.0][0] + 1e-9


@pytest.mark.parametrize("d", [2, 3, 8])
def test_lifted_tree_matches_reported_stretch(tmp_path, d):
    # Shortest paths run on planar lengths; the returned tree is lifted.
    # Unfolding is isometric, so the lifted root distances are the planar ones.
    pc = random_cloud(40, d, 70 + d)
    g, tree, rep = assemble_slt(pc, 0.04)
    assert len(tree.edges) == g.n - 1
    td = tree_distances(tree, tree.root)
    s = pc.points[pc.root]
    for i, p in enumerate(pc.points):
        if i != pc.root:
            lifted = td[g.coords.index(p)] / dist(s, p)
            assert lifted == pytest.approx(rep.per_point_stretch[i], rel=1e-12, abs=0.0)
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, pc.points, pc.root)
    write_tree(tree_file, g, tree)
    args = ["verify", "--input", pts_file, "--tree", tree_file, "--eps", "0.04"]
    assert run_cli([str(a) for a in args]) == 0


def test_r_joins_the_cross_line_where_a_base_edge_passes_it():
    # r, the input closest to the root, lies on the cross line.  A core
    # base edge running past its image is split there, so r's vertex gets a
    # planar edge to each end; a surface whose core tree leaves r's image
    # uncovered gets none.
    pc = random_cloud(30, 3, 2)
    surfs, _ = surfaces_and_sub(pc, 0.04 / 8)
    inputs_of = _input_locals(pc, surfs)
    joined = 0
    for f in surfs:
        if f.index < 2 or not inputs_of[f.index]:
            continue
        g = build_gadget(f, inputs_of[f.index], 0.04 / 8)
        if g.core is None:
            continue
        core, r_img = g.core, g.vertex_images[g.r_local]
        ax, ay = g.ell_a
        dx, dy = g.ell_b[0] - ax, g.ell_b[1] - ay

        def along(q):
            return (q[0] - ax) * dx + (q[1] - ay) * dy

        def plane(i):
            return dict(zip(core.input_ids, g.ell_steiner)).get(i) or core.plane_coords(i)

        passes = [
            (plane(u), plane(v)) for u, v, _ in g.core_tree.edges
            if core.levels[u] < 0 and core.levels[v] < 0
            and (along(plane(u)) - along(r_img)) * (along(plane(v)) - along(r_img)) < 0
        ]
        G = FoldingGraph()
        G.add_vertex(pc.points[pc.root], "input")
        vids = [G.add_vertex(v, "break") for v in f.verts]
        _realize(G, g, vids, 0, False)
        r_id = vids[g.r_local]
        ends = {
            G.coords[b if a == r_id else a]
            for a, b in G.planar
            if r_id in (a, b) and G.kinds[b if a == r_id else a] == "ell_steiner"
        }
        assert ends == {q for edge in passes for q in edge}
        joined += bool(passes)
    assert joined > 0


def test_coinciding_lifts_still_give_a_spanning_tree():
    # Gadget vertices a and b sit at one planar point, so their lifts share
    # one returned vertex x.  a hangs off the root and b off c, which closes
    # the cycle root-x-c once lifted; one edge of it must be left out.
    pc = random_cloud(12, 3, 3)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    f = next(f for f in surfs if f.index >= 2 and f.total_angle > 1e-6)
    img0, img1 = unfold_vertex(f, 0), unfold_vertex(f, 1)
    q = (0.5 * img0[0], 0.5 * img0[1])
    qc = (0.5 * img1[0], 0.5 * img1[1])
    G = FoldingGraph()
    root = G.add_vertex(pc.points[pc.root], "input")
    far = [G.add_vertex(v, "break") for v in f.verts[:2]]
    a = G.add_planar(f, q, "ell_steiner")
    b = G.add_planar(f, q, "ell_steiner")
    c = G.add_planar(f, qc, "core_apex")
    G.add_gadget_edge(f, root, (0.0, 0.0), a, q, False)
    G.add_gadget_edge(f, a, q, far[0], img0, False)
    G.add_gadget_edge(f, root, (0.0, 0.0), c, qc, False)
    G.add_gadget_edge(f, c, qc, b, q, False)
    G.add_gadget_edge(f, b, q, far[1], img1, False)
    dists, parent = dijkstra(G.n, adjacency(G.n, G.edges), root)
    assert (parent[a], parent[b], parent[far[1]]) == (root, c, b)
    sub, tree = _prune(G, dists, parent, far, root)
    assert sub.coords.count(lift(f, q)) == 1
    assert len(tree.edges) == sub.n - 1 == len(G.edges) - 1
    assert not any(math.isinf(x) for x in tree_distances(tree, tree.root))


def _scaled(points, scale):
    return PointCloud(tuple(tuple(c * scale for c in p) for p in points))


def test_scale_invariance():
    # Powers of two scale every float exactly, so any disagreement there
    # comes from an absolute tolerance.  Decimal scales also round every
    # coordinate by an ulp, which the break point recurrence amplifies: a
    # one-ulp nudge of every coordinate moves max_stretch by 4e-10 on the
    # d=2 seed 4 cloud, and scaling it by 1e6 by 4.1e-9.
    for d in (2, 3, 5):
        for seed in range(12):
            rng = random.Random(seed)
            base = [tuple(rng.random() for _ in range(d)) for _ in range(30)]
            _, _, ref = assemble_slt(_scaled(base, 1.0), 0.09)
            for scale, rel in ((2.0**-20, 1e-12), (2.0**20, 1e-12), (1e-6, 1e-8), (1e6, 1e-8)):
                _, _, rep = assemble_slt(_scaled(base, scale), 0.09)
                assert rep.max_stretch <= 1.09 + 1e-12
                assert rep.max_stretch == pytest.approx(ref.max_stretch, rel=rel), (d, seed, scale)
                assert rep.lightness == pytest.approx(ref.lightness, rel=rel), (d, seed, scale)

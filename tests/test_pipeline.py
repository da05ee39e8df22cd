import dataclasses
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PlanarGraph, as_folding_graph, chain_bits, chain_of, coord_tuples, gadget_row, kernel_spt, loop_folding_graph,
    loop_prune, made_surfaces, oracle_spt, realize, scalar_chain, scalar_lift, scalar_ray_crossings,
    surface_gadget, tree_distances, triples,
)

from slt.breakpoints import select_breakpoints, subdivide
from slt.cli import canonical_dumps, gen_random, run_cli, write_points, write_tree
from slt.core2d import apex_path, build_core, core_spt, levels_for_eps, portal_grid
from slt.errors import AngleOutOfRange, EmptySurface, EpsOutOfRange
from slt.geometry import angle_at_apex, dist
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst
from slt.pipeline import _front_end, _prune, _realize, assemble_slt, build_gadget, surface_inputs
from slt.unfolding import (
    FoldedSurface, SurfaceRows, Surfaces, build_surfaces, lift, lift_segment, ray_crossings, unfold_vertex
)


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


def inputs_by_surface(surfaces, held):
    """Per surface, the local indices of the slots ``held`` marks."""
    return [np.flatnonzero(held[a:b]).tolist() for a, b in zip(surfaces.start[:-1], surfaces.start[1:])]


def one_gadget(surf, inputs, eps_int, lam=1.25):
    """The batch's gadget on one surface, as the per-surface oracle's record."""
    surfaces, held = made_surfaces([surf], [inputs])
    return gadget_row(build_gadget(surfaces, held, eps_int, lam), surfaces, 0)


def test_gadget_empty_surface_is_degenerate():
    pc = random_cloud(12, 3, 3)
    surfs, sub = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    empties = [f for f in surfs if not inputs_of[f.index]]
    assert empties, "expected at least one surface without input points"
    # such a surface gets no gadget, only its phase-1 edges
    gadgets = build_gadget(*made_surfaces(list(surfs), [inputs_of[f.index] for f in surfs]), 0.04)
    assert gadgets.surface.tolist() == [i for i, f in enumerate(surfs) if inputs_of[f.index]]
    assert not any(f.index - 1 in gadgets.surface.tolist() for f in empties)
    with pytest.raises(ValueError, match="holds no input"):
        surface_gadget(empties[0], [], 0.04)


def test_degenerate_gadget_still_checks_its_surface_and_eps():
    # A surface is checked before eps_int, which is checked with no gadget to build.
    pc = random_cloud(12, 3, 3)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    inputs_of = _input_locals(pc, surfs)
    empty = next(f for f in surfs if not inputs_of[f.index] and f.index >= 2)
    with pytest.raises(EpsOutOfRange):
        build_gadget(*made_surfaces([empty], [[]]), 0.3)
    point = FoldedSurface(empty.index, empty.apex, empty.verts[:1], (), (0.0,), False)
    with pytest.raises(EmptySurface):
        build_gadget(*made_surfaces([point], [[0]]), 0.04)
    with pytest.raises(EmptySurface):
        build_gadget(*made_surfaces([empty, point], [[], [0]]), 0.3)


def _cut_test_clouds():
    rng = random.Random(11)
    clouds = {
        f"random-d{d}": PointCloud(tuple(tuple(rng.random() for _ in range(d)) for _ in range(40)))
        for d in (2, 3, 5, 8)
    }
    clouds["ray"] = PointCloud(tuple((0.37 * t, 0.21 * t, 0.05 * t) for t in range(30)))
    clouds["two-rays"] = PointCloud(
        ((0.0, 0.0),) + tuple((t, 0.5 * t) for t in range(1, 15))
        + tuple((-0.3 * t, 1.0 * t) for t in range(1, 15))
    )
    clouds["near-collinear"] = PointCloud(
        tuple((float(t), 1e-3 * rng.random(), 1e-3 * rng.random()) for t in range(30))
    )
    clouds["lattice-5x5"] = PointCloud(tuple((float(i), float(j)) for i in range(5) for j in range(5)))
    clouds["lattice-3x3x3"] = PointCloud(
        tuple((float(i), float(j), float(k)) for i in range(3) for j in range(3) for k in range(3))
    )
    clouds["circle-40"] = PointCloud(((0.0, 0.0),) + tuple(
        (math.cos(2 * math.pi * j / 40), math.sin(2 * math.pi * j / 40)) for j in range(40)
    ))
    return clouds


def test_left_out_relays_change_no_tree(tmp_path, capsys, monkeypatch):
    # assemble_slt leaves out the phase-1 segments no root path can use; with
    # an infinite margin it keeps every one, which is the full graph.  Both
    # give the same tree file, and reports that differ only in graph size.
    import slt.pipeline

    default = slt.pipeline._CUT_MARGIN
    sizes = ("graph_vertices", "graph_edges", "pruned_vertices")

    def build(pts, eps, margin):
        monkeypatch.setattr(slt.pipeline, "_CUT_MARGIN", margin)
        tree = tmp_path / "tree.json"
        assert run_cli(["build", "--eps", str(eps), "--input", str(pts), "--output", str(tree)]) == 0
        return tree.read_bytes(), json.loads(capsys.readouterr().out)

    def without_sizes(report):
        return {**report, "flags": {k: v for k, v in report["flags"].items() if k not in sizes}}

    kept = {}
    for name, pc in _cut_test_clouds().items():
        pts = tmp_path / f"{name}.json"
        write_points(pts, pc.points, pc.root)
        for eps in (0.25, 0.09, 0.04):
            cut_tree, cut = build(pts, eps, default)
            full_tree, full = build(pts, eps, math.inf)
            assert cut_tree == full_tree, (name, eps)
            assert without_sizes(cut) == without_sizes(full), (name, eps)
            assert all(cut["flags"][k] <= full["flags"][k] for k in sizes), (name, eps)
            kept[name, eps] = cut["flags"]["graph_vertices"] == full["flags"]["graph_vertices"]
    # Points on a ray from the root miss the margin: the whole graph is kept.
    assert all(kept["ray", eps] for eps in (0.25, 0.09, 0.04))
    assert not any(kept["random-d3", eps] for eps in (0.25, 0.09, 0.04))


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
    g = one_gadget(f, inputs_of[f.index], 0.04)
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
    g = one_gadget(f, inputs_of[f.index], 0.04)
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
    g = one_gadget(f, inputs_of[f.index], 0.04)
    # the cross line meets the ray through v where its normal component is r's
    phi = f.total_angle / 2
    r_img = g.vertex_images[g.r_local]
    c = r_img[0] * math.cos(phi) + r_img[1] * math.sin(phi)
    for j in inputs_of[f.index]:
        v_img = g.vertex_images[j]
        ang = math.atan2(v_img[1], v_img[0])
        rr = c / math.cos(ang - phi)
        v_tilde = (rr * math.cos(ang), rr * math.sin(ang))
        steiner_idx = min(
            range(len(g.ell_steiner)), key=lambda i: (dist(g.ell_steiner[i], v_tilde), i)
        )
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
    coords = coord_tuples(g)
    for u, v, w in triples(tree):
        assert w == pytest.approx(dist(coords[u], coords[v]), rel=1e-12)


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
    for f in list(surfs)[:10]:
        if f.total_angle < 1e-9:
            continue
        for _ in range(5):
            a = (rng.random() * f.total_angle, rng.random() * 2)
            b = (rng.random() * f.total_angle, rng.random() * 2)
            q1 = (a[1] * math.cos(a[0]), a[1] * math.sin(a[0]))
            q2 = (b[1] * math.cos(b[0]), b[1] * math.sin(b[0]))
            poly = lift_segment(f, q1, q2)
            assert poly.total_length == pytest.approx(dist(q1, q2), rel=1e-9, abs=1e-12)


def test_gadgets_only_where_an_input_is_and_each_point_lifted_once(monkeypatch):
    # build_gadget runs once per build and makes one gadget per surface
    # holding an input, and every lifted point (kept gadget vertex, placed
    # core stop, bend) is lifted once, all in one batch.
    import slt.pipeline

    calls, lifts = [], []
    build, real_lift = slt.pipeline.build_gadget, SurfaceRows.lift

    def counting_build(surfaces, held, *args):
        gadgets = build(surfaces, held, *args)
        calls.append((gadgets, surfaces, held))
        return gadgets

    def counting_lift(rows, row, q):
        lifts.append(list(zip(row.tolist(), map(tuple, q.tolist()))))
        return real_lift(rows, row, q)

    monkeypatch.setattr(slt.pipeline, "build_gadget", counting_build)
    monkeypatch.setattr(SurfaceRows, "lift", counting_lift)
    g, _, rep = assemble_slt(random_cloud(60, 5, 7), 0.04)
    flags = rep.flags
    [(gadgets, surfaces, held)] = calls
    built = [surfaces[i].index for i in gadgets.surface.tolist()]
    assert gadgets.surface.tolist() == [i for i, inputs in enumerate(inputs_by_surface(surfaces, held)) if inputs]
    assert built == [surfaces[i].index for i in gadgets.surface.tolist()]
    assert len(built) == len(set(built)) == flags["cores"] + flags["zero_width_cores"]
    assert 0 < len(built) < flags["surfaces"]
    [lifted] = lifts
    assert len(set(lifted)) == len(lifted)
    kinds = Counter(g.kinds)
    assert len(lifted) == kinds["ell_steiner"] + kinds["core_apex"] + kinds["bend"]
    assert kinds["bend"] > 0 and kinds["core_apex"] > 0


def test_lift_segment_is_its_lifted_ends_around_the_lifted_crossings():
    # lift_segment's vertices are lift(q1), the lifted ray_crossings and
    # lift(q2), bit for bit; the crossings lie on the glued rays strictly
    # between q1's and q2's, ordered from q1.
    rng = random.Random(3)
    surfs = [f for _, f, _ in _wide_and_flat_surfaces()]
    surfs += [f for _, f, _, _ in _random_surfaces() if f.index % 7 == 2]
    bent = 0

    def polar(r, a):
        return (r * math.cos(a), r * math.sin(a))

    for f in surfs:
        total = f.total_angle
        rays = f.cum_angle[1:-1]
        segments = [(polar(1 + rng.random(), rng.random() * total),
                     polar(1 + rng.random(), rng.random() * total)) for _ in range(3)]
        q = polar(1.5, 0.5 * total)
        segments += [(q, q), ((0.0, 0.0), q), (q, (0.0, 0.0))]
        segments += [(polar(2.0, 0.0), polar(1.0, a)) for a in rays[:2]]  # ends on a ray
        for q1, q2 in segments:
            poly = lift_segment(f, q1, q2)
            if q1 == q2:
                assert poly.vertices == (lift(f, q1),)
                continue
            crossings = ray_crossings(f, q1, q2)
            assert poly.vertices == (lift(f, q1), *(lift(f, p) for p in crossings), lift(f, q2))
            if (0.0, 0.0) in (q1, q2):
                assert crossings == []
                continue
            lo, hi = sorted(math.atan2(p[1], p[0]) for p in (q1, q2))
            angles = [math.atan2(p[1], p[0]) for p in crossings]
            assert len(crossings) == sum(lo + 1e-12 < a < hi - 1e-12 for a in rays) or any(
                abs(a - b) <= 1e-12 for a in rays for b in (lo, hi)
            )
            assert all(min(abs(a - b) for b in rays) <= 1e-12 for a in angles)
            gaps = [dist(q1, p) for p in crossings]
            assert gaps == sorted(gaps)
            bent += bool(crossings)
    assert bent > 0


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
    dists, _ = oracle_spt(g.n, triples(tree), tree.root)
    td = tree_distances(tree, tree.root)
    for v in range(g.n):
        assert td[v] == pytest.approx(dists[v], rel=1e-12, abs=1e-15)


def test_deterministic_rebuild():
    pc = random_cloud(25, 3, 14)
    g1, t1, r1 = assemble_slt(pc, 0.09)
    g2, t2, r2 = assemble_slt(pc, 0.09)
    assert t1.edges.tolist() == t2.edges.tolist()
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
            lifted = td[coord_tuples(g).index(p)] / dist(s, p)
            assert lifted == pytest.approx(rep.per_point_stretch[i], rel=1e-12, abs=0.0)
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, pc.points, pc.root)
    write_tree(tree_file, g, tree)
    args = ["verify", "--input", pts_file, "--tree", tree_file, "--eps", "0.04"]
    assert run_cli([str(a) for a in args]) == 0


def _alone(pc, f, g):
    """Surface f's sub-path and gadget g in a graph of their own, rooted at 0, one at a time."""
    G = PlanarGraph()
    G.add_vertex(pc.points[pc.root], "input")
    vids = [G.add_vertex(v, "break") for v in f.verts]
    realize(G, g, vids, 0)
    return G, vids


def _full_core(g):
    """Gadget g's core built whole and solved.

    Returns the core, its SPT distances, its tree parents, a function
    giving the planar point of a core vertex, and the core's scale
    (canonical lengths per planar length).
    """
    inst = g.core_instance()
    core = build_core(inst)
    tree, dists = core_spt(core)
    parent = {v: u for u, v in tree.edges.tolist()}

    def plane(v):
        return tuple(core.plane[v].tolist())

    return core, dists, parent, plane, 1.0 / dist(inst.apex, inst.base_a)


def test_r_joins_the_cross_line_where_a_base_edge_passes_it():
    # r, the input closest to the root, lies on the cross line.  Where an
    # edge of the core tree's base path runs past r's image, r is put between
    # its ends: r hangs off the portal at one end, or off the root by the core
    # path through the grid vertex there, and the other end hangs off r.  A
    # surface whose core tree leaves r's image uncovered gives r neither.
    pc = random_cloud(30, 3, 2)
    surfs, _ = surfaces_and_sub(pc, 0.04 / 8)
    inputs_of = _input_locals(pc, surfs)
    joined = 0
    for f in surfs:
        if f.index < 2 or not inputs_of[f.index]:
            continue
        g = one_gadget(f, inputs_of[f.index], 0.04 / 8)
        if g.core_instance() is None:
            continue
        core, _, parent, plane, _ = _full_core(g)
        r_img = g.vertex_images[g.r_local]
        ax, ay = g.ell_a
        dx, dy = g.ell_b[0] - ax, g.ell_b[1] - ay

        def along(q):
            return (q[0] - ax) * dx + (q[1] - ay) * dy

        passes = [
            (plane(u), plane(v)) for v, u in parent.items()
            if core.levels[u] < 0 and core.levels[v] < 0
            and (along(plane(u)) - along(r_img)) * (along(plane(v)) - along(r_img)) < 0
        ]
        G, vids = _alone(pc, f, g)
        r_id = vids[g.r_local]
        ends = {
            G.coords[b if a == r_id else a]
            for a, b in G.planar
            if r_id in (a, b) and G.kinds[b if a == r_id else a] == "ell_steiner"
        }
        ends |= {  # the grid vertex at the end of r's core path
            core.point((-1, j))
            for _, (_, core, j, on_grid, _) in G.core_paths.get((0, r_id), ()) if not on_grid
        }
        assert ends == {q for edge in passes for q in edge}
        joined += bool(passes)
    assert joined > 0


@pytest.mark.parametrize("r_first", [True, False], ids=["first", "last"])
def test_r_at_an_end_of_the_cross_line_takes_the_steiner_point(r_first):
    # r on the first (last) boundary ray: the cross line starts (ends) at r's
    # image, so the end Steiner point is r's own vertex and no portal of its
    # own sits there.  That point is the core's end grid vertex, so r hangs
    # off the root by the apex chain above it.
    s, r = (0.0, 0.0), (1.0, 0.0)
    verts = (r, (1.2, 0.1), (1.4, 0.25))
    if not r_first:
        verts = verts[::-1]
    angles = tuple(angle_at_apex(s, a, b) for a, b in zip(verts, verts[1:]))
    surf = FoldedSurface(2, s, verts, angles, (0.0, angles[0], angles[0] + angles[1]), False)
    g = one_gadget(surf, [0, 2], 0.04)
    assert g.r_local == (0 if r_first else 2) and g.core_instance() is not None
    G = PlanarGraph()
    root = G.add_vertex(s, "input")
    vids = [G.add_vertex(v, "input" if j != 1 else "break") for j, v in enumerate(verts)]
    realize(G, g, vids, root)
    r_id, r_img = vids[g.r_local], g.vertex_images[g.r_local]
    assert not any(dist(G.coords[v], r_img) <= 1e-9 for v in G.surface)
    assert len(G.surface) == len(g.ell_steiner) - 1  # every portal but the one at r
    [(_, (_, core, j, on_grid, q_end))] = G.core_paths[(root, r_id)]
    k = core.k
    assert on_grid and j == (0 if r_first else 1 << k) and q_end == r_img
    assert apex_path(k, j, set())[-1] == (k, 0 if r_first else (1 << k) - 1)


def _wide_and_flat_surfaces():
    # A surface of 0.54 rad, so eps_core = total_angle^2 > eps_int, and one
    # along a single ray, whose core has zero width.
    s = (0.0, 0.0)
    for verts in (((1.0, 0.0), (1.2, 0.3), (1.0, 0.6)), ((1.0, 0.0), (1.5, 0.0), (2.0, 0.0))):
        angles = tuple(angle_at_apex(s, a, b) for a, b in zip(verts, verts[1:]))
        cum = (0.0, angles[0], angles[0] + angles[1])
        surf = FoldedSurface(2, s, verts, angles, cum, False)
        yield PointCloud((s,) + verts), surf, [0, 1, 2]


def _random_surfaces():
    for d in (2, 3, 5, 8):
        for eps in (0.25, 0.09, 0.04):
            for seed in range(2):
                pc = random_cloud(30, d, 100 * d + seed)
                surfs, sub = surfaces_and_sub(pc, eps / 8)
                for f, inputs in zip(surfs, inputs_by_surface(surfs, surface_inputs(surfs, sub, pc.root))):
                    yield pc, f, inputs, eps / 8


def test_portals_meet_the_grid_by_integers():
    # portal_grid puts each portal on the grid vertex build_core finds by
    # coordinates.  On the wide surface at a small eps_int the portals are
    # denser than the grid, and some portal hangs off its neighbour.
    wide = [(pc, f, inputs, e) for pc, f, inputs in _wide_and_flat_surfaces() for e in (0.04, 0.005)]
    hung = 0
    for pc, f, inputs, eps_int in wide + list(_random_surfaces()):
        if not inputs:
            continue
        g = one_gadget(f, inputs, eps_int)
        inst = g.core_instance()
        if inst is None:
            continue
        m = len(g.ell_steiner) - 1
        feeds = [portal_grid(x, m, inst.k) for x in range(m + 1)]
        core = build_core(inst)
        grid_of = {v: j for j, v in enumerate(core.grid_ids)}
        assert [on for on, _ in feeds] == [grid_of.get(v, -1) for v in core.input_ids]
        hung += f is wide[0][1] and any(via >= 0 for _, via in feeds)
    assert hung > 0


def _add_planar(G, surf, q, kind):
    """A gadget vertex at the planar point q of surf, as ``realize`` adds one."""
    G.surface[G.n] = surf
    return G.add_vertex(q, kind)


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("first", ["j", "j+1"])
def test_core_paths_into_adjacent_grid_vertices_share_an_apex(j, first):
    # Kept core paths into grid vertices j and j + 1 both run through the
    # last level's apex j, whichever portal vertex is numbered, and so
    # expanded, first.
    s, verts = (0.0, 0.0), ((1.0, 0.0), (1.2, 0.1), (1.4, 0.25))
    angles = tuple(angle_at_apex(s, a, b) for a, b in zip(verts, verts[1:]))
    surf = FoldedSurface(2, s, verts, angles, (0.0, angles[0], angles[0] + angles[1]), False)
    core = scalar_chain(one_gadget(surf, [0, 2], 0.04).core_instance())
    k = core.k
    G = PlanarGraph()
    root = G.add_vertex(s, "input")
    for grid in (j, j + 1) if first == "j" else (j + 1, j):
        q = core.point((-1, grid))
        v = _add_planar(G, surf, q, "ell_steiner")
        G.add_core_path(root, v, core.dists[-1], (surf, core, grid, True, q))
    dists, parent = kernel_spt(G.n, G.edges, root)
    sub, tree, _ = _prune(as_folding_graph(G), dists, parent, [1, 2], root)
    apices = {p for p, kind in zip(coord_tuples(sub), sub.kinds) if kind == "core_apex"}
    assert apices == {lift(surf, core.point((i, j >> (k - i)))) for i in range(1, k + 1)}
    assert len(tree.edges) == sub.n - 1


def test_contracted_cores_keep_the_core_shortest_paths():
    # Every portal is as far from the root through its contracted core as
    # through the core built whole, and each core path it hangs off runs
    # through the points of that core's tree path.
    seen = Counter()
    cases = [(pc, f, inputs, e) for pc, f, inputs in _wide_and_flat_surfaces() for e in (0.04, 0.005)]
    for pc, f, inputs, eps_int in cases + list(_random_surfaces()):
        if not inputs:
            continue
        g = one_gadget(f, inputs, eps_int)
        # without connectors and sub-path edges, only the gadget's core is left
        G, vids = _alone(pc, f, dataclasses.replace(g, secondary=[]))
        edges = [(u, v, w) for u, v, w in G.edges if not {u, v} <= set(vids)]
        dists, _ = kernel_spt(G.n, edges, 0)
        r_id, r_img = vids[g.r_local], g.vertex_images[g.r_local]
        portal = {G.coords[v]: v for v in G.surface}
        ids = [portal.get(q, r_id) for q in g.ell_steiner]  # r's vertex at r's image
        if g.core_instance() is None:
            seen["zero width"] += 1
            assert ids == [r_id] and dists[r_id] == math.hypot(*g.ell_steiner[0])
            continue
        core, core_dists, parent, plane, scale = _full_core(g)
        seen["wide"] += core.k < levels_for_eps(eps_int)
        seen["r at an end"] += r_id in (ids[0], ids[-1])
        seen["on the grid"] += len(set(core.input_ids) & set(core.grid_ids))
        seen["off a neighbour"] += len(core.grid_ids) < len(ids)
        for v, cv in zip(ids, core.input_ids):
            assert dists[v] == pytest.approx(core_dists[cv] / scale, rel=1e-12)
        edges = {frozenset((u, v)) for u, v, _ in core.edges}
        for (_, v), paths in G.core_paths.items():
            for _, (_, chain, j, on_grid, q_end) in paths:
                # the root's path to grid vertex j: edges of the core, as
                # long as the core's SPT path, its apex by the tie rule
                keys = apex_path(chain.k, j, set())
                c = core.grid_ids[j]
                path = [core.root] + [(1 << i) - 1 + a for i, a in keys] + [c]
                assert all(frozenset(e) in edges for e in zip(path, path[1:]))
                assert keys[-1] == (core.k, min(j, (1 << core.k) - 1))
                length = sum(dist(plane(a), plane(b)) for a, b in zip(path, path[1:]))
                assert length == pytest.approx(core_dists[c] / scale, rel=1e-12)
                assert all(chain.point(key) == plane(u) for key, u in zip(keys, path[1:]))
                if v in ids:  # a portal on the tree, on c or one base edge from it
                    x = core.input_ids[ids.index(v)]
                    assert (x == c) if on_grid else frozenset((x, c)) in edges
                else:  # r, on the base edge from c that runs past its image
                    seen["r inside"] += 1
                    assert v == r_id and q_end == r_img and not on_grid
                    assert any(parent[y] == c and core.levels[y] < 0 for y in parent)
    wanted = ("zero width", "wide", "r at an end", "on the grid", "r inside", "off a neighbour")
    assert all(seen[case] > 0 for case in wanted), seen


def test_coinciding_lifts_still_give_a_spanning_tree():
    # Gadget vertices a and b sit at one planar point.  a hangs off the
    # root and b off c; once lifted they stay two vertices at one point,
    # each on its own root path, so no edge closes a cycle or is left out.
    pc = random_cloud(12, 3, 3)
    surfs, _ = surfaces_and_sub(pc, 0.04)
    f = next(f for f in surfs if f.index >= 2 and f.total_angle > 1e-6)
    img0, img1 = unfold_vertex(f, 0), unfold_vertex(f, 1)
    q = (0.5 * img0[0], 0.5 * img0[1])
    qc = (0.5 * img1[0], 0.5 * img1[1])
    G = PlanarGraph()
    root = G.add_vertex(pc.points[pc.root], "input")
    far = [G.add_vertex(v, "break") for v in f.verts[:2]]
    a = _add_planar(G, f, q, "ell_steiner")
    b = _add_planar(G, f, q, "ell_steiner")
    c = _add_planar(G, f, qc, "ell_steiner")
    G.add_gadget_edge(f, root, (0.0, 0.0), a, q)
    G.add_gadget_edge(f, a, q, far[0], img0)
    G.add_gadget_edge(f, root, (0.0, 0.0), c, qc)
    G.add_gadget_edge(f, c, qc, b, q)
    G.add_gadget_edge(f, b, q, far[1], img1)
    dists, parent = kernel_spt(G.n, G.edges, root)
    assert (parent[a], parent[b], parent[far[1]]) == (root, c, b)
    sub, tree, _ = _prune(as_folding_graph(G), dists, parent, far, root)
    assert coord_tuples(sub).count(lift(f, q)) == 2
    assert len(tree.edges) == sub.n - 1 == len(G.edges)
    assert not any(math.isinf(x) for x in tree_distances(tree, tree.root))


def _scaled(points, scale):
    return PointCloud(tuple(tuple(c * scale for c in p) for p in points))


def test_scale_invariance():
    # Powers of two scale every float exactly, so any disagreement there
    # comes from an absolute tolerance.  Decimal scales also round every
    # coordinate by an ulp, which the break point recurrence amplifies: a
    # one-ulp nudge of every coordinate moves max_stretch by 4e-10 on the
    # d=2 seed 4 cloud, and scaling it by 1e6 by 4.1e-9.  At 2^-25 every
    # cloud builds the tree of scale 1, and so does d=3 seed 0 at 2^-30,
    # whose graph once grew from 660 to 677 vertices there.
    for d in (2, 3, 5):
        for seed in range(12):
            rng = random.Random(seed)
            base = [tuple(rng.random() for _ in range(d)) for _ in range(30)]
            _, _, ref = assemble_slt(_scaled(base, 1.0), 0.09)
            exact = (2.0**-25, 2.0**-30) if (d, seed) == (3, 0) else (2.0**-25,)
            for scale in exact:
                _, _, rep = assemble_slt(_scaled(base, scale), 0.09)
                for key in ("max_stretch", "lightness"):
                    assert getattr(rep, key) == getattr(ref, key), (d, seed, scale, key)
                assert rep.flags["graph_vertices"] == ref.flags["graph_vertices"], (d, seed, scale)
            for scale, rel in ((2.0**-20, 1e-12), (2.0**20, 1e-12), (1e-6, 1e-8), (1e6, 1e-8)):
                _, _, rep = assemble_slt(_scaled(base, scale), 0.09)
                assert rep.max_stretch <= 1.09 + 1e-12
                assert rep.max_stretch == pytest.approx(ref.max_stretch, rel=rel), (d, seed, scale)
                assert rep.lightness == pytest.approx(ref.lightness, rel=rel), (d, seed, scale)


# Small folding inputs whose tree file sha256 was computed before the gadget
# stage, the surfaces and the lift were rewritten to skip per-element calls,
# with the branches of the rewritten code that each reaches.
FOLDING_PINS = [
    ((("gen", "random", "--n", 8, "--dim", 2, "--seed", 18), 0.25),
     "da648f140e2a2e03f324056daa27938b06e6abd7a15293bce9731f8d27731ded",
     {"portal at r", "r joined", "secondary at a vertex", "several inputs", "two in a row"}),
    ((tuple((float(t), 0.0) for t in range(6)), 0.25),
     "38ba26402b4008a333478ab5f27f7a5d54c99283d103adff1c22f6bb2024d822",
     {"zero width", "portal at r", "secondary at a vertex", "two in a row"}),
]


def test_folding_pins_reach_every_rewritten_branch(tmp_path, capsys, monkeypatch):
    # Each branch is read off the batch of gadgets and the graph it makes.
    import hashlib

    import slt.pipeline

    real_build, real_realize = slt.pipeline.build_gadget, slt.pipeline._realize
    hit = set()

    def build(surfaces, held, *args):
        gadgets = real_build(surfaces, held, *args)
        rows = gadgets.surface.tolist()
        inputs_of = inputs_by_surface(surfaces, held)
        if any(len(inputs_of[i]) > 1 for i in rows):
            hit.add("several inputs")
        if (gadgets.at_vertex >= 0).any():
            hit.add("secondary at a vertex")
        if not gadgets.core.all():
            hit.add("zero width")
        if any(b - a == 1 for a, b in zip(rows, rows[1:])):
            hit.add("two in a row")
        return gadgets

    def realize(pts, sub, surfaces, held, gadgets):
        G = real_realize(pts, sub, surfaces, held, gadgets)
        for g, surf in enumerate(surfaces[i] for i in gadgets.surface.tolist()):
            r_local = int(gadgets.r_local[g])
            r_img = gadgets.vertex_images[g, r_local].tolist()
            steiner = gadgets.ell_steiner[g, :1 if gadgets.flat[g] else None].tolist()
            if any(dist(q, r_img) <= 1e-12 * math.hypot(*r_img) for q in steiner):
                hit.add("portal at r")
                continue
            # Without a portal at r, r's vertex meets a portal only by a
            # secondary at r's vertex, or once a split base edge joins it.
            r_id = sub.input_index[surf.hstar[r_local]]
            portals = np.flatnonzero(G.vertex_gadget == g).tolist()  # by Steiner point
            fed = {portals[x] for x, at in zip(gadgets.steiner[g].tolist(), gadgets.at_vertex[g].tolist())
                   if at == r_local}
            for (u, v), e_g, grid in zip(G.ends.tolist(), G.edge_gadget.tolist(), G.edge_grid.tolist()):
                other = v if u == r_id else u if v == r_id else None
                if other is not None and e_g == g and (grid >= 0 or other in portals and other not in fed):
                    hit.add("r joined")
        return G

    monkeypatch.setattr(slt.pipeline, "build_gadget", build)
    monkeypatch.setattr(slt.pipeline, "_realize", realize)
    reached = set()
    for (points, eps), sha, branches in FOLDING_PINS:
        pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
        if points[0] == "gen":
            assert run_cli([str(a) for a in (*points, "--output", pts)]) == 0
        else:
            write_points(pts, points, 0)
        hit.clear()
        assert run_cli(["build", "--eps", str(eps), "--input", str(pts), "--output", str(tree)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(tree.read_bytes()).hexdigest() == sha
        assert hit == branches, points
        reached |= hit
    assert reached == {"zero width", "portal at r", "r joined", "secondary at a vertex",
                       "several inputs", "two in a row"}


def _batch_graph(pc, eps, gamma=8.0, lam=1.25):
    """The folding graph ``assemble_slt`` solves, and its gadgets."""
    eps_int, _, _, sub, surfaces = _front_end(pc, eps, gamma, lam)
    held = surface_inputs(surfaces, sub, pc.root)
    gadgets = build_gadget(surfaces, held, eps_int, lam)
    return _realize(pc, sub, surfaces, held, gadgets), gadgets, surfaces


def assert_same_graph(batch, loop):
    """Bit for bit: vertices, edges in order, planar segments, core paths, gadget surfaces."""
    for name in ("kind", "points", "plane", "ends", "weights", "vertex_gadget", "edge_gadget", "edge_plane",
                 "edge_grid", "edge_on"):
        b, o = getattr(batch, name), getattr(loop, name)
        assert b.shape == o.shape and b.astype(o.dtype).tobytes() == o.tobytes(), name
    for name in ("apex", "verts", "n_verts", "cum_angle", "angles"):
        b, o = getattr(batch.rows, name), getattr(loop.rows, name)
        assert b.shape == o.shape and b.tobytes() == o.tobytes(), name
    for g in sorted(set(batch.edge_gadget[batch.edge_grid >= 0].tolist())):
        rows = (chain_of(G.chains, G.chain_row[g]) for G in (batch, loop))
        assert chain_bits(next(rows)) == chain_bits(next(rows)), g


def _exact_cases():
    rng = random.Random(24)
    clouds = [(name, pc, eps) for name, pc in _cut_test_clouds().items() for eps in (0.25, 0.09, 0.04)]
    for i, ((points, eps), _, _) in enumerate(FOLDING_PINS):
        if points[0] == "gen":  # ("gen", "random", "--n", n, "--dim", d, "--seed", seed)
            points = gen_random(points[3], points[5], points[7])[0]
        clouds.append((f"pin-{i}", PointCloud(points), eps))
    clouds += [("ray-2d", PointCloud(tuple((0.3 * t, 0.7 * t) for t in range(25))), eps)
               for eps in (0.25, 0.09, 0.04)]
    clouds += [(f"uniform-d{d}", PointCloud(tuple(tuple(rng.random() for _ in range(d))
                                                  for _ in range(60))), eps)
               for d in (2, 3, 5, 8) for eps in (0.25, 0.09, 0.04)]
    return [pytest.param(pc, eps, id=f"{name}-{eps}") for name, pc, eps in clouds]


@pytest.mark.parametrize("pc,eps", _exact_cases())
def test_batched_folding_graph_is_the_loop_bit_for_bit(pc, eps):
    # The batch of gadgets and its graph against the per-surface oracle:
    # every gadget row, every vertex and edge in order, bit for bit.
    batch, gadgets, surfaces = _batch_graph(pc, eps)
    loop, _, rows = loop_folding_graph(pc, eps)
    assert [gadget_row(gadgets, surfaces, g) for g in range(len(gadgets))] == rows
    assert_same_graph(batch, as_folding_graph(loop))


def _surface_alone(f, inputs, eps_int):
    """Surface f's sub-path and gadget in a graph of their own, by the batch and the loop.

    Vertex 0 is the root and vertex j + 1 is f's vertex j, all inputs.
    """
    verts = f.verts
    pc = PointCloud((f.apex,) + verts)
    surfaces, held = made_surfaces([f], [inputs])
    surfaces = dataclasses.replace(surfaces, points=np.array(pc.points), hstar=np.arange(1, pc.n))
    sub = SimpleNamespace(input_index=np.arange(pc.n), points=np.array(pc.points))
    batch = _realize(pc, sub, surfaces, held, build_gadget(surfaces, held, eps_int))
    G = PlanarGraph()
    for p in pc.points:
        G.add_vertex(p, "input")
    realize(G, surface_gadget(f, inputs, eps_int), list(range(1, pc.n)), 0)
    return batch, as_folding_graph(G)


def test_batched_gadget_on_made_surfaces_is_the_loop_bit_for_bit():
    # The wide and flat surfaces, and r on either end of the cross line:
    # cores shallower than eps_int asks for, zero width, a portal at r.
    s, verts = (0.0, 0.0), ((1.0, 0.0), (1.2, 0.1), (1.4, 0.25))
    surfaces = [(f, inputs) for _, f, inputs in _wide_and_flat_surfaces()]
    for vs in (verts, verts[::-1]):
        angles = tuple(angle_at_apex(s, a, b) for a, b in zip(vs, vs[1:]))
        surfaces.append((FoldedSurface(2, s, vs, angles, (0.0, angles[0], angles[0] + angles[1]), False),
                         [0, 2]))
    for f, inputs in surfaces:
        for eps_int in (0.04, 0.005):
            for held in (inputs, inputs[1:], inputs[-1:]):
                assert_same_graph(*_surface_alone(f, held, eps_int))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.sampled_from([0.25, 0.09, 0.04]), st.integers(2, 14), st.integers(0, 2**32))
def test_batched_folding_graph_is_the_loop_on_small_clouds(d, eps, n, seed):
    rng = random.Random(seed)
    pc = PointCloud(tuple(tuple(rng.random() for _ in range(d)) for _ in range(n)))
    batch, _, _ = _batch_graph(pc, eps)
    assert_same_graph(batch, as_folding_graph(loop_folding_graph(pc, eps)[0]))


def _with_loop_prune(pc, eps, monkeypatch):
    """``assemble_slt`` twice: as it is, and with the oracle's one-at-a-time ``_prune``."""
    import slt.pipeline

    batch = assemble_slt(pc, eps)
    made, real_build = [], slt.pipeline.build_gadget

    def build(surfaces, *args):
        gadgets = real_build(surfaces, *args)
        made.append([surfaces[i] for i in gadgets.surface.tolist()])
        return gadgets

    monkeypatch.setattr(slt.pipeline, "build_gadget", build)
    monkeypatch.setattr(slt.pipeline, "_prune", lambda G, *args: loop_prune(G, made[-1], *args))
    return batch, assemble_slt(pc, eps)


def assert_same_tree(batch, loop, tmp_path):
    """Bit for bit: the tree file, the kinds, the edges in order with their weights, the report."""
    (g1, t1, r1), (g2, t2, r2) = batch, loop
    write_tree(tmp_path / "batch.json", g1, t1)
    write_tree(tmp_path / "loop.json", g2, t2)
    assert (tmp_path / "batch.json").read_bytes() == (tmp_path / "loop.json").read_bytes()
    assert g1.kinds == g2.kinds and t1.root == t2.root
    assert g1.coords.tobytes() == g2.coords.tobytes()
    assert [(u, v, w.hex()) for u, v, w in triples(t1)] == [(u, v, w.hex()) for u, v, w in triples(t2)]
    assert canonical_dumps(r1.as_dict()) == canonical_dumps(r2.as_dict())


@pytest.mark.parametrize("pc,eps", _exact_cases())
def test_batched_prune_is_the_loop_bit_for_bit(pc, eps, monkeypatch, tmp_path):
    # The tree lifted at once against the one-vertex-at-a-time oracle.
    assert_same_tree(*_with_loop_prune(pc, eps, monkeypatch), tmp_path)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.sampled_from([0.25, 0.09, 0.04]), st.integers(2, 14), st.integers(0, 2**32))
def test_batched_prune_is_the_loop_on_small_clouds(d, eps, n, seed):
    rng = random.Random(seed)
    pc = PointCloud(tuple(tuple(rng.random() for _ in range(d)) for _ in range(n)))
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as tmp:
        assert_same_tree(*_with_loop_prune(pc, eps, monkeypatch), Path(tmp))


def _lift_test_surfaces():
    """Per cloud, its surfaces: random clouds in d = 2, 3, 5, 8, a near-collinear one, the made ones."""
    out = []
    for d in (2, 3, 5, 8):
        for eps in (0.25, 0.04):
            surfs, _ = surfaces_and_sub(random_cloud(40, d, 7 * d), eps / 8)
            out.append(list(surfs))
    rng = random.Random(3)
    near = PointCloud(tuple((float(t), 1e-3 * rng.random(), 1e-3 * rng.random()) for t in range(30)))
    out.append(list(surfaces_and_sub(near, 0.04 / 8)[0]))
    out += [[f] for _, f, _ in _wide_and_flat_surfaces()]
    return out


_LIFT_SURFACES = _lift_test_surfaces()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_LIFT_SURFACES) - 1), st.integers(1, 40), st.integers(0, 2**32),
       st.sampled_from([0.0, 0.05, 0.5]))
def test_batched_lift_and_crossings_are_the_scalar_code_bit_for_bit(cloud, m, seed, off):
    # Rows on random surfaces of one cloud (a build's root surface among
    # them): polar angles inside, on a ray, at either end and (with
    # probability ``off``) past an end, within the 1e-9 slack or beyond
    # it; the origin, signed zeros too; segments across rays and from the
    # origin.  The batch gives the scalar lift's and ray_crossings'
    # floats, or raises what the first faulty row does.
    surfaces = _LIFT_SURFACES[cloud]
    rng = random.Random(seed)

    def point(f):
        total, u = f.total_angle, rng.random()
        if u < 0.05:
            return rng.choice([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
        if u < off:
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -1) + (total if u > off / 2 else 0.0)
        else:
            a = rng.choice([0.0, total, rng.choice(f.cum_angle), rng.uniform(0.0, total),
                            rng.uniform(0.0, total)])
        r = 10.0 ** rng.uniform(-3, 3)
        return (r * math.cos(a), r * math.sin(a))

    row = [rng.randrange(len(surfaces)) for _ in range(m)]
    q1 = [point(surfaces[i]) for i in row]
    q2 = [point(surfaces[i]) for i in row]
    rows = Surfaces.of(surfaces[0].apex, surfaces).rows()
    want, fault = [], None
    for i, q in zip(row, q1):
        try:
            want.append(scalar_lift(surfaces[i], q))
        except AngleOutOfRange as err:
            fault = (i, q, str(err))
            break
    if fault is None:
        assert list(map(hexed, rows.lift(np.array(row), np.array(q1)).tolist())) == list(map(hexed, want))
        assert [hexed(lift(surfaces[i], q)) for i, q in zip(row, q1)] == list(map(hexed, want))
    else:
        i, q, message = fault
        for batch in (lambda: rows.lift(np.array(row), np.array(q1)), lambda: lift(surfaces[i], q)):
            with pytest.raises(AngleOutOfRange) as err:
                batch()
            assert str(err.value) == message
    seg, bends = rows.crossings(np.array(row), np.array(q1), np.array(q2))
    want = [(k, p) for k, (i, a, b) in enumerate(zip(row, q1, q2))
            for p in scalar_ray_crossings(surfaces[i], a, b)]
    assert [(k, hexed(p)) for k, p in zip(seg.tolist(), bends.tolist())] == [(k, hexed(p)) for k, p in want]
    for i, a, b in zip(row, q1, q2):
        assert list(map(hexed, ray_crossings(surfaces[i], a, b))) == list(map(hexed, scalar_ray_crossings(
            surfaces[i], a, b)))


def hexed(p):
    """A point's coordinates as hex strings, to compare floats bit for bit."""
    return tuple(float(x).hex() for x in p)


def test_a_folding_build_leaves_the_base_points_unchecked(monkeypatch):
    # build_gadget puts the Steiner points on the core's base, and the core
    # chain reads only the triangle, so a build checks no base point.  A
    # CoreInstance with base points still checks each.
    import slt.core2d

    calls = []
    real = slt.core2d._dist_to_segment

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slt.core2d, "_dist_to_segment", counting)
    _, _, rep = assemble_slt(random_cloud(60, 5, 7), 0.04)
    assert rep.flags["cores"] > 0 and calls == []
    inst = slt.core2d.CoreInstance.canonical(0.04, 3)
    calls.clear()
    with pytest.raises(ValueError, match="base point off the base segment"):
        dataclasses.replace(inst, base_points=inst.base_points + ((0.0, 0.01),))
    assert len(calls) == 4

import math
import random

import numpy as np
import pytest
from oracles import chain_bits, core_metrics, scalar_chain

import slt.pipeline
from slt.core2d import (
    CoreChain,
    CoreInstance,
    build_core,
    core2d_points,
    core_chains,
    core_layout,
    core_spt,
    levels_for_eps,
    portal_grid,
)
from slt.errors import AngleOverflow, EpsOutOfRange, SltError
from slt.geometry import angle_at_apex, dist
from slt.mst_path import PointCloud
from slt.pipeline import assemble_core2d


def built(eps, n_base=8, lam=1.25):
    g = build_core(CoreInstance.canonical(eps, n_base, lam))
    tree, dists = core_spt(g)
    return g, tree, dists, core_metrics(g, tree, dists)


def test_levels_and_angles_eps_004():
    assert levels_for_eps(0.04) == 4
    g, *_ = built(0.04)
    want = [0.2 * 1.25**i for i in range(5)]
    assert want == pytest.approx([0.2, 0.25, 0.3125, 0.390625, 0.48828125])
    for i in range(1, g.k + 1):
        apexes = [v for v in range(g.n) if g.levels[v] == i]
        assert len(apexes) == 2**i
    assert want[-1] < math.pi / 2


def test_constructed_apex_angles_match_schedule():
    g, *_ = built(0.04)
    # every level-i triangle has apex angle alpha*lam^i by construction
    for i in range(1, g.k + 1):
        apexes = sorted(
            (v for v in range(g.n) if g.levels[v] == i),
            key=lambda v: g.coords[v][0],
        )
        width = g.coords[g.grid_ids[-1]][0] - g.coords[g.grid_ids[0]][0]
        half = width / 2 ** (i + 1)
        for j, v in enumerate(apexes):
            cx = g.coords[v][0]
            a = (cx - half, 0.0)
            b = (cx + half, 0.0)
            got = angle_at_apex(g.coords[v], a, b)
            assert got == pytest.approx(0.2 * 1.25**i, rel=1e-9)


def test_final_base_length_below_half_eps():
    g, *_ = built(0.04)
    grid = [g.coords[v] for v in g.grid_ids]
    for a, b in zip(grid, grid[1:]):
        assert dist(a, b) == pytest.approx(2 * math.sin(0.1) / 16, rel=1e-9)
        assert dist(a, b) < 0.04 / 2


def test_apex_distance_closed_form():
    # distance from a base corner to its level apex:
    # sin(alpha/2) / (2^i sin(alpha lam^i / 2))
    g, *_ = built(0.04)
    alpha, lam = g.alpha, g.lam
    for i in range(1, g.k + 1):
        apexes = sorted(
            (v for v in range(g.n) if g.levels[v] == i),
            key=lambda v: g.coords[v][0],
        )
        v = apexes[0]
        width = g.coords[g.grid_ids[-1]][0] - g.coords[g.grid_ids[0]][0]
        corner = (g.coords[v][0] - width / 2 ** (i + 1), 0.0)
        want = math.sin(alpha / 2) / (2**i * math.sin(alpha * lam**i / 2))
        assert dist(g.coords[v], corner) == pytest.approx(want, rel=1e-9)


def test_single_midpoint_base_point_distance_equals_chain():
    eps = 0.04
    g = build_core(CoreInstance.canonical(eps, 1))
    tree, dists = core_spt(g)
    # the lone base point sits at the base midpoint, a grid vertex
    target = g.input_ids[0]
    assert g.coords[target][0] == pytest.approx(0.0, abs=1e-12)
    want = math.fsum(g.chain)
    assert dists[target] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04, 0.01])
def test_level_weight_bounds(eps):
    g, tree, dists, rep = built(eps, n_base=64)
    for total, bound in zip(rep.level_totals, rep.level_bounds):
        assert total <= bound + 1e-9
    assert rep.chain_total <= rep.chain_bound + 1e-9
    assert rep.chain_bound == pytest.approx(20.0)


@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04, 0.01])
def test_slack_bounds(eps):
    *_, rep = built(eps, n_base=64)
    for s, b in zip(rep.slack, rep.slack_bounds):
        assert -1e-12 <= s <= b + 1e-9


@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04, 0.01])
def test_stretch_within_budget(eps):
    *_, rep = built(eps, n_base=64)
    assert rep.max_stretch <= 1.0 + eps
    # grid vertices obey the chain bound divided by the height
    alpha = math.sqrt(eps)
    bound = (math.cos(alpha / 2) + alpha**2 / (2 * (2 - 1.25))) / math.cos(alpha / 2)
    assert max(rep.grid_stretch) <= bound + 1e-9


@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04, 0.01])
def test_lightness_bound(eps):
    *_, rep = built(eps, n_base=64)
    assert rep.lightness <= rep.lightness_bound + 1e-9
    assert rep.mst_weight >= math.cos(math.sqrt(eps) / 2) - 1e-12


def test_larger_growth_bound_exceeds_budget():
    # With growth factor 3/2 the closed-form stretch bound crosses 1+eps,
    # so that parameter cannot be certified; measurements are still taken.
    for eps in (0.25, 0.09, 0.04, 0.01):
        alpha2 = eps
        lam = 1.5
        bound = 1 + (alpha2 / (2 * (2 - lam)) + alpha2 / 4) / (1 - alpha2 / 8)
        assert bound > 1 + eps
        g = build_core(CoreInstance.canonical(eps, 16, lam))
        tree, dists = core_spt(g)
        rep = core_metrics(g, tree, dists)
        # report, not assert: stash the measurement for humans
        print(f"eps={eps} lam=1.5 measured stretch {rep.max_stretch:.6f}")


def test_angle_overflow():
    with pytest.raises(AngleOverflow):
        build_core(CoreInstance.canonical(0.7, 4, lam=1.9))


def test_eps_range_validated():
    with pytest.raises(EpsOutOfRange):
        CoreInstance.canonical(1.2, 4)
    with pytest.raises(ValueError):
        CoreInstance.canonical(0.04, 4, lam=2.5)


def test_non_isosceles_rejected():
    with pytest.raises(ValueError):
        CoreInstance((0.0, 1.0), (-0.5, 0.0), (0.7, 0.0), (), 0.04)


def test_rescaled_instance_matches_canonical():
    # same construction after a similarity transform of the triangle
    inst = CoreInstance.canonical(0.04, 5)
    import math as m

    c, s = m.cos(0.7), m.sin(0.7)

    def move(p):
        x, y = 3.0 * p[0], 3.0 * p[1]
        return (c * x - s * y + 10.0, s * x + c * y - 2.0)

    moved = CoreInstance(
        move(inst.apex),
        move(inst.base_a),
        move(inst.base_b),
        tuple(move(p) for p in inst.base_points),
        0.04,
    )
    g1 = build_core(inst)
    g2 = build_core(moved)
    t1, d1 = core_spt(g1)
    t2, d2 = core_spt(g2)
    r1 = core_metrics(g1, t1, d1)
    r2 = core_metrics(g2, t2, d2)
    assert r2.max_stretch == pytest.approx(r1.max_stretch, rel=1e-9)
    assert r2.lightness == pytest.approx(r1.lightness, rel=1e-9)
    assert r2.chain_total == pytest.approx(r1.chain_total, rel=1e-9)


@pytest.mark.parametrize("eps", [0.25, 0.09, 0.04, 0.01])
@pytest.mark.parametrize("n_base", [1, 2, 7, 31, 63])
def test_layout_spt_is_the_core_spt(eps, n_base):
    # The shortest-path tree read off the closed-form layout, CoreChain and
    # portal_grid, against core_spt.  Symmetric instances put base points on
    # grid vertices and halfway between them, where both ways along the base
    # tie.  The base points are points 1..n of n + 2 equally spaced from
    # base_a to base_b.
    inst = CoreInstance.canonical(eps, n_base)
    g = build_core(inst)
    _, dists = core_spt(g)
    edges = {frozenset((u, v)) for u, v, _ in g.edges}
    chain, on = CoreChain.of(inst), core_layout(inst)[4]
    k, m = g.k, n_base + 1

    def stop_id(key):
        i, j = key
        return g.grid_ids[j] if i < 0 else (1 << i) - 1 + j

    for j, v in enumerate(g.grid_ids):
        path = [(0, 0)] + chain.path(j, set()) + [(-1, j)]
        assert path[-2] == (k, min(j, (1 << k) - 1))  # the higher apex on a tie
        assert all(frozenset(map(stop_id, e)) in edges for e in zip(path, path[1:]))
        assert all(chain.point(key) == g.plane_coords(stop_id(key)) for key in path[1:])
        length = sum(dist(*map(chain.point, e)) for e in zip(path[1:], path[2:]))
        assert length + chain.dists[1] == pytest.approx(dists[v], rel=1e-12)
        assert chain.dists[-1] == pytest.approx(dists[v], rel=1e-12)
    point = [g.grid_ids[0]] + g.input_ids + [g.grid_ids[-1]]  # the ends are grid vertices
    for x in range(1, m):
        v = point[x]
        at, via = portal_grid(x, m, k)
        assert at == on[x - 1]
        assert (v == g.grid_ids[at]) if at >= 0 else (v not in g.grid_ids)
        d, y = 0.0, x
        while via >= 0:  # along the base through the next base point
            assert frozenset((point[y], point[via])) in edges
            d += dist(g.coords[point[y]], g.coords[point[via]])
            y, via = via, portal_grid(via, m, k)[1]
        grid = g.grid_ids[-1 - via]
        assert point[y] == grid or frozenset((point[y], grid)) in edges
        d += dist(g.coords[point[y]], g.coords[grid])
        assert chain.dists[-1] + d == pytest.approx(dists[v], rel=1e-12)


@pytest.mark.parametrize("eps,n_base,scale", [
    *((eps, n_base, 1.0) for eps in (0.25, 0.09, 0.04, 0.01) for n_base in (4, 12, 64)),
    (0.04, 12, 2.0),  # the golden core2d instance, scaled by 2
])
def test_assembled_chain_total_is_the_core_metrics_one(monkeypatch, eps, n_base, scale):
    # The core2d build computes chain_total itself, without core_metrics and
    # its second MST, summing the same level totals in the same order.
    cores = []

    def record(inst):
        cores.append(build_core(inst))
        return cores[-1]

    monkeypatch.setattr(slt.pipeline, "build_core", record)
    pts = tuple(tuple(scale * x for x in p) for p in core2d_points(eps, n_base))
    _, _, report = assemble_core2d(PointCloud(pts, 0), eps)
    (g,) = cores
    assert report.flags["chain_total"] == core_metrics(g, *core_spt(g)).chain_total


def _triangle(t, angle):
    """Base ends of the isosceles triangle with legs t at the origin, as a folding gadget's."""
    return (t, 0.0), (t * math.cos(angle), t * math.sin(angle))


def test_core_chains_are_one_triangle_at_a_time_bit_for_bit():
    # Legs from 1e-6 to 1e6 and apex angles from 1e-8 to 0.6 rad, so the
    # rows take from 1 to 8 levels, those whose last level would reach
    # pi/2 left out; apices at the origin, as a folding gadget's, and the
    # triangle turned and moved.  Grid points by index arrays too.
    rng = random.Random(7)
    for lam, moved in ((1.25, False), (1.5, False), (1.25, True)):
        rows, one = [], []
        while len(rows) < 300:
            t, angle = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-8, math.log10(0.6))
            corners = ((0.0, 0.0), *_triangle(t, angle))
            if moved:
                c, s = math.cos(rng.uniform(0, 6.3)), math.sin(rng.uniform(0, 6.3))
                dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
                corners = tuple((c * x - s * y + dx, s * x + c * y + dy) for x, y in corners)
            row = (*corners, max(rng.choice([0.25, 0.04, 0.005, 1e-4]), angle * angle))
            try:
                inst = CoreInstance(*row[:3], (), row[3], lam)
            except ValueError:  # a moved triangle no longer isosceles, or too wide
                continue
            if inst.apex_angle * lam**inst.k < math.pi / 2:
                rows.append(row)
                one.append(scalar_chain(inst))
        apex, a, b, eps = (np.array(col) for col in zip(*rows))
        chains = core_chains(apex, a, b, eps, lam)
        assert [chain_bits(chains.chain(i)) for i in range(len(rows))] == list(map(chain_bits, one))
        assert [chain_bits(CoreChain.of(CoreInstance(*row[:3], (), row[3], lam))) for row in rows] == list(
            map(chain_bits, one))
        assert len(set(chains.k.tolist())) >= 5
        i = np.repeat(np.arange(len(rows)), 3)
        j = np.array([[0, (1 << c.k) // 3, 1 << c.k] for c in one]).reshape(-1)
        points = chains.grid_points(i, j).tolist()
        assert points == [list(one[r].point((-1, c))) for r, c in zip(i.tolist(), j.tolist())]


@pytest.mark.parametrize("fault", ["eps", "lambda", "isosceles", "angle", "ray", "overflow"])
def test_core_chains_raise_the_first_faulty_triangles_error(fault):
    # Each row passes every check but the faulty one's; a batch raises what
    # that row raises built alone, ahead of a later faulty row.
    good = (*_triangle(1.0, 0.1), 0.04)
    bad = {
        "eps": (*_triangle(1.0, 0.1), 0.8),
        "lambda": good,
        "isosceles": ((1.0, 0.0), (1.1 * math.cos(0.1), 1.1 * math.sin(0.1)), 0.04),
        "angle": (*_triangle(1.0, 0.3), 0.04),
        "ray": ((1e-13, 0.0), (1e-13, 0.0), 0.04),
        "overflow": (*_triangle(1.0, 0.8), 0.7),
    }[fault]
    lam = 2.5 if fault == "lambda" else 1.9 if fault == "overflow" else 1.25
    with pytest.raises(SltError if fault in ("eps", "ray", "overflow") else ValueError) as alone:
        scalar_chain(CoreInstance((0.0, 0.0), *bad[:2], (), bad[2], lam))
    rows = [good, bad, (*_triangle(1.0, 0.5), 0.04), good]
    a, b, eps = (np.array(col) for col in zip(*rows))
    for chains in (lambda: core_chains(np.zeros((4, 2)), a, b, eps, lam),
                   lambda: CoreChain.of(CoreInstance((0.0, 0.0), *bad[:2], (), bad[2], lam))):
        with pytest.raises(type(alone.value)) as batch:
            chains()
        assert str(batch.value) == str(alone.value)

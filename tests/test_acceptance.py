"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

The heavy shared artifacts (the random instance sweep and its folding
machinery) are built once per session.  Criteria that measure published
bounds use the instance parameters stated with each check.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (
    core_metrics, floyd_warshall, kruskal_mst, oracle_spt, pyramid_mst_lower_bound, tree_distances,
    triples,
)

import slt
from slt.breakpoints import select_breakpoints, subdivide
from slt.cli import run_cli
from slt.core2d import CoreInstance, build_core, core_spt
from slt.geometry import dist
from slt.mst_path import PointCloud, dfs_hamiltonian, euclidean_mst
from slt.pipeline import assemble_slt
from slt.pyramid import GridSpec, build_pyramid_core, yao_spanner
from slt.unfolding import build_surfaces, unfold_vertex

DIMS = range(2, 9)
SIZES = (10, 50, 200)
EPSES = (0.25, 0.09, 0.04)
SEEDS = range(20)


def suite_points(d, n, eps, seed):
    rng = random.Random(seed * 1000003 + d * 101 + n + int(eps * 100))
    return tuple(tuple(rng.random() for _ in range(d)) for _ in range(n))


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


@pytest.fixture(scope="session")
def folding_suite():
    """All random instances with their folding machinery, built once."""
    out = []
    t0 = time.time()
    for d in DIMS:
        for n in SIZES:
            for seed in SEEDS:
                for eps in EPSES:
                    pc = PointCloud(suite_points(d, n, eps, seed))
                    mst = euclidean_mst(pc)
                    ham = dfs_hamiltonian(mst, pc)
                    bps = select_breakpoints(ham, eps)
                    sub = subdivide(ham, bps)
                    surfs = build_surfaces(sub, pc.points[0])
                    out.append((d, n, eps, seed, pc, mst, ham, bps, sub, surfs))
    return out, time.time() - t0


def test_criterion_1_angle_lemma(folding_suite):
    # The angle lemma of the break point rule arc(b_i, b_{i+1}) =
    # sqrt(eps)*|b_{i+1}|: on a non-truncated surface the half-angle sines
    # sum to at most sqrt(eps)/(2(1-sqrt(eps))), because a cone's chord is
    # at least 2*r_min*sin(theta_j/2) and r_min >= |b_{i+1}|(1-sqrt(eps)).
    # The total angle follows by superadditivity of asin on [0, 1]:
    # total/2 = sum asin(sin(theta_j/2)) <= asin(sine sum).
    suite, build_time = folding_suite
    with criterion(1, "unfolded surface half-angle sines within sqrt(eps)/(2(1-sqrt(eps)))"):
        assert build_time < 10.0, f"suite build took {build_time:.1f}s"
        worst = 0.0
        violations = 0
        total = 0
        for d, n, eps, seed, pc, mst, ham, bps, sub, surfs in suite:
            bound = math.sqrt(eps) / (2.0 * (1.0 - math.sqrt(eps)))
            angle_bound = 2.0 * math.asin(bound)
            for f in surfs:
                if f.index < 2 or f.truncated:
                    continue
                total += 1
                sines = sum(math.sin(c.angle / 2.0) for c in f.cones)
                if sines > bound + 1e-9 or f.total_angle > angle_bound + 1e-9:
                    violations += 1
                    worst = max(worst, sines / bound, f.total_angle / angle_bound)
        assert violations == 0, (
            f"{violations}/{total} surfaces exceed the stated constant on the "
            f"half-angle sine sum or the total angle 2*asin(constant) "
            f"(worst ratio {worst:.3f})"
        )


def test_criterion_1_companion_attained_angle_bound(folding_suite):
    # The sound form of the same budget: surface angles never exceed
    # asin(sqrt(eps)), and the half-angle sine sum obeys the stated
    # constant.  This is the bound the rest of the build relies on.
    suite, _ = folding_suite
    with criterion("1b", "surface angles within asin(sqrt(eps)) [companion]"):
        for d, n, eps, seed, pc, mst, ham, bps, sub, surfs in suite:
            attained = math.asin(math.sqrt(eps))
            sine_bound = math.sqrt(eps) / (2.0 * (1.0 - math.sqrt(eps)))
            for f in surfs:
                if f.index < 2 or f.truncated:
                    continue
                assert f.total_angle <= attained + 1e-9
                sines = sum(math.sin(c.angle / 2.0) for c in f.cones)
                assert sines <= sine_bound + 1e-9
                assert f.total_angle < math.pi


def test_criterion_2_isometry(folding_suite):
    suite, _ = folding_suite
    with criterion(2, "unfolded source distances equal Euclidean distances"):
        for d, n, eps, seed, pc, mst, ham, bps, sub, surfs in suite:
            s = pc.points[0]
            for f in surfs:
                for j, v in enumerate(f.verts):
                    img = unfold_vertex(f, j)
                    true = dist(s, v)
                    assert abs(math.hypot(*img) - true) <= 1e-9 * max(true, 1e-12)


def test_criterion_3_path_doubling(folding_suite):
    suite, _ = folding_suite
    with criterion(3, "Hamiltonian path weight within twice the MST weight"):
        for d, n, eps, seed, pc, mst, ham, bps, sub, surfs in suite:
            assert ham.weight <= 2.0 * mst.weight * (1 + 1e-12)


def test_criterion_4_triangle_core_bounds():
    with criterion(4, "recursive triangle core: level weights, slack, stretch"):
        t0 = time.time()
        for eps in (0.25, 0.09, 0.04, 0.01):
            g = build_core(CoreInstance.canonical(eps, 64, 1.25))
            tree, dists = core_spt(g)
            rep = core_metrics(g, tree, dists)
            for i, (total, bound) in enumerate(zip(rep.level_totals, rep.level_bounds)):
                assert total <= bound + 1e-9, f"eps={eps} level {i}"
            assert rep.chain_total <= 20.0 + 1e-9
            for s_, b_ in zip(rep.slack, rep.slack_bounds):
                assert s_ <= b_ + 1e-9
            assert rep.max_stretch <= 1.0 + eps
        assert time.time() - t0 < 1.0


@pytest.fixture(scope="session")
def pipeline_suite():
    results = []
    for d in DIMS:
        for n in SIZES:
            for eps in EPSES:
                for seed in SEEDS:
                    pc = PointCloud(suite_points(d, n, eps, seed))
                    _, _, rep = assemble_slt(pc, eps)
                    results.append((d, n, eps, seed, rep))
    return results


def circle_points(eps):
    m = math.ceil(math.sqrt(1.0 / eps))
    return tuple(
        (math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
        for j in range(m)
    )


def test_criterion_5_pipeline_stretch(pipeline_suite):
    with criterion(5, "pipeline stretch within 1+eps at default gamma"):
        for d, n, eps, seed, rep in pipeline_suite:
            assert rep.max_stretch <= 1.0 + eps + 1e-12, (
                f"d={d} n={n} eps={eps} seed={seed}: {rep.max_stretch}"
            )
        for eps in EPSES:
            _, _, rep = assemble_slt(PointCloud(circle_points(eps)), eps)
            assert rep.max_stretch <= 1.0 + eps + 1e-12


def test_criterion_6_phase1_weight():
    with criterion(6, "phase-1 weight within (1+1/sqrt(eps_int))*2*MST"):
        for eps in (0.16, 0.04, 0.01):
            pc = PointCloud(circle_points(eps))
            _, _, rep = assemble_slt(pc, eps)
            eps_int = eps / rep.flags["gamma"]
            bound = (1.0 + 1.0 / math.sqrt(eps_int)) * 2.0 * rep.mst_weight
            assert rep.flags["phase1_weight"] <= bound * (1 + 1e-12)


def test_criterion_6_lightness_slope():
    # The sqrt(1/eps) lightness law holds only as the circle grows: at
    # m = 3, 5 and 10 points the family's MST still grows with m, so the
    # members with m = 20 and 40 join the fit.
    with criterion(6, "circle-family lightness slope in [0.3, 0.7]"):
        xs, ys, members = [], [], []
        for eps in (0.16, 0.04, 0.01, 0.0025, 0.000625):
            pts = circle_points(eps)
            _, _, rep = assemble_slt(PointCloud(pts), eps)
            xs.append(math.log(1.0 / eps))
            ys.append(math.log(rep.lightness))
            members.append(f"m={len(pts)}: {rep.lightness:.4f}")
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert 0.3 <= slope <= 0.7, (
            f"measured slope {slope:.4f}; lightness per circle size: "
            + ", ".join(members)
        )


def test_criterion_7_dimension_independence():
    with criterion(7, "embedded circle lightness within 1.2x of planar run"):
        eps = 0.04
        pts2 = circle_points(eps)
        _, _, rep2 = assemble_slt(PointCloud(pts2), eps)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        arr = np.zeros((len(pts2), 8))
        arr[:, :2] = pts2
        arr = arr @ q.T
        pc8 = PointCloud(tuple(tuple(map(float, row)) for row in arr))
        _, _, rep8 = assemble_slt(pc8, eps)
        assert rep8.max_stretch <= 1.0 + eps + 1e-12
        assert rep8.lightness <= 1.2 * rep2.lightness
        assert rep2.lightness <= 1.2 * rep8.lightness


def regime_grid(d, eps):
    m = math.ceil(GridSpec.regime_min(d, eps) ** (1.0 / (d - 1)))
    return GridSpec.for_points(m ** (d - 1), d)


def test_criterion_8_pyramid():
    with criterion(8, "pyramid: stretch, level totals, MST bound, spanner"):
        lam = 1.25
        for d in (3, 4):
            for eps in (0.09, 0.04):
                grid = regime_grid(d, eps)
                assert grid.satisfies_regime(d, eps)
                G, tree, rep = build_pyramid_core(d, eps, grid, lam)
                assert rep.max_stretch <= 1.0 + eps + 1e-12, (
                    f"d={d} eps={eps}: {rep.max_stretch}"
                )
                for i, total in enumerate(rep.flags["level_edge_totals"]):
                    bound = 2**d * 2 ** ((d - 2) * i) / lam**i
                    assert total <= bound + 1e-9
                bound = pyramid_mst_lower_bound(grid, d, eps)
                assert rep.mst_weight > bound
        # exhaustive spanner check at desk scale: the full Yao graph (a
        # reach past the unit square's diameter), as the base spanner builds it
        rng = random.Random(88)
        pts = [(rng.random(), rng.random()) for _ in range(40)]
        pairs = yao_spanner(np.array(pts), 2.0).tolist()
        edges = [(i, j, dist(pts[i], pts[j])) for i, j in pairs]
        n = len(pts)
        for src in range(n):
            dists, _ = oracle_spt(n, edges, src)
            for v in range(n):
                if v != src:
                    assert dists[v] <= 1.25 * dist(pts[src], pts[v]) * (1 + 1e-12)


def test_criterion_9_oracle_equivalence():
    with criterion(9, "Prim equals Kruskal; Dijkstra equals Floyd-Warshall"):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randrange(2, 60)
            d = rng.randrange(2, 9)
            pts = tuple(tuple(rng.random() for _ in range(d)) for _ in range(n))
            assert euclidean_mst(PointCloud(pts)).weight == kruskal_mst(pts).weight
        for seed in range(12):
            rng = random.Random(seed + 1000)
            n = rng.randrange(10, 200)
            edges = [(rng.randrange(i), i, rng.random() + 0.01) for i in range(1, n)]
            for _ in range(3 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, rng.random() + 0.01))
            fw = floyd_warshall(n, edges)
            for src in (0, n // 2, n - 1):
                dists, _ = oracle_spt(n, edges, src)
                assert np.allclose(dists, fw[src], rtol=1e-12, atol=0.0)
        # a pipeline graph small enough for the all-pairs oracle
        pc = PointCloud(suite_points(2, 10, 0.25, 0))
        g, tree, rep = assemble_slt(pc, 0.25)
        if g.n <= 200:
            dists, _ = oracle_spt(g.n, triples(tree), tree.root)
            td = tree_distances(tree, tree.root)
            for v in range(g.n):
                assert abs(td[v] - dists[v]) <= 1e-12 * max(dists[v], 1.0)


# Criterion 10's build, run in a fresh interpreter so that its peak memory
# is its own: ru_maxrss of the test process counts every earlier test, and
# a child's ru_maxrss inherits the parent's peak across fork and exec.
_CRITERION_10_CHILD = """
import json, os, random, resource, sys, time
from slt.mst_path import PointCloud
from slt.pipeline import assemble_slt

rng = random.Random(1234)
pts = tuple(tuple(rng.random() for _ in range(8)) for _ in range(500))
t0 = time.time()
_, _, rep = assemble_slt(PointCloud(pts), 0.04)
elapsed = time.time() - t0
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    rss_mb = peak_kb / 1024.0
else:
    # Untested fallback for hosts without /proc; it may include the
    # parent's peak, which is why VmHWM is read first.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0  # bytes there
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
print(json.dumps({"elapsed": elapsed, "rss_mb": rss_mb, "max_stretch": rep.max_stretch}))
"""


def test_criterion_10_performance():
    with criterion(10, "n=500, d=8, eps=0.04 pipeline under 10 s and 1 GB"):
        src = os.path.dirname(os.path.dirname(os.path.abspath(slt.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _CRITERION_10_CHILD],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.splitlines()[-1])
        elapsed, rss_mb = res["elapsed"], res["rss_mb"]
        print(f"criterion 10 build: {elapsed:.2f} s, peak rss {rss_mb:.0f} MB")
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert rss_mb < 1024.0, f"peak rss {rss_mb:.0f} MB"
        assert res["max_stretch"] <= 1.04 + 1e-12


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical tree and report under a fixed seed"):
        pts = tmp_path / "pts.json"
        assert run_cli(
            ["gen", "random", "--n", "40", "--dim", "5", "--seed", "3",
             "--output", str(pts)]
        ) == 0
        outs = []
        for tag in ("a", "b"):
            tree = tmp_path / f"tree_{tag}.json"
            report = tmp_path / f"rep_{tag}.json"
            import contextlib
            import io

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run_cli(
                    ["build", "--eps", "0.04", "--input", str(pts),
                     "--output", str(tree)]
                )
            assert code == 0
            report.write_text(buf.getvalue())
            outs.append((tree.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

"""Tests of the benchmark itself: checker, inputs, trace and metric names."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def star_doc(points):
    """Tree file in slt's format: every point joined straight to the root."""
    return {
        "vertices": [{"id": i, "coords": p, "kind": "input"} for i, p in enumerate(points)],
        "edges": [[0, i] for i in range(1, len(points))],
        "root": 0,
    }


@pytest.fixture
def points():
    return workloads.uniform_points(5, 30, 3)


def test_checker_accepts_a_valid_tree(points):
    problems, measured = check.check_tree(star_doc(points), points, 0, 0.04)
    assert problems == []
    assert measured["max_stretch"] == pytest.approx(1.0)
    arr = np.asarray(points)
    star = np.linalg.norm(arr[1:] - arr[0], axis=1).sum()
    mst = minimum_spanning_tree(squareform(pdist(arr))).sum()
    assert measured["lightness"] == pytest.approx(star / mst, rel=1e-12)


@pytest.mark.parametrize(
    "edit, why",
    [
        (lambda doc: doc["edges"].append([1, 2]), "not a tree"),
        (lambda doc: doc["edges"].append([3, 3]), "self-loop"),
        (lambda doc: doc["edges"].__setitem__(0, [0, 99]), "out-of-range"),
        (lambda doc: doc["vertices"][4].__setitem__("id", 77), "vertex ids"),
        (lambda doc: doc["edges"].append([0, 1]), "duplicate"),
    ],
)
def test_checker_rejects_broken_structure(points, edit, why):
    doc = star_doc(points)
    edit(doc)
    problems, _ = check.check_tree(doc, points, 0, 0.04)
    assert any(why in p for p in problems), problems


def test_checker_rejects_stretch_above_one_plus_eps(points):
    doc = star_doc(points)
    # Reach the farthest point through the nearest one instead of directly.
    arr = np.asarray(points)
    d = np.linalg.norm(arr - arr[0], axis=1)
    near, far = int(np.argsort(d)[1]), int(np.argmax(d))
    doc["edges"] = [e for e in doc["edges"] if e[1] != far] + [[near, far]]
    problems, _ = check.check_tree(doc, points, 0, 0.0001)
    assert any("stretch" in p for p in problems), problems


def test_checker_rejects_missing_input(points):
    doc = star_doc(points)
    doc["vertices"][5]["coords"] = [c + 1e-3 for c in points[5]]
    problems, _ = check.check_tree(doc, points, 0, 0.04)
    assert any("not a tree vertex" in p for p in problems), problems


def test_prim_matches_scipy_mst():
    arr = np.asarray(workloads.uniform_points(3, 200, 5)) + 1e6
    mst = minimum_spanning_tree(squareform(pdist(arr))).sum()
    assert check.prim_mst_weight(arr) == pytest.approx(mst, rel=1e-9)


def test_seed_regenerates_identical_inputs():
    a = workloads.points_json(workloads.uniform_points(7, 50, 3))
    assert a == workloads.points_json(workloads.uniform_points(7, 50, 3))
    assert a != workloads.points_json(workloads.uniform_points(8, 50, 3))
    assert workloads.batch_pass(7, 0) == workloads.batch_pass(7, 0)
    cells = sorted((d, n, e) for d, n, e, _ in workloads.batch_pass(7, 1))
    assert cells == sorted(
        (d, n, e)
        for d in workloads.BATCH_DIMS
        for n in workloads.BATCH_SIZES
        for e in workloads.BATCH_EPSES
    )


def test_root_is_the_point_nearest_the_center():
    arr = np.asarray(workloads.uniform_points(2, 100, 4))
    assert np.argmin(((arr - 0.5) ** 2).sum(axis=1)) == 0


def test_layer_trace_self_time_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    trace = layers.LayerTrace()
    trace.wrap(mod, "inner", "a.inner", layers._tally("a.hits", lambda r, a: r))
    trace.wrap(mod, "outer", "a.outer")
    assert mod.outer(1) == 4
    assert trace.calls() == Counter({"a.inner_calls": 1, "a.outer_calls": 1})
    assert trace.counts == Counter({"a.hits": 2})
    assert trace.seconds["a.inner"] >= 0.0 and trace.seconds["a.outer"] >= 0.0
    trace.remove()
    assert mod.inner is original


def test_printed_metric_names_match_benchmark_json():
    sample = {
        "times": [1.0, 2.0, 3.0],
        "build_s": 2.0,
        "points": 30,
        "rss_mb": 100.0,
        "verify_s": 0.1,
        "fingerprint": {"lightness": 2.0, "max_stretch": 1.01},
    }
    values, _ = run.end_to_end(sample, [0.5, 0.6])
    assert sorted(values) == sorted(declared("end_to_end"))
    assert values["build_s"] == 2.0 and values["points_per_s"] == 5.0
    per_layer = set(layers.layer_metrics(Counter(), Counter())) | set(run.TRACE_METRICS)
    assert sorted(per_layer) == sorted(declared("per_layer"))


def test_worker_job_is_checked_and_cross_checked(tmp_path):
    """A tiny traced build through the worker code: wrappers match slt."""
    pytest.importorskip("slt")
    import worker

    pts = workloads.uniform_points(1, 30, 3)
    pts_file = tmp_path / "points.json"
    pts_file.write_text(workloads.points_json(pts))
    job = {"kind": "fold", "eps": 0.09, "points": str(pts_file),
           "tree": str(tmp_path / "tree.json"), "trace": True}
    res = worker.run_job(job)
    assert res["verify_code"] == 0
    problems, measured = check.check_tree(
        json.loads((tmp_path / "tree.json").read_text()), pts, 0, 0.09
    )
    assert problems == []
    assert check.agrees(measured["lightness"], res["lightness"])
    assert res["counts"]["unfolding.surfaces"] == res["flags"]["surfaces"]
    assert res["counts"]["pipeline.graph_vertices"] == res["flags"]["graph_vertices"]
    untraced = worker.run_job(dict(job, trace=False))
    assert untraced["sha256"] == res["sha256"]


def test_probe_scales_times_to_nominal_speed():
    n = probe.MIN_SAMPLES
    slow = {k: [2 * t] * n for k, t in probe.NOMINAL_S.items()}
    fast = {k: [t / 2] * n for k, t in probe.NOMINAL_S.items()}
    mixed = {"python": fast["python"], "numpy": slow["numpy"]}
    assert probe.scale(slow, "numpy") == pytest.approx(0.5)
    assert probe.scale(mixed, "python") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        probe.scale({"python": fast["python"][1:]}, "python")
    res = {"build_s": 3.0, "build_probe_s": 0.1, "verify_s": [0.2, 0.4]}
    run.nominal(res, {"build": mixed, "verify": fast}, "numpy")
    assert res == pytest.approx(
        {"build_s": 1.5, "build_probe_s": 0.1, "build_wall_s": 3.1, "verify_s": [0.4, 0.8]}
    )


def test_probe_samples_while_running_and_fills_short_stretches():
    p = probe.Probe(("numpy",)).start()
    try:
        samples = p.fill(p.since(p.mark()))
        for kind in probe.KINDS:
            assert len(samples[kind]) >= probe.MIN_SAMPLES
            assert all(t >= 0 for t in samples[kind])
        assert probe.spent(samples) > 0
    finally:
        p.stop()
    assert not p._thread.is_alive()


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 121)]) == (108.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) is None
    values, how = run.end_to_end(
        {"times": [1.0, 5.0, 3.0], "build_s": 2.5, "points": 9, "rss_mb": 1.0,
         "verify_s": 0.1, "fingerprint": {"lightness": 2.0, "max_stretch": 1.01}}, [0.5]
    )
    assert values["build_tail_s"] == 2.5 and how == {"percentile": 50.0, "samples": 3}


def test_fresh_run_times_average_the_inputs():
    rows = [{"input": 0, "t": [1.0]}, {"input": 0, "t": [3.0]}, {"input": 1, "t": [10.0]}]
    assert run.per_input(rows, lambda r: r["t"]) == 6.0
    builds = [
        {"max_stretch": 1.02, "lightness": 2.0, "tree_vertices": 5, "tree_edges": 4, "sha256": "a"},
        {"max_stretch": 1.03, "lightness": 8.0, "tree_vertices": 7, "tree_edges": 6, "sha256": "b"},
    ]
    assert run.fingerprint(builds[:1]) == builds[0]
    both = run.fingerprint(builds)
    assert both["max_stretch"] == 1.03 and both["lightness"] == pytest.approx(4.0)
    assert (both["tree_vertices"], both["tree_edges"]) == (12, 10)


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold-d8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

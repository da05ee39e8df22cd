import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import slt

from slt.cli import (
    canonical_dumps,
    gen_circle,
    gen_grid,
    parse_points,
    run_cli,
    write_points,
)


def run(args):
    return run_cli([str(a) for a in args])


def test_gen_circle_count(tmp_path):
    pts, root = gen_circle(0.04)
    assert len(pts) == 5  # ceil(sqrt(25))
    assert root == 0
    assert all(math.hypot(*p) == pytest.approx(1.0, rel=1e-12) for p in pts)


def test_gen_grid_shape():
    pts, root = gen_grid(3, 64, 0.04)
    assert len(pts) == 65  # apex + 8x8
    assert root == 0
    xs = {p[0] for p in pts[1:]}
    assert xs == {0.0}


def test_gen_random_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random", "--n", 12, "--dim", 3, "--seed", 5, "--output", f1]) == 0
    assert run(["gen", "random", "--n", 12, "--dim", 3, "--seed", 5, "--output", f2]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("SLT_SEED", "9")
    assert run(["gen", "random", "--n", 6, "--dim", 2, "--output", f1]) == 0
    assert run(["gen", "random", "--n", 6, "--dim", 2, "--seed", 9, "--output", f2]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_points_roundtrip_byte_identical(tmp_path):
    f = tmp_path / "pts.json"
    assert run(["gen", "circle", "--eps", 0.04, "--output", f]) == 0
    original = f.read_bytes()
    pc = parse_points(f)
    write_points(f, pc.points, pc.root)
    assert f.read_bytes() == original


def test_build_and_verify_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    tree = tmp_path / "tree.json"
    run(["gen", "circle", "--eps", 0.04, "--output", pts])
    assert run(["build", "--method", "folding", "--eps", 0.04,
                "--input", pts, "--output", tree]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_stretch"] <= 1.04 + 1e-12
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", 0.04]) == 0
    verify_report = json.loads(capsys.readouterr().out)
    assert verify_report["max_stretch"] <= 1.04 + 1e-12
    assert verify_report["tree_weight"] == pytest.approx(report["tree_weight"], rel=1e-12)


def test_build_two_points_single_edge(tmp_path, capsys):
    pts = tmp_path / "two.json"
    write_points(pts, ((0.0, 0.0), (3.0, 4.0)), 0)
    tree = tmp_path / "tree.json"
    assert run(["build", "--eps", 0.04, "--input", pts, "--output", tree]) == 0
    capsys.readouterr()
    data = json.loads(tree.read_text())
    assert len(data["edges"]) == 1
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", 0.04]) == 0
    capsys.readouterr()


def test_verify_star_tree_exit_zero(tmp_path, capsys):
    pts_file = tmp_path / "pts.json"
    tree_file = tmp_path / "tree.json"
    pts = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.5))
    write_points(pts_file, pts, 0)
    tree = {
        "vertices": [
            {"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(pts)
        ],
        "edges": [[0, 1], [0, 2], [0, 3]],
        "root": 0,
    }
    tree_file.write_text(canonical_dumps(tree))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_stretch"] == 1.0


def test_verify_bad_tree_exit_one(tmp_path, capsys):
    pts_file = tmp_path / "pts.json"
    tree_file = tmp_path / "tree.json"
    pts = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    write_points(pts_file, pts, 0)
    tree = {
        "vertices": [
            {"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(pts)
        ],
        "edges": [[0, 1], [1, 2]],  # path: stretch to (1,1) is 2/sqrt(2) > 1.04
        "root": 0,
    }
    tree_file.write_text(canonical_dumps(tree))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 1
    capsys.readouterr()


SQUARE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "ids,edges,root,fault",
    [
        ([0, 1, 2, 3], [[0, 1], [0, 2], [0, 7]], 0, "outside"),
        ([0, 1, 2, 3], [[0, 1], [0, 2], [3, 3]], 0, "self-loop"),
        ([0, 1, 2, 3], [[0, 1], [0, 2], [1, 0]], 0, "duplicate"),
        ([0, 1, 2, 3], [[0, 1], [0, 2], [0, 3], [1, 3]], 0, "edges on 4 vertices"),
        ([0, 1, 2, 3], [[0, 1], [1, 2], [2, 0]], 0, "do not span"),
        ([0, 1, 2, 3], [[0, 1], [0, 2], [0, 3]], 4, "root"),
        ([0, 1, 2, 5], [[0, 1], [0, 2], [0, 3]], 0, "vertex ids"),
    ],
    ids=["out-of-range", "self-loop", "duplicate", "edge-count", "cycle", "root", "ids"],
)
def test_verify_rejects_non_tree_exit_two(tmp_path, capsys, ids, edges, root, fault):
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, SQUARE, 0)
    tree = {
        "vertices": [{"id": i, "coords": list(p), "kind": "input"} for i, p in zip(ids, SQUARE)],
        "edges": edges,
        "root": root,
    }
    tree_file.write_text(canonical_dumps(tree))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fault in captured.err


def run_python(args):
    """A fresh interpreter that imports this checkout's slt."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "pts.json"
    proc = run_python(["-m", "slt", "gen", "circle", "--eps", "0.04", "--output", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["points"]) == 5


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial costs about 0.1 s to import; only the 3-d cone axes of
    # the pyramid's base spanner use it, so it must stay out of start-up.
    proc = run_python(["-c", "import sys, slt, slt.cli; print('scipy.spatial' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_build_deterministic_bytes(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(["gen", "random", "--n", 15, "--dim", 3, "--seed", 2, "--output", pts])
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert run(["build", "--eps", 0.09, "--input", pts, "--output", t1]) == 0
    out1 = capsys.readouterr().out
    assert run(["build", "--eps", 0.09, "--input", pts, "--output", t2]) == 0
    out2 = capsys.readouterr().out
    assert t1.read_bytes() == t2.read_bytes()
    assert out1 == out2


def test_build_core2d_method(tmp_path, capsys):
    pts = tmp_path / "core.json"
    tree = tmp_path / "tree.json"
    assert run(["gen", "core", "--eps", 0.04, "--n", 12, "--output", pts]) == 0
    assert run(["build", "--method", "core2d", "--eps", 0.04,
                "--input", pts, "--output", tree]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_stretch"] <= 1.04
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", 0.04]) == 0
    capsys.readouterr()


def test_core2d_build_report_matches_verify(tmp_path, capsys):
    # Scaled by 2, so a report in the core's unit-leg frame would differ.
    pts = tmp_path / "core.json"
    tree = tmp_path / "tree.json"
    assert run(["gen", "core", "--eps", 0.04, "--n", 12, "--output", pts]) == 0
    pc = parse_points(pts)
    write_points(pts, [tuple(2.0 * x for x in p) for p in pc.points], pc.root)
    assert run(["build", "--method", "core2d", "--eps", 0.04,
                "--input", pts, "--output", tree]) == 0
    built = json.loads(capsys.readouterr().out)
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", 0.04]) == 0
    verified = json.loads(capsys.readouterr().out)
    assert built["n"] == verified["n"] == 15
    for key in ("mst_weight", "tree_weight", "lightness", "max_stretch"):
        assert built[key] == pytest.approx(verified[key], rel=1e-12), key
    assert len(built["per_point_stretch"]) == 15
    assert built["per_point_stretch"] == pytest.approx(verified["per_point_stretch"], rel=1e-12)


def test_build_pyramid_method(tmp_path, capsys):
    pts = tmp_path / "grid.json"
    tree = tmp_path / "tree.json"
    assert run(["gen", "grid", "--dim", 3, "--n", 64, "--eps", 0.09,
                "--output", pts]) == 0
    assert run(["build", "--method", "pyramid", "--eps", 0.09,
                "--input", pts, "--output", tree]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_stretch"] <= 1.09 + 1e-12
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", 0.09]) == 0
    capsys.readouterr()


def test_pyramid_method_rejects_mismatched_input(tmp_path, capsys):
    pts = tmp_path / "grid.json"
    run(["gen", "grid", "--dim", 3, "--n", 64, "--eps", 0.09, "--output", pts])
    # eps mismatch: layout check must fail with a constraint error
    assert run(["build", "--method", "pyramid", "--eps", 0.04, "--input", pts]) == 1
    capsys.readouterr()


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["build", "--eps", 0.04, "--input", bad]) == 2
    capsys.readouterr()


def test_missing_file_exit_two(tmp_path, capsys):
    assert run(["build", "--eps", 0.04, "--input", tmp_path / "nope.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["x", None], ids=["string", "null"])
@pytest.mark.parametrize("which,fault", [("points", "point 2"), ("tree", "vertex 2")],
                         ids=["points", "tree"])
def test_non_numeric_coordinate_exit_two(tmp_path, capsys, which, fault, value):
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, SQUARE, 0)
    vertices = [{"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(SQUARE)]
    tree_file.write_text(canonical_dumps(
        {"vertices": vertices, "edges": [[0, 1], [0, 2], [0, 3]], "root": 0}
    ))
    bad = pts_file if which == "points" else tree_file
    data = json.loads(bad.read_text())
    rows = data["points"] if which == "points" else [v["coords"] for v in data["vertices"]]
    rows[2][1] = value
    bad.write_text(canonical_dumps(data))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{fault} is not a list of numbers" in captured.err


@pytest.mark.parametrize(
    "which,field,value,fault",
    [
        ("points", "root", None, "points file: root is not an integer"),
        ("points", "points", 5, "points file: points is not a list"),
        ("tree", "edges", [[0, 1], [0, 2], [0, 3.5]], "tree file: edge [0, 3.5] is not a pair"),
        ("tree", "vertices", "id", "tree file: vertex id '2' is not an integer"),
    ],
    ids=["null-root", "points-not-a-list", "edge-id", "vertex-id"],
)
def test_malformed_structure_exit_two(tmp_path, capsys, which, field, value, fault):
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, SQUARE, 0)
    vertices = [{"id": i, "coords": list(p), "kind": "input"} for i, p in enumerate(SQUARE)]
    tree_file.write_text(canonical_dumps(
        {"vertices": vertices, "edges": [[0, 1], [0, 2], [0, 3]], "root": 0}
    ))
    bad = pts_file if which == "points" else tree_file
    data = json.loads(bad.read_text())
    if field == "vertices":
        data["vertices"][2]["id"] = "2"
    else:
        data[field] = value
    bad.write_text(canonical_dumps(data))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fault in captured.err


def test_duplicate_points_exit_one(tmp_path, capsys):
    f = tmp_path / "dup.json"
    f.write_text(
        canonical_dumps(
            {"dim": 2, "points": [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], "root": 0}
        )
    )
    assert run(["build", "--eps", 0.04, "--input", f]) == 1
    capsys.readouterr()


def test_bad_root_index_exit_one(tmp_path, capsys):
    f = tmp_path / "badroot.json"
    f.write_text(
        canonical_dumps(
            {"dim": 2, "points": [[0.0, 0.0], [1.0, 1.0]], "root": 5}
        )
    )
    assert run(["build", "--eps", 0.04, "--input", f]) == 1
    capsys.readouterr()


def test_render_tree_svg(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    tree = tmp_path / "tree.json"
    svg = tmp_path / "out.svg"
    run(["gen", "circle", "--eps", 0.04, "--output", pts])
    run(["build", "--eps", 0.04, "--input", pts, "--output", tree])
    capsys.readouterr()
    assert run(["render", "--input", pts, "--tree", tree, "--output", svg]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "<line" in text and "<circle" in text


def test_render_surfaces_svg(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    svg = tmp_path / "surf.svg"
    run(["gen", "random", "--n", 8, "--dim", 4, "--seed", 3, "--output", pts])
    capsys.readouterr()
    assert run(["render", "--input", pts, "--surfaces", "--eps", 0.04,
                "--output", svg]) == 0
    text = svg.read_text()
    assert "stroke-dasharray" in text  # surface boundaries are dashed


def test_canonical_json_sorted_keys():
    s = canonical_dumps({"b": 1, "a": [2.5, 1e-9]})
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == {"b": 1, "a": [2.5, 1e-9]}


def test_render_surfaces_draws_the_gadgets_the_build_makes(tmp_path, capsys, monkeypatch):
    import slt.pipeline

    pts, svg = tmp_path / "pts.json", tmp_path / "surf.svg"
    run(["gen", "random", "--n", 20, "--dim", 3, "--seed", 5, "--output", pts])
    built = []
    real = slt.pipeline.build_gadget

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(slt.pipeline, "build_gadget", recording)
    slt.pipeline.assemble_slt(parse_points(pts), 0.04)
    monkeypatch.undo()
    assert run(["render", "--input", pts, "--surfaces", "--eps", 0.04, "--output", svg]) == 0
    capsys.readouterr()
    cross_lines = svg.read_text().count('stroke="#888888"')
    assert cross_lines == sum(not g.degenerate for g in built) > 0


def test_verify_rejects_many_triangles_in_linear_time(tmp_path, capsys):
    # Every third edge closes a cycle; each must be told from a duplicate
    # without rescanning the edges before it.
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, SQUARE, 0)
    n = 60_000
    tree = {
        "vertices": [{"id": i, "coords": [float(i), 0.0], "kind": "input"} for i in range(n)],
        "edges": [[t + a, t + b] for t in range(0, n, 3) for a, b in ((0, 1), (1, 2), (2, 0))],
        "root": 0,
    }
    tree_file.write_text(canonical_dumps(tree))
    t0 = time.perf_counter()
    code = run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert "a tree has 59999" in capsys.readouterr().err
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


# sha256 of the tree file each method writes for one small instance.  A
# change to any of them changes the trees themselves, not just the metrics.
GOLDEN_TREES = [
    (["random", "--n", 30, "--dim", 3, "--seed", 1], ["--eps", 0.09],
     "46066bd36f6a8f66e9e3745a00952f2b9bc82fefe2a9798e805844fdcd8c2c18"),
    (["core", "--eps", 0.04, "--n", 12], ["--method", "core2d", "--eps", 0.04],
     "cceb266c37735e3572ea88374df2d92d0cf2db9c305acfff79a9bd2a7adbb040"),
    (["grid", "--dim", 3, "--n", 64, "--eps", 0.04], ["--method", "pyramid", "--eps", 0.04],
     "7f02b6bac206bb9b49f19e7a19b4e24aba215135759fc09c3faa62784da3b94c"),
]


@pytest.mark.parametrize("gen,build,sha", GOLDEN_TREES, ids=["folding", "core2d", "pyramid"])
def test_build_writes_the_golden_tree(tmp_path, capsys, gen, build, sha):
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", *gen, "--output", pts]) == 0
    assert run(["build", *build, "--input", pts, "--output", tree]) == 0
    capsys.readouterr()
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == sha

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest
from fingerprint import tree_fingerprint

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
    args = ["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]
    assert run(args) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["per_point_stretch"] == [1.0, 1.0, 2.0 / math.dist(pts[0], pts[2])]
    # stderr names the worst input; the report is printed as on success
    worst = f"input point 2 at (1.0, 1.0) has stretch {report['max_stretch']!r} > bound 1.04"
    assert worst in captured.err
    out = tmp_path / "report.json"
    assert run([*args, "--output", out]) == 1
    assert out.read_text() == captured.out
    assert worst in capsys.readouterr().err


def test_verify_names_the_index_of_a_missing_input(tmp_path, capsys):
    pts_file, tree_file = tmp_path / "pts.json", tmp_path / "tree.json"
    write_points(pts_file, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 0)
    tree = {
        "vertices": [{"id": i, "coords": list(p), "kind": "input"}
                     for i, p in enumerate(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)))],
        "edges": [[0, 1], [0, 2]],
        "root": 0,
    }
    tree_file.write_text(canonical_dumps(tree))
    assert run(["verify", "--input", pts_file, "--tree", tree_file, "--eps", 0.04]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tree does not contain input point 2 at (0.0, 1.0)" in captured.err


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


def test_import_leaves_scipy_unloaded():
    # No build needs scipy: the package imports numpy alone, and a folding,
    # a core2d and a pyramid build leave scipy unloaded.
    code = ("import sys, slt, slt.cli; "
            "from slt import PointCloud, assemble_core2d, assemble_slt, core2d_points; "
            "from slt.pyramid import GridSpec, build_pyramid_core; "
            "assemble_slt(PointCloud(((0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.5, 1.0, 1.0))), 0.04); "
            "assemble_core2d(PointCloud(core2d_points(0.04, 12)), 0.04); "
            "build_pyramid_core(3, 0.09, GridSpec.for_points(64, 3)); "
            "print('scipy' in sys.modules, "
            "slt.build_pyramid_core is sys.modules['slt.pyramid'].build_pyramid_core)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


_IMPORTED_DURING_BUILDS = """
import math, random, sys, slt, slt.cli, slt.pyramid as p
m = math.ceil(p.GridSpec.regime_min(4, 0.09) ** (1 / 3))
before = set(sys.modules)
p.build_pyramid_core(4, 0.09, p.GridSpec.for_points(m ** 3, 4))
pyramid = sorted(set(sys.modules) - before)
rng = random.Random(1)
pc = slt.PointCloud(tuple(tuple(rng.random() for _ in range(3)) for _ in range(600)))
before = set(sys.modules)
slt.assemble_slt(pc, 0.04)
folding = sorted(set(sys.modules) - before)
ray = slt.PointCloud(tuple((0.37 * t, 0.21 * t, 0.05 * t) for t in range(300)))
before = set(sys.modules)
slt.assemble_slt(ray, 0.09)
print(pyramid, folding, sorted(set(sys.modules) - before))
"""


def test_builds_import_nothing():
    # A module a build imports lazily is paid inside the build's time: numpy
    # loads numpy.ma on the first np.unique or np.median.  The pyramid-d4
    # build, a folding build that takes the local MST path (n=600, d=3) and
    # one along a ray, whose deep tree ends its shortest paths in a heap,
    # each the first of its kind in a fresh process, import no module.
    proc = run_python(["-c", _IMPORTED_DURING_BUILDS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "[]"]


# Names that left the package: deleted, or moved to tests/oracles.py.
GONE_NAMES = ["CoreReport", "_UnionFind", "_bounded_dist", "_covering_radius", "core_metrics",
              "floyd_warshall", "greedy_spanner", "kruskal_mst", "oracle_spt", "point_at_arc",
              "pyramid_mst_lower_bound", "unfold", "_moved_near_origin", "_KIND_RANK", "_KINDS",
              "_split_by_angle", "_MAX_SPLIT_ANGLE"]

_NAMES_CHILD = """
import ast, importlib, json, pkgutil, sys, slt
exported = set()
for node in ast.walk(ast.parse(open(slt.__file__).read())):
    if isinstance(node, ast.ImportFrom):
        exported.update(alias.asname or alias.name for alias in node.names)
modules = [slt] + [importlib.import_module("slt." + m.name)
                   for m in pkgutil.iter_modules(slt.__path__) if m.name != "__main__"]
print(json.dumps([
    sorted(name for name in exported if not hasattr(slt, name)),
    sorted(f"{mod.__name__}.{name}" for mod in modules for name in sys.argv[1:]
           if hasattr(mod, name)),
]))
"""


def test_every_exported_name_resolves_and_no_gone_name_remains():
    # In a fresh process, so that every name resolves from the package's
    # own imports.
    proc = run_python(["-c", _NAMES_CHILD, *GONE_NAMES])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_pyramid_builds_leave_scipy_spatial_unloaded(tmp_path):
    # The base pairs come from cell buckets, the cone radius is stored and
    # the shortest paths are numpy rounds, so no pyramid build loads any
    # part of scipy, in the library or through the command line.
    code = ("import sys; from slt.pyramid import GridSpec, build_pyramid_core; "
            "build_pyramid_core(3, 0.09, GridSpec.for_points(64, 3)); "
            "build_pyramid_core(4, 0.09, GridSpec.for_points(216, 4)); "
            "print('scipy' in sys.modules, 'scipy.spatial' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    pts, tree = tmp_path / "grid.json", tmp_path / "tree.json"
    assert run(["gen", "grid", "--dim", 4, "--n", 216, "--eps", 0.09, "--output", pts]) == 0
    # -X importtime names on stderr every module the command imports.
    proc = run_python(["-X", "importtime", "-m", "slt", "build", "--method", "pyramid",
                       "--eps", "0.09", "--input", str(pts), "--output", str(tree)])
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "slt.pyramid" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    assert tree.exists()


def test_import_builds_no_cone_table():
    # The cone axes are built on first use, per dimension.
    code = "import slt.cli, slt.pyramid as p; print(p._cone_axes.cache_info().currsize)"
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


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


@pytest.mark.parametrize("d", [2, 5])
def test_pyramid_dimension_outside_3_and_4_exits_1(tmp_path, capsys, d):
    # gen grid refuses before writing, and build refuses the file a grid
    # generator without the check wrote: the apex, then the base grid.
    from slt.pyramid import GridSpec, _apex_height, grid_points

    pts = tmp_path / "grid.json"
    assert run(["gen", "grid", "--dim", d, "--n", 16, "--eps", 0.09, "--output", pts]) == 1
    assert not pts.exists()
    assert f"supports d = 3 and 4, got d = {d}" in capsys.readouterr().err
    apex = (_apex_height(0.3, 1.0, 0),) + (0.0,) * (d - 1)
    write_points(pts, (apex,) + grid_points(d, 0.09, GridSpec.for_points(16, d)), 0)
    assert run(["build", "--method", "pyramid", "--eps", 0.09, "--input", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"supports d = 3 and 4, got d = {d}" in captured.err


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
        ("points", None, [1, 2], "points file is not a JSON object"),
        ("tree", None, [1, 2], "tree file is not a JSON object"),
        ("tree", "vertices", [1], "tree file: vertex entry 0 is not an object"),
        ("points", "dim", "2", "points file: dim is not an integer"),
        ("points", "points", [[0, 0], [1, 0], [0, 1, 2]],
         "points file: point 2 has 3 coordinates, not dim 2"),
        ("tree", "vertices", "dim", "tree file: vertex 2 has 3 coordinates, vertex 0 has 2"),
    ],
    ids=["null-root", "points-not-a-list", "edge-id", "vertex-id", "points-top-level",
         "tree-top-level", "vertex-entry", "string-dim", "point-dim", "vertex-dim"],
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
    if field is None:
        data = value
    elif field == "vertices" and value == "id":
        data["vertices"][2]["id"] = "2"
    elif field == "vertices" and value == "dim":
        data["vertices"][2]["coords"].append(1.0)
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


@pytest.mark.parametrize("option,value,fault", [
    ("--gamma", 0, "gamma must be at least 1"),
    ("--gamma", 0.5, "gamma must be at least 1"),
    ("--eps", 0.5, "eps=0.5 outside (0, 1/4]"),
])
def test_render_surfaces_rejects_what_build_rejects(tmp_path, capsys, option, value, fault):
    pts, svg = tmp_path / "pts.json", tmp_path / "surf.svg"
    run(["gen", "random", "--n", 8, "--dim", 3, "--seed", 3, "--output", pts])
    capsys.readouterr()
    for command in (["build", "--eps", 0.04], ["render", "--surfaces", "--output", svg]):
        assert run([*command, "--input", pts, option, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fault in err and "Traceback" not in err
    assert not svg.exists()


@pytest.mark.parametrize("n", [2, 30])
def test_lambda_and_gamma_are_checked_on_any_input(tmp_path, capsys, n):
    # lambda reaches only a gadget's core, and gamma only eps/gamma: both are
    # checked before any work, so on any input the error names its parameter.
    pts, svg = tmp_path / "pts.json", tmp_path / "surf.svg"
    run(["gen", "random", "--n", n, "--dim", 3, "--seed", 3, "--output", pts])
    capsys.readouterr()
    cases = [(["build", "--eps", 0.04, "--lambda", lam], f"lambda={lam} outside (1, 2)")
             for lam in ("2.5", "1.0", "nan")]
    for gamma in ("inf", "nan"):
        fault = f"gamma must be at least 1 and finite, got {gamma}"
        cases += [(["build", "--eps", 0.04, "--gamma", gamma], fault),
                  (["render", "--surfaces", "--output", svg, "--gamma", gamma], fault)]
    for command, fault in cases:
        assert run([*command, "--input", pts]) == 1, command
        err = capsys.readouterr().err
        assert err == f"error: {fault}\n", command
    assert not svg.exists()


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
    [gadgets] = built  # one batch per build
    text = svg.read_text()
    assert text.count('stroke="#888888"') == len(gadgets) > 0  # a cross line per gadget
    steiner = sum(1 if flat else gadgets.ell_steiner.shape[1] for flat in gadgets.flat.tolist())
    assert text.count('fill="#777777"') == steiner


def test_render_surfaces_draws_the_cores_at_the_build_lambda(tmp_path, capsys, monkeypatch):
    # --lambda reaches every core render draws: the same core triangles,
    # with the same apices level by level, as build --lambda 1.5 makes.
    import slt.cli
    import slt.pipeline

    pts, svg = tmp_path / "pts.json", tmp_path / "surf.svg"
    run(["gen", "random", "--n", 20, "--dim", 3, "--seed", 5, "--output", pts])
    built, drawn = [], []
    real_gadget, real_core = slt.pipeline.build_gadget, slt.cli.build_core

    def gadget(*args, **kwargs):
        built.append(real_gadget(*args, **kwargs))
        return built[-1]

    def core(inst):
        drawn.append(real_core(inst))
        return drawn[-1]

    monkeypatch.setattr(slt.pipeline, "build_gadget", gadget)
    assert run(["build", "--eps", 0.04, "--lambda", 1.5, "--input", pts]) == 0
    monkeypatch.setattr(slt.cli, "build_core", core)
    assert run(["render", "--input", pts, "--surfaces", "--eps", 0.04, "--lambda", 1.5,
                "--output", svg]) == 0
    capsys.readouterr()
    [gadgets] = built
    cores = [real_core(inst) for inst in map(gadgets.core_instance, range(len(gadgets))) if inst is not None]
    assert len(cores) > 0 and all(c.lam == 1.5 for c in drawn)
    assert [(c.levels, c.coords) for c in drawn] == [(c.levels, c.coords) for c in cores]


@pytest.mark.parametrize("n", [2, 8])
def test_render_surfaces_rejects_the_lambda_build_rejects(tmp_path, capsys, n):
    # Checked before any work: two points make no gadget core to reject it.
    pts, svg = tmp_path / "pts.json", tmp_path / "surf.svg"
    run(["gen", "random", "--n", n, "--dim", 3, "--seed", 3, "--output", pts])
    capsys.readouterr()
    for command in (["build"], ["render", "--surfaces", "--output", svg]):
        assert run([*command, "--input", pts, "--eps", 0.04, "--lambda", 2.5]) == 1
        assert capsys.readouterr().err == "error: lambda=2.5 outside (1, 2)\n"
    assert not svg.exists()


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


# sha256 of the tree file each method writes for one small instance: a change
# to the trees or to how their vertices are numbered changes it.  The folding
# tree is pinned apart from its numbering by the fingerprint test below.
GOLDEN_TREES = [
    (["random", "--n", 30, "--dim", 3, "--seed", 1], ["--eps", 0.09],
     "3feaab7381c693149f26e1ddae6638f9b4f4dfc333ccb675c6fb31fd2f13b403"),
    (["core", "--eps", 0.04, "--n", 12], ["--method", "core2d", "--eps", 0.04],
     "cceb266c37735e3572ea88374df2d92d0cf2db9c305acfff79a9bd2a7adbb040"),
    (["grid", "--dim", 3, "--n", 64, "--eps", 0.04], ["--method", "pyramid", "--eps", 0.04],
     "191b17976385864c334de5763a27757001b167bd41e6e82691d4bde29e1f145b"),
]


# The criterion-10 folding instance, n=500 in R^8 at eps 0.04: its tree file's
# sha256 and numbering-free fingerprint.
FOLDING_D8 = (
    ["random", "--n", 500, "--dim", 8, "--seed", 1], ["--eps", 0.04],
    "cf8a1a19c5de5cc3fa4a3a8d4876c6f9f4454a8b84195be3a515428be546b5fa",
    "3c4ffceca794b3554d636cf365bdb43428f33505a5d29d27c38ced89b63d725a",
)


def test_folding_d8_tree_is_pinned_and_its_graph_left_small(tmp_path, capsys):
    # The graph the shortest paths run on leaves out the phase-1 segments no
    # root path can use: 19,214 vertices and 30,500 edges with them.
    gen, build, sha, fingerprint = FOLDING_D8
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", *gen, "--output", pts]) == 0
    assert run(["build", *build, "--input", pts, "--output", tree]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == sha
    assert tree_fingerprint(tree) == fingerprint
    assert flags["graph_vertices"] <= 16_500
    assert flags["graph_edges"] <= 24_600


@pytest.mark.parametrize("gen,build,sha", GOLDEN_TREES, ids=["folding", "core2d", "pyramid"])
def test_build_writes_the_golden_tree(tmp_path, capsys, gen, build, sha):
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", *gen, "--output", pts]) == 0
    assert run(["build", *build, "--input", pts, "--output", tree]) == 0
    capsys.readouterr()
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == sha


def _scaled_core(pts):
    # Scaled by 2, so a report in the core's unit-leg frame would differ.
    pc = parse_points(pts)
    write_points(pts, [tuple(2.0 * x for x in p) for p in pc.points], pc.root)


REPORT_CASES = [(gen, build, None) for gen, build, _ in GOLDEN_TREES] + [
    (GOLDEN_TREES[1][0], GOLDEN_TREES[1][1], _scaled_core),
    # A tie-heavy lattice whose 730 points in d=3 take the local MST.
    (["grid", "--dim", 3, "--n", 729, "--eps", 0.09], ["--eps", 0.09], None),
]


@pytest.mark.parametrize("gen,build,edit", REPORT_CASES,
                         ids=["folding", "core2d", "pyramid", "core2d-scaled", "folding-grid"])
def test_build_report_equals_verify(tmp_path, capsys, gen, build, edit):
    # Every method measures the tree it returns as verify measures the file.
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", *gen, "--output", pts]) == 0
    if edit is not None:
        edit(pts)
    assert run(["build", *build, "--input", pts, "--output", tree]) == 0
    built = json.loads(capsys.readouterr().out)
    eps = build[build.index("--eps") + 1]
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", eps]) == 0
    verified = json.loads(capsys.readouterr().out)
    assert len(built["per_point_stretch"]) == built["n"] == len(parse_points(pts).points)
    for key in ("n", "d", "eps", "mst_weight", "tree_weight", "lightness",
                "per_point_stretch", "max_stretch"):
        assert built[key] == verified[key], key


@pytest.mark.parametrize("gen,build,edit", REPORT_CASES,
                         ids=["folding", "core2d", "pyramid", "core2d-scaled", "folding-grid"])
def test_report_dict_is_the_dataclass_dict(tmp_path, capsys, monkeypatch, gen, build, edit):
    # as_dict builds the dict that dataclasses.asdict gave, byte for byte in
    # canonical JSON, for every build and verify report; its lists are copies.
    import dataclasses

    from slt.metrics import SltReport

    real, seen = SltReport.as_dict, []

    def as_dict(report):
        out, before = real(report), canonical_dumps(dataclasses.asdict(report))
        assert canonical_dumps(out) == before
        out["flags"]["added"] = True
        lists = [out["per_point_stretch"]] + [v for v in out["flags"].values() if isinstance(v, list)]
        for copied in lists:
            copied.append(None)
        assert canonical_dumps(dataclasses.asdict(report)) == before
        seen.append(len(lists))
        return real(report)

    monkeypatch.setattr(SltReport, "as_dict", as_dict)
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", *gen, "--output", pts]) == 0
    if edit is not None:
        edit(pts)
    assert run(["build", *build, "--input", pts, "--output", tree]) == 0
    eps = build[build.index("--eps") + 1]
    assert run(["verify", "--input", pts, "--tree", tree, "--eps", eps]) == 0
    capsys.readouterr()
    assert len(seen) == 2 and seen[0] > 1


def test_folding_golden_tree_whatever_its_vertex_numbering(tmp_path, capsys):
    # The golden folding tree as a set of edges between (coordinates, kind)
    # vertices: it holds when only the numbering of the vertices changes.
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", "random", "--n", 30, "--dim", 3, "--seed", 1, "--output", pts]) == 0
    assert run(["build", "--eps", 0.09, "--input", pts, "--output", tree]) == 0
    capsys.readouterr()
    assert tree_fingerprint(tree) == (
        "724dbe6757bfa10fc5866d8c8a1e39c254f805bd0303b116f067123d42f5f332"
    )


def test_pyramid_golden_tree_is_the_full_tree_cut_to_its_input_paths(tmp_path, capsys):
    # The search graph's shortest-path tree by ``dijkstra``'s tie rule, with
    # every vertex off the root's paths to the inputs removed: 213 vertices
    # are left.
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run(["gen", "grid", "--dim", 3, "--n", 64, "--eps", 0.04, "--output", pts]) == 0
    assert run(["build", "--method", "pyramid", "--eps", 0.04, "--input", pts, "--output", tree]) == 0
    capsys.readouterr()
    assert len(json.loads(tree.read_text())["vertices"]) == 213
    assert tree_fingerprint(tree) == (
        "22221db2405e787e5540e8d52374a8ee31d3a69878e6314f93333ac4aab57d63"
    )

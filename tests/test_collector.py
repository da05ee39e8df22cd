"""Builds run with the cyclic garbage collector paused and make no reference cycles."""
import gc
from collections import Counter

import pytest

from slt import (
    DimensionTooSmall,
    EpsOutOfRange,
    PointCloud,
    assemble_core2d,
    assemble_slt,
    core2d_points,
)
from slt.cli import gen_random, run_cli
from slt.pyramid import GridSpec, build_pyramid_core


def _folding(n, d, eps):
    pts, root = gen_random(n, d, 1)
    return lambda: assemble_slt(PointCloud(pts, root), eps)


BUILDS = {
    "folding-d3": _folding(30, 3, 0.09),
    "folding-d8": _folding(40, 8, 0.04),
    "core2d": lambda: assemble_core2d(PointCloud(core2d_points(0.04, 12), 0), 0.04),
    "pyramid-d3": lambda: build_pyramid_core(3, 0.09, GridSpec.for_points(8, 3)),
}


def _cyclic_garbage(build) -> tuple[Counter, object]:
    """Types of the objects only the cyclic collector could free after ``build()``."""
    was_on = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = build()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage), result
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_on:
            gc.enable()


@pytest.mark.parametrize("name", BUILDS)
def test_builds_make_no_cyclic_garbage(name):
    garbage, (_, _, report) = _cyclic_garbage(BUILDS[name])
    if name.startswith("folding"):
        assert report.flags["cores"] > 0  # the core paths are what once made cycles
    assert garbage == Counter()


def test_verify_makes_no_cyclic_garbage(tmp_path, capsys):
    pts, tree = tmp_path / "pts.json", tmp_path / "tree.json"
    assert run_cli(["gen", "random", "--n", "50", "--dim", "3", "--seed", "1", "--output", str(pts)]) == 0
    assert run_cli(["build", "--eps", "0.09", "--input", str(pts), "--output", str(tree)]) == 0
    verify = ["verify", "--input", str(pts), "--tree", str(tree), "--eps", "0.09"]
    garbage, code = _cyclic_garbage(lambda: run_cli(verify))
    assert code == 0
    assert garbage == Counter()
    capsys.readouterr()


@pytest.fixture
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


@pytest.mark.parametrize("name", BUILDS)
def test_build_turns_the_collector_back_on(collector_on, name):
    BUILDS[name]()
    assert gc.isenabled()


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: assemble_slt(PointCloud(((0.0, 0.0), (1.0, 0.0)), 0), 0.3), EpsOutOfRange),
        (lambda: build_pyramid_core(2, 0.09, GridSpec.for_points(8, 2)), DimensionTooSmall),
    ],
    ids=["folding-eps", "pyramid-d2"],
)
def test_build_that_raises_turns_the_collector_back_on(collector_on, build, error):
    with pytest.raises(error):
        build()
    assert gc.isenabled()


@pytest.mark.parametrize("name", ["folding-d3", "core2d", "pyramid-d3"])
def test_build_leaves_a_paused_collector_paused(collector_on, name):
    gc.disable()
    BUILDS[name]()
    assert not gc.isenabled()

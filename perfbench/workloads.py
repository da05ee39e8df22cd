"""Workload definitions and seeded input generation.

Inputs depend only on the workload and the seed, never on the program
under test, so the same seed regenerates byte-identical points files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# fold-batch draws its instances from the acceptance-sweep grid, without
# its n=200 row: those 12 builds took 11 of a pass's 14 s, so a run held
# one pass and its tail moved by a quarter between seeds.
BATCH_DIMS = (2, 3, 5, 8)
BATCH_SIZES = (10, 50)
BATCH_EPSES = (0.25, 0.09, 0.04)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fold" | "pyramid" | "batch"
    n: int = 0
    d: int = 0
    eps: float = 0.0
    # The kind of code that dominates a build, by which probe.py scales its
    # time: the folding layers are interpreter code, while a pyramid
    # build spends most of its time in the cone spanner's numpy loops.
    probe: str = "python"
    # Point sets a fresh-process folding run builds from one seed; how long
    # a build takes varies between point sets by a few per cent.
    inputs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fold-d8", "fold", n=500, d=8, eps=0.04, inputs=2),
        Workload("fold-batch", "batch"),
        Workload("pyramid-d4", "pyramid", d=4, eps=0.09, probe="numpy"),
    )
}


def uniform_points(seed: int, n: int, d: int, salt: tuple[int, ...] = ()) -> list[list[float]]:
    """n points uniform in [0,1]^d, a pure function of (seed, n, d, salt).

    The point nearest the cube's center comes first and is the root.  A
    root at a random position would make tree weight, and so lightness,
    vary across seeds several times more than the point set itself does.
    """
    pts = np.random.default_rng([seed, n, d, *salt]).random((n, d))
    c = int(np.argmin(((pts - 0.5) ** 2).sum(axis=1)))
    pts[[0, c]] = pts[[c, 0]]
    return pts.tolist()


def batch_pass(seed: int, pass_index: int) -> list[tuple[int, int, float, list[list[float]]]]:
    """One pass over the whole grid, in a seed-shuffled order.

    Every pass holds each (d, n, eps) cell exactly once, so the mix of
    instance sizes is the same for every seed and every pass; the seed
    picks the order and the points.
    """
    cells = [(d, n, e) for d in BATCH_DIMS for n in BATCH_SIZES for e in BATCH_EPSES]
    order = np.random.default_rng([seed, pass_index]).permutation(len(cells))
    out = []
    for c in order.tolist():
        d, n, eps = cells[c]
        out.append((d, n, eps, uniform_points(seed, n, d, salt=(pass_index, c))))
    return out


def points_json(points: list[list[float]], root: int = 0) -> str:
    """Points file in the format ``slt build`` and ``slt verify`` read."""
    data = {"dim": len(points[0]), "points": points, "root": root}
    return json.dumps(data, sort_keys=True, separators=(", ", ": ")) + "\n"

"""The shortest-path kernel, root-stretch measurement, the build report and
the collector pause every build runs under.

``dijkstra`` is the one shortest-path kernel: folding, core2d and the
pyramid each end with its tree from the root, and ``measure`` takes a
returned tree's root distances from it.  It runs Bellman-Ford rounds in
numpy, finishes a deep tree with a heap, and gives a binary-heap
Dijkstra's distances and parents, ties included; that Dijkstra is the
tests' oracle.
"""
from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush

import numpy as np

from .errors import Unreachable
from .geometry import lengths
from .mst_path import SteinerGraph, Tree


def collector_paused(build):
    """``build`` run with Python's cyclic garbage collector paused.

    A build makes many small containers that live until it returns, and no
    reference cycles, so the collector would scan them again and again and
    free nothing.  The collector is turned back on
    afterwards, also when ``build`` raises, but only if it was on before.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()

    return paused


def dijkstra(n: int, ends, weights, source: int):
    """Nonnegative-weight shortest paths from ``source``, with the heap's tie rule.

    ``ends`` is an (m, 2) array of undirected edges and ``weights`` their
    (m,) weights, all at least 0.  Returns (dists, parent) as lists;
    unreachable vertices get inf and -1.  Both equal what a binary-heap
    Dijkstra gives (the tests' oracle), which settles the least
    (distance, index) among the vertices it has reached and offers
    fl(d(u) + w) from each settled u.

    Distances.  Full Bellman-Ford rounds offer every edge's sum
    fl(d(u) + w) to both ends at once, until a round lowers nothing.  As
    w >= 0 and fl(a + w) is monotone in a, fl(d(u) + w) >= d(u): a
    neighbour settled after v offers v nothing below d(v), so the heap's
    d is a fixed point of a round.  No offer goes below it (monotony
    again, by induction over offers), and once no edge offers less, every
    vertex holds it (induction along the heap's tree).  So any order of
    offers that runs until no edge offers less ends on the heap's d, and
    the rounds do after at most the tree's hop depth + 1 of them.

    Cost.  A round scans all 2m directed edges, so the rounds cost O(m)
    times the hop depth, and a deep tree makes that quadratic: points
    along a ray from the root give a hop per point, and there sums that
    differ in their last bits lower most vertices again and again.  So
    the rounds stop after 2 log2(2m) of them, O(m log m) as a heap costs,
    and ``_settle`` reaches the same fixed point in Dijkstra's order.
    The factor 2 keeps the builds' shallow trees, up to 18 rounds over
    2m = 600 to 50,000 edges, within the rounds alone.

    Parents.  A vertex's parent is the lowest-index neighbour u settled
    before it with fl(d(u) + w) == d(v).  Every such u with d(u) < d(v)
    is settled before v.  An edge whose weight rounds to nothing against
    d(u) joins two vertices of equal distance, and there the heap's order
    is not (d(u), u) < (d(v), v): a vertex reached only through such an
    edge enters late, so a higher index can be settled first.  For those
    edges alone the heap's order is replayed (``_settled_first``), so
    every parent is the heap's.

    A sum past the largest float is inf, as in Python, without numpy's
    overflow warning: an edge that weighs inf reaches nothing.
    """
    ends = np.asarray(ends, dtype=np.intp).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    w = np.concatenate([weights, weights])
    dists = np.full(n, math.inf)
    dists[source] = 0.0
    rounds = 2 * len(tail).bit_length()
    with np.errstate(over="ignore"):
        lowered = _relax(dists, tail, head, w)
        while len(lowered):
            rounds -= 1
            if not rounds:
                dists = _settle(dists, lowered, tail, head, w)
                break
            lowered = _relax(dists, tail, head, w)
        at_tail = dists[tail]
        at_head = dists[head]
        tight = (at_tail + w == at_head) & (at_head < math.inf)
    before = at_tail < at_head
    strict = tight & before
    parent = np.full(n, n, dtype=np.intp)
    np.minimum.at(parent, head[strict], tail[strict])
    level = tight & ~before & (tail != head)
    if level.any():
        seeded = parent < n
        seeded[source] = True
        first = _settled_first(dists, tail[level].tolist(), head[level].tolist(), seeded)
        np.minimum.at(parent, head[level][first], tail[level][first])
    parent[parent == n] = -1
    return dists.tolist(), parent.tolist()


def _relax(dists, tail, head, w):
    """One Bellman-Ford round over the directed edges tail -> head.

    Lowers ``dists`` in place to the least sum offered to each head and
    returns the heads it lowered, once per lowering edge.
    """
    cand = dists[tail] + w
    lower = cand < dists[head]
    heads = head[lower]
    if len(heads):
        np.minimum.at(dists, heads, cand[lower])
    return heads


def _settle(dists, lowered, tail, head, w):
    """The rounds' fixed point, reached in Dijkstra's order from ``lowered``.

    Every edge out of a vertex the last round did not lower already
    offers its head nothing less.  A heap pops the vertices by distance,
    starting from ``lowered``, and offers along each popped vertex's
    edges; as fl(d + w) >= d, the pops come in ascending distance, so a
    vertex is popped at its final distance, once, and nothing it pops
    later lowers it.  When the heap empties no edge offers less.
    """
    n = len(dists)
    order = np.argsort(tail)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tail, minlength=n), out=start[1:])
    start, head, w = start.tolist(), head[order].tolist(), w[order].tolist()
    d = dists.tolist()
    heap = [(d[v], v) for v in set(lowered.tolist())]
    heapify(heap)
    while heap:
        du, u = heappop(heap)
        if du > d[u]:
            continue
        for e in range(start[u], start[u + 1]):
            v, c = head[e], du + w[e]
            if c < d[v]:
                d[v] = c
                heappush(heap, (c, v))
    return np.array(d)


def _settled_first(dists, tails, heads, seeded) -> list[bool]:
    """Per edge tail -> head of equal distance: is the tail settled first?

    Replays the heap's order on the ends of these edges: a vertex enters
    when ``seeded`` (reached from a lower distance, or the source) or when
    a neighbour across one of these edges is settled, and the lowest
    (distance, index) entered is settled next.
    """
    out: dict[int, list[int]] = {}
    for u, v in zip(tails, heads):
        out.setdefault(u, []).append(v)
    heap = [(dists[v], v) for v in out if seeded[v]]
    heapify(heap)
    rank: dict[int, int] = {}
    while heap:
        d, v = heappop(heap)
        if v in rank:
            continue
        rank[v] = len(rank)
        for u in out[v]:
            if u not in rank:
                heappush(heap, (d, u))
    return [rank[u] < rank[v] for u, v in zip(tails, heads)]


def root_paths(parent, root: int, targets) -> list[int]:
    """Ids of the vertices on the root's paths to the targets, ascending.

    ``parent`` holds each vertex's parent in a shortest-path tree from
    ``root``; a target whose path ends elsewhere raises Unreachable.
    """
    on_path = [False] * len(parent)
    on_path[root] = True
    for t in targets:
        v = t
        while not on_path[v]:
            on_path[v] = True
            v = parent[v]
            if v < 0:
                raise Unreachable(f"vertex {t} not reachable from the root")
    return [v for v in range(len(parent)) if on_path[v]]


@dataclass
class SltReport:
    """Measured quantities for one tree: the values every method reports.

    Every build and ``slt verify`` make it with ``measure``.
    Method-specific values (folding's gamma, phase-1 weight and surface
    angles; the per-level apex angles of core2d and pyramid; counters)
    live in ``flags``.
    """

    n: int
    d: int
    eps: float
    mst_weight: float
    tree_weight: float
    lightness: float
    per_point_stretch: list[float]
    max_stretch: float
    flags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The report as plain data, its lists and ``flags`` copied one level deep."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_point_stretch"] = list(self.per_point_stretch)
        out["flags"] = {k: list(v) if isinstance(v, list) else v for k, v in self.flags.items()}
        return out


def measure(
    graph: SteinerGraph, tree: Tree, vertex_of: list[int], eps: float, mst_weight: float,
    flags: dict,
) -> SltReport:
    """The report of a returned tree, as ``slt verify`` measures it.

    Input i is tree vertex ``vertex_of[i]`` and the root input is
    ``tree.root``: one stretch per input, in input order, from tree
    distances (the root's is 1.0), and the tree's weight against the MST's.

    The tree distances are ``dijkstra``'s, and they are the floats of a
    walk down the tree, d(v) = fl(d(p) + w) for the edge p-v of weight w
    towards the root.  In a tree each vertex v but the root has exactly
    one neighbour p towards the root.  Any other neighbour c offers
    fl(d(c) + w'), which is at least d(c), which is at least d(v), as
    w' >= 0 and rounding is monotone.  So the kernel's fixed point is
    d(v) = fl(d(p) + w), the walk's value.  Its rounds are one vector add
    per hop level, and a tree deeper than its round cap, such as points
    on a ray, ends in the kernel's heap.
    """
    dists, _ = dijkstra(graph.n, tree.edges, tree.weights, tree.root)
    ids = np.array(vertex_of, dtype=np.intp)
    d = np.array(dists)[ids]
    cut_off = np.flatnonzero(d == math.inf)
    if len(cut_off):
        raise Unreachable(f"vertex {vertex_of[cut_off[0]]} not reachable from the root")
    far = ids != tree.root
    stretch = np.ones(len(ids))
    with np.errstate(invalid="ignore"):  # inf / inf is nan, as in Python
        stretch[far] = d[far] / lengths(graph.coords[ids[far]], graph.coords[tree.root])
    per_point = stretch.tolist()
    weight = tree.weight
    return SltReport(
        n=len(vertex_of),
        d=graph.coords.shape[1],
        eps=eps,
        mst_weight=mst_weight,
        tree_weight=weight,
        lightness=weight / mst_weight,
        per_point_stretch=per_point,
        max_stretch=max(per_point),
        flags=flags,
    )

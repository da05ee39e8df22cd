"""The shortest-path kernel, root-stretch measurement, the build report and
the collector pause every build runs under."""
from __future__ import annotations

import functools
import gc
import math
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush

from .errors import Unreachable
from .geometry import Point, dist
from .mst_path import Tree


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


def adjacency(n: int, edges) -> list[list[tuple[int, float]]]:
    """Neighbour lists ``(vertex, weight)`` of an undirected edge list, in edge order."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra(n: int, adj: list[list[tuple[int, float]]], source: int):
    """Nonnegative-weight shortest paths; ties broken by vertex index.

    Vertices are settled in (distance, index) order.  A vertex's distance
    is the least float sum d(v) + w over its neighbours v settled before
    it, and its parent is the lowest-index such v whose sum equals that
    distance; a neighbour settled later never changes either.  Returns
    (dist array, parent array); unreachable vertices keep inf / -1.
    """
    dist_arr = [math.inf] * n
    parent = [-1] * n
    dist_arr[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w in adj[v]:
            nd = d + w
            if nd < dist_arr[u] or (nd == dist_arr[u] and not done[u] and v < parent[u]):
                dist_arr[u] = nd
                parent[u] = v
                heappush(heap, (nd, u))
    return dist_arr, parent


def tree_distances(tree: Tree, source: int):
    """Exact path lengths from ``source`` within a tree."""
    adj = adjacency(tree.n, tree.edges)
    dist_arr = [math.inf] * tree.n
    dist_arr[source] = 0.0
    stack = [source]
    while stack:
        v = stack.pop()
        for u, w in adj[v]:
            if math.isinf(dist_arr[u]):
                dist_arr[u] = dist_arr[v] + w
                stack.append(u)
    return dist_arr


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


def root_stretch(
    tree: Tree,
    coords: list[Point],
    source: int,
    input_vertices: list[int],
) -> list[float]:
    """Per-point ratio of tree distance to Euclidean distance from the root."""
    dist_arr = tree_distances(tree, source)
    out = []
    for v in input_vertices:
        if math.isinf(dist_arr[v]):
            raise Unreachable(f"vertex {v} not reachable from the root")
        if v == source:
            out.append(1.0)
            continue
        out.append(dist_arr[v] / dist(coords[source], coords[v]))
    return out


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
        return asdict(self)


def measure(
    tree: Tree, coords: list[Point], vertex_of: list[int], eps: float, mst_weight: float,
    flags: dict,
) -> SltReport:
    """The report of a returned tree, as ``slt verify`` measures it.

    Input i is tree vertex ``vertex_of[i]`` and the root input is
    ``tree.root``: one stretch per input, in input order, from tree
    distances (the root's is 1.0), and the tree's weight against the MST's.
    """
    per_point = root_stretch(tree, coords, tree.root, vertex_of)
    weight = tree.weight
    return SltReport(
        n=len(vertex_of),
        d=len(coords[tree.root]),
        eps=eps,
        mst_weight=mst_weight,
        tree_weight=weight,
        lightness=weight / mst_weight,
        per_point_stretch=per_point,
        max_stretch=max(per_point),
        flags=flags,
    )

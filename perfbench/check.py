"""Independent check of a tree file against its input points.

Uses nothing from ``slt``: the tree structure, every root distance and the
MST weight are recomputed here, so a wrong tree cannot pass because the
program under test agrees with itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

REL_TOL = 1e-9


def prim_mst_weight(points: np.ndarray) -> float:
    """Weight of the Euclidean MST by dense Prim, O(n) memory.

    Distances are formed from coordinate differences, never from a Gram
    matrix, so large offsets do not lose precision.
    """
    n = len(points)
    best = np.full(n, np.inf)
    in_tree = np.zeros(n, dtype=bool)
    v = 0
    weights = []
    for _ in range(n - 1):
        in_tree[v] = True
        d = np.sqrt(((points - points[v]) ** 2).sum(axis=1))
        np.minimum(best, d, out=best)
        best[in_tree] = np.inf
        v = int(np.argmin(best))
        weights.append(float(best[v]))
    return math.fsum(sorted(weights))


def check_tree(doc: dict, points: list[list[float]], root: int, eps: float) -> tuple[list[str], dict]:
    """Return (problems, measured) for the tree file ``doc``.

    ``problems`` is empty iff the edges form a spanning tree over valid
    vertex ids, every input point is a vertex, the tree root is the input
    root, and every input's tree distance is within 1+eps of its
    Euclidean distance to the root.  ``measured`` holds max_stretch,
    lightness, vertices and edges as recomputed here.
    """
    problems: list[str] = []
    verts = doc.get("vertices", [])
    nv = len(verts)
    ids = sorted(int(v["id"]) for v in verts)
    if ids != list(range(nv)):
        return ["vertex ids are not exactly 0..n-1"], {}
    coords = np.zeros((nv, len(points[0])))
    for v in verts:
        coords[int(v["id"])] = v["coords"]

    edges = doc.get("edges", [])
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, w = int(e[0]), int(e[1])
        if not (0 <= u < nv and 0 <= w < nv):
            problems.append(f"edge {e} has an out-of-range id")
            continue
        if u == w:
            problems.append(f"self-loop at {u}")
            continue
        key = (min(u, w), max(u, w))
        if key in seen:
            problems.append(f"duplicate edge {key}")
            continue
        seen.add(key)
    if problems:
        return problems, {}
    if len(edges) != nv - 1:
        problems.append(f"{len(edges)} edges on {nv} vertices: not a tree")
    pairs = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    lengths = np.sqrt(((coords[pairs[:, 0]] - coords[pairs[:, 1]]) ** 2).sum(axis=1))
    adj: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
    for (u, w), length in zip(pairs.tolist(), lengths.tolist()):
        adj[u].append((w, length))
        adj[w].append((u, length))

    tree_root = int(doc.get("root", -1))
    if not 0 <= tree_root < nv:
        return problems + [f"tree root {tree_root} out of range"], {}
    # Root distances by our own traversal of the tree.
    tdist = np.full(nv, np.inf)
    tdist[tree_root] = 0.0
    stack = [tree_root]
    while stack:
        v = stack.pop()
        for u, length in adj[v]:
            if math.isinf(tdist[u]):
                tdist[u] = tdist[v] + length
                stack.append(u)
    if np.isinf(tdist).any():
        problems.append("tree does not span its vertices")

    pts = np.asarray(points, dtype=float)
    scale = max(1.0, float(np.ptp(pts, axis=0).max()))
    gap, where = cKDTree(coords).query(pts)
    missing = np.nonzero(gap > REL_TOL * scale)[0]
    if len(missing):
        return problems + [f"input point {int(missing[0])} is not a tree vertex"], {}
    if int(where[root]) != tree_root:
        problems.append("tree root is not the input root")

    euclid = np.sqrt(((pts - pts[root]) ** 2).sum(axis=1))
    others = np.arange(len(pts)) != root
    stretch = tdist[where[others]] / euclid[others]
    max_stretch = float(stretch.max()) if len(stretch) else 1.0
    if not max_stretch <= 1.0 + eps + REL_TOL:
        problems.append(f"stretch {max_stretch} exceeds 1+eps={1.0 + eps}")

    tree_weight = math.fsum(sorted(lengths.tolist()))
    measured = {
        "max_stretch": max_stretch,
        "lightness": tree_weight / prim_mst_weight(pts),
        "vertices": nv,
        "edges": len(edges),
    }
    return problems, measured


def agrees(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)

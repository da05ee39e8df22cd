"""Euclidean MST (Prim, O(n^2)) and its DFS-order Hamiltonian path."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicatePoints
from .geometry import COINCIDENT_TOL, Point, Polyline


@dataclass(frozen=True)
class PointCloud:
    """Finite point set in R^d with a distinguished root index."""

    points: tuple[Point, ...]
    root: int = 0

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty point set")
        d = len(self.points[0])
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if any(len(p) != d for p in self.points):
            raise ValueError("points have mixed dimensions")
        arr = np.asarray(self.points)
        if arr.dtype.kind == "O":
            # Fraction, Decimal, ints beyond 64 bits: math.isfinite accepts
            # every real number and raises TypeError on anything else
            if not all(math.isfinite(c) for p in self.points for c in p):
                raise ValueError("coordinates must be finite")
        elif arr.dtype.kind not in "biuf":
            raise TypeError("coordinates must be real numbers")
        arr = arr.astype(float)
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite")
        if not 0 <= self.root < len(self.points):
            raise ValueError(f"root index {self.root} out of range")
        dup = _duplicate_pairs(arr, self.root)
        if dup:
            raise DuplicatePoints(dup)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


def _moved_near_origin(arr: np.ndarray, root: int) -> np.ndarray:
    """The points moved by the root, rounded to a power of two >= 2 x extent.

    A cloud far from the origin then lies near it, so the Gram form
    |x|^2+|y|^2-2x.y does not cancel.  A cloud whose root is within the
    cloud's extent of the origin is not moved and keeps its exact ties.
    """
    _, exp = np.frexp(np.ptp(arr, axis=0).max())
    unit = np.ldexp(1.0, exp + 1)
    return arr - np.round(arr[root] / unit) * unit


#: Elements per Gram block of the duplicate prefilter: 2 MB per float64 array.
_GRAM_BLOCK = 1 << 18


def _duplicate_pairs(points, root):
    """Index pairs of points that coincide within COINCIDENT_TOL in every coordinate.

    Squared-distance prefilter via the Gram form of the points moved near
    the origin, in blocks of whole rows of at most ``_GRAM_BLOCK`` elements
    (one row if a row is longer), exact max-coordinate check only on the
    candidates.  The pairs come out in row order whatever the block size.
    """
    arr = np.asarray(points, dtype=float)
    n, d = arr.shape
    tol = COINCIDENT_TOL
    pairs = []
    chunk = max(1, _GRAM_BLOCK // n)
    shifted = _moved_near_origin(arr, root)
    sq = np.einsum("ij,ij->i", shifted, shifted)
    # Shrunk by the Gram form's rounding bound, (2d+4) ulp of |x|^2+|y|^2,
    # so no pair within tol can fall outside the prefilter.
    sq *= 1.0 - (2 * d + 4) * np.finfo(float).eps
    thresh = d * tol * tol
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        gram2 = shifted[lo:hi] @ shifted.T
        gram2 *= 2.0
        d2 = sq[lo:hi, None] + sq[None, :]
        d2 -= gram2
        ii, jj = np.nonzero(d2 < thresh)
        ii += lo
        upper = ii < jj  # drops the diagonal, which always passes the prefilter
        for i, j in zip(ii[upper].tolist(), jj[upper].tolist()):
            if np.max(np.abs(arr[i] - arr[j])) < tol:
                pairs.append((i, j))
    return pairs


@dataclass(frozen=True)
class Tree:
    """Rooted spanning tree: n vertices, n-1 weighted edges."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    root: int

    @property
    def weight(self) -> float:
        # fsum over sorted weights: equal edge multisets sum to equal floats.
        return math.fsum(sorted(w for _, _, w in self.edges))


@dataclass(frozen=True)
class HamPath:
    """Vertex order starting at the root plus its geometric polyline."""

    order: tuple[int, ...]
    geometry: Polyline

    @property
    def weight(self) -> float:
        return self.geometry.total_length


#: Relative difference within which candidate edge weights count as equal.
_TIE = 1e-12

#: Largest n for which ``euclidean_mst`` holds the full distance matrix (8 MB).
_FULL_MATRIX_MAX = 1024


def euclidean_mst(pts: PointCloud) -> Tree:
    """Minimum spanning tree of the complete Euclidean graph (Prim).

    Each outside vertex is a candidate through its nearest tree vertex
    (equal distances: the smaller edge pair).  The next edge is the
    lexicographically smallest (min index, max index) pair among the
    candidates within a relative ``_TIE`` of the lightest, so edges of
    equal length are chosen by index, not by the rounding of their lengths.

    Up to ``_FULL_MATRIX_MAX`` points the distances come from one full
    matrix, built in blocks of 64 rows; beyond, each row is computed when
    its vertex joins the tree, in O(n) memory.  Both paths subtract,
    square and add one coordinate at a time, in the same order, then take
    the square root, so they give the same floats and the same tree.
    """
    n = pts.n
    if n == 1:
        return Tree(1, (), pts.root)
    coords = np.asarray(pts.points, dtype=float)
    root = pts.root
    # Distances come from coordinate differences, never from the Gram form
    # |x|^2+|y|^2-2x.y, which cancels for a cluster far from the origin or
    # from the root.
    columns = np.ascontiguousarray(coords.T)
    dist_rows = None
    if n <= _FULL_MATRIX_MAX:  # full matrix, for cheap row lookups
        dist_rows = np.empty((n, n))
        for lo in range(0, n, 64):
            # Rows lo..lo+63 against columns lo..n-1, one coordinate at a
            # time; the block below the diagonal is the mirror image.
            block = np.zeros((min(64, n - lo), n - lo))
            diff = np.empty_like(block)
            for x in columns:
                np.subtract.outer(x[lo : lo + 64], x[lo:], out=diff)
                diff *= diff
                block += diff
            np.sqrt(block, out=block)
            dist_rows[lo : lo + 64, lo:] = block
            dist_rows[lo:, lo : lo + 64] = block.T
    # 0 off the tree, NaN on it: added to a distance row it hides the tree
    # vertices, since NaN never compares closer or equal to a candidate.
    tree_nan = np.zeros(n)

    def row(v):
        tree_nan[v] = np.nan
        if dist_rows is not None:
            return dist_rows[v] + tree_nan
        d = np.zeros(n)
        diff = np.empty(n)
        for x in columns:  # as the full matrix is built; squares drop the sign
            np.subtract(x, x[v], out=diff)
            diff *= diff
            d += diff
        np.sqrt(d, out=d)
        d += tree_nan
        return d

    best = np.full(n, np.inf)
    best_from = np.full(n, -1, dtype=int)
    d = row(root)
    best_from[d < best] = root
    np.fmin(best, d, out=best)
    edges = []
    points = pts.points
    for _ in range(n - 1):
        v = int(best.argmin())
        w = best[v]
        ties = (best <= w + _TIE * w).nonzero()[0]
        if len(ties) > 1:  # grids tie by the hundred: the pair order, vectorized
            src = best_from[ties]
            v = int(ties[(np.minimum(ties, src) * n + np.maximum(ties, src)).argmin()])
        u = int(best_from[v])
        # Store the canonical weight, not the row's rounding of it.
        edges.append((u, v, math.dist(points[u], points[v])))
        best[v] = np.inf
        d = row(v)
        # Equal-distance candidates may still prefer the new edge pair.
        equal = (d == best).nonzero()[0]
        best_from[d < best] = v
        np.fmin(best, d, out=best)
        for t in equal.tolist():
            f = int(best_from[t])
            if (min(t, v), max(t, v)) < (min(t, f), max(t, f)):
                best_from[t] = v
    return Tree(n, tuple(edges), root)


def dfs_hamiltonian(tree: Tree, pts: PointCloud) -> HamPath:
    """Preorder DFS of the tree, children visited in ascending index order."""
    if tree.root != pts.root or tree.n != pts.n:
        raise ValueError("tree does not match the point cloud")
    children: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v, _ in tree.edges:
        children[u].append(v)
        children[v].append(u)
    order = []
    seen = [False] * tree.n
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        order.append(v)
        for c in sorted(children[v], reverse=True):
            if not seen[c]:
                stack.append(c)
    geometry = Polyline(tuple(pts.points[i] for i in order))
    return HamPath(tuple(order), geometry)

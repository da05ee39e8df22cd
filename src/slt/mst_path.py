"""Point clouds, the array records of a tree, the Euclidean MST and its
DFS-order Hamiltonian path.

``PointCloud`` rejects coinciding inputs once, so every build after it
tells vertices apart by id: it sorts the points along one fixed direction
and tests only the pairs within a rounding-safe window of each other.
``euclidean_mst`` is the package's one MST: folding follows its edges and
every report divides by its weight.  Up to 4 dimensions and from 500
points it takes Kruskal over the pairs within a local reach, found by cell
buckets, and Borůvka for the rest; otherwise Prim's tree, O(n^2).

Every build, the tree file and ``slt verify`` share one pair of records:
``SteinerGraph`` is the vertex table, ``Tree`` the topology over it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicatePoints, SltError
from .geometry import COINCIDENT_TOL, Point, Polyline, lengths


@dataclass(frozen=True)
class PointCloud:
    """Finite point set in R^d with a distinguished root index."""

    points: tuple[Point, ...]
    root: int = 0

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty point set")
        if len(self.points) < 2:
            raise ValueError("need at least two points")
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
        dup = _duplicate_pairs(arr)
        if dup:
            raise DuplicatePoints(dup)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


@functools.cache
def _direction(d: int) -> np.ndarray:
    """Square roots of the first d primes, scaled to sum to about 1.

    They are linearly independent over the rationals (Besicovitch, 1940),
    so no integer vector but 0 is orthogonal to the unrounded direction:
    the points of an integer lattice do not tie.  Positive and summing to
    about 1, they keep every projection within the largest |coordinate|.
    """
    primes: list[int] = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in itertools.takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
        k += 1
    u = np.sqrt(np.array(primes, dtype=float))
    u /= u.sum()
    u.flags.writeable = False
    return u


#: Candidate pairs per block of the duplicate check: 0.5 MB per index array.
_PAIR_BLOCK = 1 << 16


def _duplicate_pairs(points) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of points within COINCIDENT_TOL in every coordinate.

    Sorted by the projection p = x.u onto ``_direction(d)``, each point meets
    only the later ones up to fl(p + w), w = S (tol + 4 d eps M): S sums u's
    coordinates, M is the largest |coordinate| and eps = 2^-52.  Those get
    the exact test max|x - y| < tol.  No pair within tol is missed, barring
    overflow.  With e = 2^-53 and d <= 2^32:
    - exactly, |x.u - y.u| <= S max|x - y| <= min(S tol, 2 S M);
    - each p, summed coordinate by coordinate, is within gamma_d S M of x.u,
      gamma_d = d e / (1 - d e) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., 2002, §3.1), and 2 gamma_d <= 2.01 d e;
    - w is at least (1 - 4e) S (tol + 8 d e M) after its four roundings, and
      fl(p + w) - p >= (1 - e) w - e |p| with |p| <= (1 + gamma_d) S M, so
      the window reaches (1 - 5e) S tol + (8d - 1.01) e S M, which is at
      least min(S tol, 2 S M) + (8d - 11.01) e S M, past p: more than the
      2.01 d e S M that rounding can add to a pair's projected distance, if d >= 2.
    The candidates come in blocks of whole sorted positions, at most
    ``_PAIR_BLOCK`` pairs or one position's, so memory stays O(n + block).
    """
    arr = np.asarray(points, dtype=float)
    n, d = arr.shape
    tol = COINCIDENT_TOL
    u = _direction(d)
    columns = np.ascontiguousarray(arr.T)
    proj = columns[0] * u[0]
    for x, uk in zip(columns[1:], u[1:].tolist()):
        proj += x * uk
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    width = math.fsum(u.tolist()) * (tol + 4 * d * np.finfo(float).eps * float(np.abs(arr).max()))
    # Sorted position a meets positions a + 1 .. a + count[a].
    count = np.searchsorted(proj, proj + width, side="right") - np.arange(1, n + 1)
    total = np.cumsum(count)
    found = []
    start = 0
    while start < n:
        stop = np.searchsorted(total, total[start] - count[start] + _PAIR_BLOCK, side="right")
        stop = max(int(stop), start + 1)
        size = count[start:stop]
        a = np.repeat(np.arange(start, stop), size)
        i = order[a]
        a += 1 + np.arange(len(a)) - np.repeat(np.cumsum(size) - size, size)
        j = order[a]
        near = np.ones(len(a), dtype=bool)
        for x in columns:
            near &= np.abs(x[i] - x[j]) < tol
        found.append(np.column_stack((np.minimum(i, j)[near], np.maximum(i, j)[near])))
        start = stop
    return sorted(map(tuple, np.concatenate(found).tolist()))


@dataclass(frozen=True, eq=False)
class SteinerGraph:
    """The vertex table of a tree: vertex v is at ``coords[v]``, of kind ``kinds[v]``.

    Every build numbers its vertices as it makes them, and two vertices
    may share a point.
    """

    coords: np.ndarray  # (n, d) float64
    kinds: list[str]

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class Tree:
    """Rooted spanning tree on n vertices: edge e joins ``edges[e]`` and weighs ``weights[e]``."""

    edges: np.ndarray  # (n - 1, 2) int
    weights: np.ndarray  # (n - 1,) float64
    root: int

    @property
    def n(self) -> int:
        return len(self.edges) + 1

    @property
    def weight(self) -> float:
        # fsum is exactly rounded, so the edge order cannot change it; it
        # raises where finite weights sum past the largest float.
        try:
            return math.fsum(self.weights.tolist())
        except OverflowError:
            raise SltError("tree weight overflows: it passes the largest float") from None


@dataclass(frozen=True)
class HamPath:
    """Vertex order starting at the root plus its geometric polyline."""

    order: tuple[int, ...]
    geometry: Polyline

    @property
    def weight(self) -> float:
        return self.geometry.total_length


#: Relative difference within which Prim takes candidate edge weights as equal.
_TIE = 1e-12

#: Largest n for which ``_prim`` holds the full distance matrix (8 MB).
_FULL_MATRIX_MAX = 1024

#: Largest dimension and smallest size at which ``euclidean_mst`` takes the
#: local candidate graph.  Outside them Prim is faster: the cell
#: neighbourhoods grow as 3^d, and small inputs pay the fixed costs.
_LOCAL_MAX_DIM = 4
_LOCAL_MIN_N = 500


def euclidean_mst(pts: PointCloud) -> Tree:
    """Minimum spanning tree of the complete Euclidean graph.

    Up to ``_LOCAL_MAX_DIM`` dimensions and from ``_LOCAL_MIN_N`` points,
    ``_local_mst``'s tree; otherwise, or where that finds Borůvka too
    costly, ``_prim``'s from the root.  Where distances nearly tie the two
    can differ, as Prim's tie window is not the local path's exact order.
    Only the n - 1 chosen edges are weighed, by ``lengths``.
    """
    edges = None
    if pts.dim <= _LOCAL_MAX_DIM and pts.n >= _LOCAL_MIN_N:
        edges = _local_mst(pts.points)
    if edges is None:
        edges = _prim(pts.points, pts.root)
    points = np.array(pts.points, dtype=float)
    return Tree(edges, lengths(points[edges[:, 0]], points[edges[:, 1]]), pts.root)


def _scaled_columns(points) -> np.ndarray:
    """The coordinate columns times 2^-e, 2^e the least power of two above
    the largest extent: exact barring underflow, and no square overflows."""
    arr = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):
        extent = float(np.ptp(arr, axis=0).max())
    # An extent past the largest float is inf; half of it is not.
    exp = math.frexp(extent)[1] if extent < math.inf else math.frexp(float(np.ptp(0.5 * arr, axis=0).max()))[1] + 1
    return np.ascontiguousarray(np.ldexp(arr, -exp).T)


def _prim(points, root: int) -> np.ndarray:
    """Prim's tree over distinct ``points`` from ``root``, O(n^2), as (u, v) rows.

    Each outside vertex is a candidate through its nearest tree vertex
    (equal distances: the smaller edge pair).  The next edge is the
    lexicographically smallest (min index, max index) pair among the
    candidates within a relative ``_TIE`` of the lightest, so edges of
    equal length are chosen by index, not by the rounding of their lengths.

    The distances come from ``_scaled_columns``.  Up to
    ``_FULL_MATRIX_MAX`` points they come from one full matrix, built in
    blocks of 64 rows; beyond, each row is computed when its vertex joins
    the tree, in O(n) memory.  Both paths subtract, square and add one
    coordinate at a time, in the same order, then take the square root, so
    they give the same floats and the same tree.
    """
    n = len(points)
    # Distances come from coordinate differences, never from the Gram form
    # |x|^2+|y|^2-2x.y, which cancels for a cluster far from the origin or
    # from the root.
    columns = _scaled_columns(points)
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
        # As the full matrix is built; squares drop the sign.
        d = np.sqrt(_squared_rows(columns, [v])[0])
        d += tree_nan
        return d

    best = np.full(n, np.inf)
    best_from = np.full(n, -1, dtype=int)
    d = row(root)
    best_from[d < best] = root
    np.fmin(best, d, out=best)
    edges = []
    for _ in range(n - 1):
        v = int(best.argmin())
        w = best[v]
        ties = (best <= w + _TIE * w).nonzero()[0]
        if len(ties) > 1:  # grids tie by the hundred: the pair order, vectorized
            src = best_from[ties]
            v = int(ties[(np.minimum(ties, src) * n + np.maximum(ties, src)).argmin()])
        edges.append((int(best_from[v]), v))
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
    return np.array(edges, dtype=np.intp).reshape(-1, 2)


def _pairs_within(pts: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rows of ``pts`` at most ``reach`` apart, as (i, j) rows, and their d2.

    Fixed-radius near neighbours by cell buckets (Bentley, Stanat and
    Williams, IPL 1977).  The cells are ``reach`` wide, so a pair within
    reach lies in one cell or in two adjacent ones.  Points are sorted by
    cell key, and each point meets the later points of its own cell and
    the points of the cells at the lexicographically positive half of the
    3^dim - 1 neighbour offsets, each unordered pair of cells once.  Along
    the last axis three neighbouring cells have consecutive keys, so every
    row of offsets is one range of the sorted points.  A candidate is kept
    when its squared distance, summed over the axes in order, is at most
    ``reach``^2.  Returns the pairs in no particular order, and their d2.

    The width has margins of 2^-40 of ``reach`` and 2^-48 of the extent,
    above the rounding of the cell coordinates (at most 2^-51 of the
    extent between two points), so points within reach are never two
    cells apart.  Each axis' occupied cells are renumbered, adjacent ones
    kept adjacent and the others two apart, so the keys stay below
    (2n + 1)^dim however small ``reach`` is.  A zero width (a zero reach
    over one repeated point) becomes 1: one cell.
    """
    if not reach >= 0.0:
        raise ValueError(f"reach must be nonnegative, got {reach}")
    n, dim = pts.shape
    if n < 2:
        return np.empty((0, 2), dtype=np.intp), np.empty(0)
    rel = pts - pts.min(axis=0)
    width = reach * (1.0 + 2.0**-40) + float(rel.max()) * 2.0**-48 or 1.0
    cell = np.empty((dim, n), dtype=np.intp)
    for a in range(dim):
        # Along the sorted cells, a step of 0, 1 or 2 between neighbours: a sort,
        # as np.unique's first call would import numpy.ma inside the build.
        floor = np.floor(rel[:, a] / width)
        by_cell = np.argsort(floor)
        step = np.minimum(np.diff(floor[by_cell]), 2.0).astype(np.intp)
        cell[a, by_cell] = np.concatenate(([1], 1 + np.cumsum(step)))
    dims = cell.max(axis=1) + 2
    key = np.ravel_multi_index(cell, dims)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # Per sorted point, one range [lo, hi) of partners per row of offsets:
    # its own cell after it and the next cell, then each positive row.
    lo = [np.arange(1, n + 1)]
    hi = [np.searchsorted(key, key + 1, side="right")]
    strides = np.cumprod(dims[:0:-1])[::-1].tolist()
    for row in itertools.product((-1, 0, 1), repeat=dim - 1):
        if row > (0,) * (dim - 1):
            shift = sum(o * s for o, s in zip(row, strides))
            lo.append(np.searchsorted(key, key + (shift - 1), side="left"))
            hi.append(np.searchsorted(key, key + (shift + 1), side="right"))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    size = hi - lo
    i = np.repeat(np.tile(np.arange(n), len(size) // n), size)
    j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(size) - size), size)
    d2 = np.zeros(len(i))
    for a in range(dim):
        col = pts[order, a]
        x = col[j] - col[i]
        x *= x
        d2 += x
    near = d2 <= reach * reach
    return np.column_stack((order[i[near]], order[j[near]])), d2[near]


#: Points whose median nearest-neighbour distance sets the first reach.
_REACH_SAMPLE = 64

#: Elements per block of Borůvka's distance rows: 2 MB per float64 array.
_GRAM_BLOCK = 1 << 18

#: Borůvka row entries that cost as much as one pair within reach.
_PAIR_COST = 64

#: Most pairs per point that a reach may be grown to, about: each holds
#: 150 to 600 bytes of temporaries in ``_pairs_within``.
_PAIRS_PER_POINT = 16


def _local_mst(points) -> np.ndarray | None:
    """The MST's edges as (lo, hi) rows, by Kruskal within a reach, then Borůvka.

    Pairs are ordered by (d2, lower index, higher index), d2 the squared
    distance summed axis by axis over ``_scaled_columns`` as
    ``_pairs_within`` and ``_squared_rows`` sum it.  The order is strict,
    so its MST is unique: Kruskal (Proc. AMS 1956) over the pairs with
    d2 <= fl(reach^2) picks exactly its edges among them, and the cut
    property puts each component's least outside edge in it (Borůvka).

    - The first reach is 1.01 times the median nearest-neighbour distance
      of at most ``_REACH_SAMPLE`` sampled points.  Each round joins, in
      order, the pairs from ``_pairs_within`` whose ends are not yet
      joined.  Those hold every pair with d2 <= fl(reach^2): for dim <= 4
      and u = 2^-53, d2 is within 6u of the squared distance (3u per
      square, 3u for the sum), so such a pair lies within reach (1 + 4u)
      < reach (1 + 2^-40), and the cells' margin already covers it.
    - The reach doubles while Borůvka's rows would cost more than the
      pairs within twice the reach: a row per point outside the largest
      component for about log2(components) rounds, against about 2^dim
      times the pairs now, ``_PAIR_COST`` row entries each.  So it grows
      while many points are left, and not for the far apex of a lattice.
      It grows to at most about ``_PAIRS_PER_POINT`` pairs per point.
      Past that, if Borůvka would take more rows than Prim's n, as for
      many far clusters, it returns None: Prim is cheaper.
    - Each Borůvka round takes, for every point outside the largest
      component, its row's least d2 to another component at its least
      column, the row's least pair in the order; one ``lexsort`` then gives
      each component its least (d2, lo, hi).  The rows come in blocks of
      ``_GRAM_BLOCK`` entries.
    """
    n, dim = len(points), len(points[0])
    columns = _scaled_columns(points)
    d2 = _squared_rows(columns, np.arange(0, n, -(-n // _REACH_SAMPLE)))
    d2[d2 == 0.0] = np.inf  # each sampled point's own column
    nearest = np.sort(d2.min(axis=1))
    half = len(nearest) // 2  # the median as np.median takes it, without numpy.ma
    median = nearest[half] if len(nearest) % 2 else (nearest[half - 1] + nearest[half]) / 2
    reach = 1.01 * math.sqrt(float(median))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    chosen = []

    def join(los, his):
        for i, j in zip(los.tolist(), his.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                chosen.append((i, j))

    label = np.arange(n)
    while True:
        pairs, d2 = _pairs_within(columns.T, reach)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        cross = label[lo] != label[hi]
        lo, hi, d2 = lo[cross], hi[cross], d2[cross]
        order = np.lexsort((hi, lo, d2))
        join(lo[order], hi[order])
        components = n - len(chosen)
        if components == 1:
            break
        label = _roots(parent)
        outside = n - int(np.bincount(label).max())
        rows = outside * math.log2(components)
        more = 2**dim * max(len(pairs), n)
        if rows * n <= _PAIR_COST * more:
            break
        if more > _PAIRS_PER_POINT * n:
            if rows > n:
                return None
            break
        reach *= 2.0
    while len(chosen) < n - 1:
        outside = np.flatnonzero(label != np.bincount(label).argmax())
        near = np.empty(len(outside))
        col = np.empty(len(outside), dtype=np.intp)
        step = max(1, _GRAM_BLOCK // n)
        for s in range(0, len(outside), step):
            block = outside[s : s + step]
            d2 = _squared_rows(columns, block)
            d2[label[block][:, None] == label] = np.inf
            col[s : s + step] = j = d2.argmin(axis=1)
            near[s : s + step] = d2[np.arange(len(block)), j]
        lo, hi = np.minimum(outside, col), np.maximum(outside, col)
        comp = label[outside]
        order = np.lexsort((hi, lo, near, comp))
        first = np.ones(len(order), dtype=bool)
        first[1:] = comp[order[1:]] != comp[order[:-1]]
        order = order[first]
        join(lo[order], hi[order])
        label = _roots(parent)
    return np.array(chosen, dtype=np.intp)


def _squared_rows(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances of the points ``rows`` to all, as ``_prim`` sums them."""
    d2 = np.zeros((len(rows), columns.shape[1]))
    diff = np.empty_like(d2)
    for x in columns:
        np.subtract.outer(x[rows], x, out=diff)
        diff *= diff
        d2 += diff
    return d2


def _roots(parent: list[int]) -> np.ndarray:
    """Each point's union-find root, by pointer jumping."""
    root = np.array(parent)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def dfs_hamiltonian(tree: Tree, pts: PointCloud) -> HamPath:
    """Preorder DFS of the tree, children visited in ascending index order."""
    if tree.root != pts.root or tree.n != pts.n:
        raise ValueError("tree does not match the point cloud")
    children: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges.tolist():
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

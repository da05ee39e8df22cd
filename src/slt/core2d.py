"""Recursive triangle construction over a narrow isosceles instance.

The instance is an isosceles triangle with a thin apex angle and points on
its base.  Each level halves every base interval and erects congruent
isosceles sub-triangles whose apex angles grow by a factor lambda; the
level apices form a binary tree that, together with a path along the
base line, carries shortest paths from the apex to every base point with
constant lightness.

Everything is computed in a canonical frame (base on the x-axis centered
at the origin, apex on the positive y-axis, unit legs) and mapped back to
the caller's plane on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AngleOverflow, Disconnected, EpsOutOfRange
from .geometry import COINCIDENT_TOL, PlanePoint, angle_at_apex, dist, each
from .metrics import dijkstra
from .mst_path import Tree

_ISO_TOL = 1e-9


def levels_for_eps(eps: float) -> int:
    """Number of subdivision levels: ceil(log2 sqrt(1/eps)) + 1."""
    return math.ceil(0.5 * math.log2(1.0 / eps)) + 1


@dataclass(frozen=True)
class CoreInstance:
    """Isosceles triangle (apex, base_a, base_b) with points on the base."""

    apex: PlanePoint
    base_a: PlanePoint
    base_b: PlanePoint
    base_points: tuple[PlanePoint, ...]
    eps: float
    lam: float = 1.25

    def __post_init__(self):
        if not 0.0 < self.eps < math.pi / 4:
            raise EpsOutOfRange(f"eps={self.eps} outside (0, pi/4)")
        if not 1.0 < self.lam < 2.0:
            raise ValueError(f"lambda={self.lam} outside (1, 2)")
        la = dist(self.apex, self.base_a)
        lb = dist(self.apex, self.base_b)
        if abs(la - lb) > _ISO_TOL * max(la, lb):
            raise ValueError("triangle is not isosceles")
        if self.apex_angle > math.sqrt(self.eps) + _ISO_TOL:
            raise ValueError("apex angle exceeds sqrt(eps)")
        ab = dist(self.base_a, self.base_b)
        for p in self.base_points:
            off = _dist_to_segment(p, self.base_a, self.base_b)
            if off > _ISO_TOL * max(ab, la):
                raise ValueError("base point off the base segment")

    @cached_property  # the checks above and the core's levels both read it
    def apex_angle(self) -> float:
        return angle_at_apex(self.apex, self.base_a, self.base_b)

    @property
    def k(self) -> int:
        return levels_for_eps(self.eps)

    @classmethod
    def canonical(cls, eps: float, n_base: int, lam: float = 1.25) -> "CoreInstance":
        """Unit-leg triangle with apex angle sqrt(eps) and n interior base points."""
        alpha = math.sqrt(eps)
        h = math.cos(alpha / 2.0)
        w2 = math.sin(alpha / 2.0)
        pts = tuple(
            (-w2 + (j + 1) * (2.0 * w2) / (n_base + 1), 0.0) for j in range(n_base)
        )
        return cls((0.0, h), (-w2, 0.0), (w2, 0.0), pts, eps, lam)


def core2d_points(eps: float, n_base: int) -> tuple[PlanePoint, ...]:
    """Input of the core2d build for ``CoreInstance.canonical``: apex first."""
    inst = CoreInstance.canonical(eps, n_base)
    return (inst.apex, inst.base_a, inst.base_b) + inst.base_points


def _dist_to_segment(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = min(max(((px - ax) * dx + (py - ay) * dy) / L2, 0.0), 1.0)
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


@dataclass(frozen=True)
class Frame:
    """Similarity transform between the caller's plane and the canonical frame."""

    origin: PlanePoint
    ex: PlanePoint
    ey: PlanePoint
    scale: float  # multiply caller lengths by this to get canonical lengths

    def to_canonical(self, p: PlanePoint) -> PlanePoint:
        dx, dy = p[0] - self.origin[0], p[1] - self.origin[1]
        return (
            (dx * self.ex[0] + dy * self.ex[1]) * self.scale,
            (dx * self.ey[0] + dy * self.ey[1]) * self.scale,
        )

    def to_plane(self, q: PlanePoint) -> PlanePoint:
        x, y = q[0] / self.scale, q[1] / self.scale
        return (
            self.origin[0] + x * self.ex[0] + y * self.ey[0],
            self.origin[1] + x * self.ex[1] + y * self.ey[1],
        )


@dataclass
class CoreGraph:
    """Geometric graph of the recursive construction, in canonical coords."""

    coords: list[PlanePoint]
    kinds: list[str]  # root | apex | grid | input
    levels: list[int]  # apex level, -1 otherwise
    edges: list[tuple[int, int, float]]
    frame: Frame
    alpha: float
    lam: float
    k: int
    chain: list[float]  # d(apex_i, apex_{i+1]) per level; last entry to base
    base_path_weight: float
    root: int = 0
    input_ids: list[int] = field(default_factory=list)
    grid_ids: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.coords)

    def plane_coords(self, i: int) -> PlanePoint:
        return self.frame.to_plane(self.coords[i])


def _grid_x(xa: float, xb: float, i: int, j: int) -> float:
    """Canonical x of the j-th of the 2^i + 1 equally spaced points from xa to xb."""
    f = j / (1 << i)
    return xa * (1.0 - f) + xb * f


def core_layout(inst: CoreInstance):
    """Canonical frame and points of the core, placed as ``build_core`` places them.

    Returns the frame, the apices per level (level 0 holds the root), the
    grid, the base points and the grid vertex each sits on (-1 if none).
    """
    chain = CoreChain.of(inst)
    frame, xa, xb, k, heights = chain.frame, chain.xa, chain.xb, chain.k, chain.heights
    xs = [[_grid_x(xa, xb, i, j) for j in range((1 << i) + 1)] for i in range(k + 1)]
    apices = [[frame.to_canonical(inst.apex)]] + [
        [(0.5 * (x0 + x1), h) for x0, x1 in zip(xi, xi[1:])] for xi, h in zip(xs[1:], heights[1:])]
    base = [frame.to_canonical(p) for p in inst.base_points]
    xtol = 1e-12 * max(abs(xa), abs(xb), 1.0)
    nearest = [round((q[0] - xa) / (xb - xa) * (1 << k)) if xb > xa else 0 for q in base]
    on = [j if 0 <= j <= (1 << k) and abs(q[0] - xs[k][j]) <= xtol and abs(q[1]) <= xtol
          else -1 for q, j in zip(base, nearest)]
    return frame, apices, [(x, 0.0) for x in xs[k]], base, on


def portal_grid(x: int, m: int, k: int) -> tuple[int, int]:
    """Where base point x of m + 1 equally spaced from base_a to base_b meets the grid.

    Point x sits at x * 2^k / m grid units.  Off the grid, its shortest
    path comes along the base from the nearer grid vertex j (the lower at
    the exact half), through the next base point if that is not past j.
    Returns (j if x is on grid vertex j else -1, next base point or -1 - j).
    """
    j, rem = divmod(x << k, m)
    if rem == 0:
        return j, -1 - j
    j, y = (j + 1, x + 1) if 2 * rem > m else (j, x - 1)
    return -1, (y if (y - x) * ((y << k) - j * m) <= 0 else -1 - j)  # y not past j


@dataclass(frozen=True)
class CoreChain:
    """A core's shortest paths from its apex in closed form, without its graph.

    The apices of a level share one height, and they and the grid are
    equally spaced, so every path from the root to a level is equally
    long.  A key names an apex (level, index) or grid vertex j as (-1, j);
    ``point`` places it where ``core_layout`` does.
    """

    frame: Frame
    xa: float
    xb: float
    k: int
    dists: tuple[float, ...]  # root distance in the plane per level; k + 1 is the grid
    heights: tuple[float, ...]  # canonical height of the apices per level

    @classmethod
    def of(cls, inst: CoreInstance) -> "CoreChain":
        one = [np.array([p], dtype=float) for p in (inst.apex, inst.base_a, inst.base_b)]
        return core_chains(*one, np.array([inst.eps]), inst.lam).chain(0)

    def point(self, key: tuple[int, int]) -> PlanePoint:
        i, j = key
        if i < 0:
            return self.frame.to_plane((_grid_x(self.xa, self.xb, self.k, j), 0.0))
        x = 0.5 * (_grid_x(self.xa, self.xb, i, j) + _grid_x(self.xa, self.xb, i, j + 1))
        return self.frame.to_plane((x, self.heights[i]))

    def path(self, j: int, placed) -> list[tuple[int, int]]:
        """Keys of the apices on a shortest path from the root to grid vertex j.

        The tie rule: apices j - 1 and j are equally far from the root and
        from grid vertex j.  Take the one whose chain has the deepest apex
        in ``placed``, else the higher index.  Paths taken by ascending grid
        vertex then share what they can: j + 1 takes apex j from j's path.
        """
        k = self.k
        depth = {a: next((i for i in range(k, 0, -1) if (i, a >> (k - i)) in placed), 0)
                 for a in (j - 1, j) if 0 <= a < 1 << k}
        a = max(depth, key=lambda a: (depth[a], a))
        return [(i, a >> (k - i)) for i in range(1, k + 1)]


@dataclass
class CoreChains:
    """The ``CoreChain`` of many triangles, one row each, as arrays.

    ``heights`` and ``dists`` are padded past level k + 1; ``chain(i)``
    is row i's ``CoreChain``.
    """

    origin: np.ndarray  # (c, 2): the frame's origin, ex and ey
    ex: np.ndarray
    ey: np.ndarray
    scale: np.ndarray  # (c,)
    xa: np.ndarray
    xb: np.ndarray
    k: np.ndarray
    dists: np.ndarray  # (c, K + 2)
    heights: np.ndarray  # (c, K + 2)

    def chain(self, i: int) -> CoreChain:
        k = int(self.k[i])
        frame = Frame(tuple(self.origin[i].tolist()), tuple(self.ex[i].tolist()),
                      tuple(self.ey[i].tolist()), float(self.scale[i]))
        return CoreChain(frame, float(self.xa[i]), float(self.xb[i]), k,
                         tuple(self.dists[i, :k + 2].tolist()), tuple(self.heights[i, :k + 1].tolist()))

    def grid_points(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``chain(i).point((-1, j))`` for each pair of rows i and grid vertices j."""
        f = j / np.left_shift(1, self.k[i])
        x = (self.xa[i] * (1.0 - f) + self.xb[i] * f) / self.scale[i]
        y = 0.0 / self.scale[i]
        o, ex, ey = self.origin[i], self.ex[i], self.ey[i]
        return np.stack([o[:, 0] + x * ex[:, 0] + y * ey[:, 0],
                         o[:, 1] + x * ex[:, 1] + y * ey[:, 1]], axis=-1)


def core_chains(apex: np.ndarray, base_a: np.ndarray, base_b: np.ndarray, eps: np.ndarray,
                lam: float) -> CoreChains:
    """The ``CoreChain`` of ``CoreInstance(apex, a, b, (), eps, lam)`` for every row.

    Row by row the floats are those of one triangle at a time: numpy does
    the elementwise arithmetic in the same order, and every libm call is
    made once per element (``each``).  The checks of ``CoreInstance``
    run on every row, and the first faulty row raises its error: the
    instance's own, or ``AngleOverflow`` where the last level's apex
    angle reaches pi/2.
    """
    (sx, sy), (ax, ay), (bx, by) = apex.T, base_a.T, base_b.T
    la, lb = each(math.hypot, sx - ax, sy - ay), each(math.hypot, sx - bx, sy - by)
    # angle_at_apex: the half-angle chord form on the unit directions
    (pa, qa), (pb, qb) = (ax - sx, ay - sy), (bx - sx, by - sy)
    na, nb = np.sqrt(pa * pa + qa * qa), np.sqrt(pb * pb + qb * qb)
    ray = (na < COINCIDENT_TOL) | (nb < COINCIDENT_TOL)
    ia, ib = 1.0 / np.where(ray, 1.0, na), 1.0 / np.where(ray, 1.0, nb)
    pa, qa, pb, qb = ia * pa, ia * qa, ib * pb, ib * qb
    cochord = np.sqrt((pa + pb) * (pa + pb) + (qa + qb) * (qa + qb))
    alpha = 2.0 * each(math.atan2, each(math.hypot, pa - pb, qa - qb), cochord)
    eps_ok = (0.0 < eps) & (eps < math.pi / 4)
    k = np.ceil(0.5 * each(math.log2, 1.0 / np.where(eps_ok, eps, 0.25))).astype(int) + 1  # levels_for_eps
    top = int(k.max(initial=0))
    lam_pow = np.array([lam**i for i in range(top + 1)])
    overflow = alpha * lam_pow[k] >= math.pi / 2.0
    fault = (~eps_ok | (not 1.0 < lam < 2.0) | (np.abs(la - lb) > _ISO_TOL * np.maximum(la, lb))
             | ray | (alpha > np.sqrt(eps) + _ISO_TOL) | overflow)
    if fault.any():
        i = int(np.argmax(fault))
        CoreInstance(*(tuple(p[i].tolist()) for p in (apex, base_a, base_b)), (), float(eps[i]), lam)
        raise AngleOverflow(f"final apex angle {alpha[i] * lam_pow[k[i]]:.4f} reaches pi/2 at level {k[i]}")
    # The frame: origin at the base's midpoint, ex along the base, ey toward the apex.
    ox, oy = 0.5 * (ax + bx), 0.5 * (ay + by)
    abx, aby = bx - ax, by - ay
    w = each(math.hypot, abx, aby)
    exx, exy = abx / w, aby / w
    hx, hy = sx - ox, sy - oy
    proj = hx * exx + hy * exy
    wx, wy = hx - proj * exx, hy - proj * exy
    ny = each(math.hypot, wx, wy)
    eyx, eyy = wx / ny, wy / ny
    scale = 1.0 / la
    # The canonical base ends and the apex height per level (0: the root).
    xa = ((ax - ox) * exx + (ay - oy) * exy) * scale
    xb = ((bx - ox) * exx + (by - oy) * exy) * scale
    span = xb - xa
    heights = np.zeros((len(k), top + 2))
    heights[:, 0] = (hx * eyx + hy * eyy) * scale
    for i in range(1, top + 1):
        at = np.flatnonzero(k >= i)
        heights[at, i] = span[at] / (1 << (i + 1)) / each(math.tan, alpha[at] * lam_pow[i] / 2.0)
    # Every path to a level is equally long: the legs per level, the last one to the grid.
    dx = span[:, None] / np.left_shift(1, np.arange(top + 1) + 2)
    dx[np.arange(len(k)), k] = span / np.left_shift(1, k + 1)
    legs = each(math.hypot, dx, heights[:, :-1] - heights[:, 1:])
    dists = np.zeros_like(heights)
    dists[:, 1:] = np.cumsum(legs, axis=1) / scale[:, None]
    return CoreChains(np.stack([ox, oy], -1), np.stack([exx, exy], -1), np.stack([eyx, eyy], -1),
                      scale, xa, xb, k, dists, heights)


def build_core(inst: CoreInstance) -> CoreGraph:
    """Erect the level apices, wire the binary tree and the base path."""
    frame, apices, grid, base, on = core_layout(inst)
    k = len(apices) - 1
    coords = [q for level in apices for q in level] + grid
    kinds = ["root"] + ["apex"] * (len(coords) - len(grid) - 1) + ["grid"] * len(grid)
    levels = [i for i, level in enumerate(apices) for _ in level] + [-1] * len(grid)
    grid_ids = list(range(len(coords) - len(grid), len(coords)))

    input_ids = []
    for q, j in zip(base, on):
        if j >= 0:
            kinds[grid_ids[j]] = "input"  # coincides with a grid vertex
            input_ids.append(grid_ids[j])
            continue
        input_ids.append(len(coords))
        coords.append(q)
        kinds.append("input")
        levels.append(-1)

    edges: list[tuple[int, int, float]] = []

    def connect(u: int, v: int):
        edges.append((u, v, dist(coords[u], coords[v])))

    chain = [0.0] * (k + 1)
    for i in range(k):
        for j in range(1 << i):
            parent = (1 << i) - 1 + j  # apex j of level i
            for child in ((1 << (i + 1)) - 1 + 2 * j, (1 << (i + 1)) + 2 * j):
                connect(parent, child)
                chain[i] = max(chain[i], dist(coords[parent], coords[child]))
    for j in range(1 << k):
        apex = (1 << k) - 1 + j
        for g in (grid_ids[j], grid_ids[j + 1]):
            connect(apex, g)
            chain[k] = max(chain[k], dist(coords[apex], coords[g]))

    base_ids = sorted(
        (v for v in range(len(coords)) if levels[v] == -1 or kinds[v] == "input"),
        key=lambda v: (coords[v][0], v),
    )
    base_path_weight = 0.0
    for u, v in zip(base_ids, base_ids[1:]):
        connect(u, v)
        base_path_weight += edges[-1][2]

    return CoreGraph(coords, kinds, levels, edges, frame, inst.apex_angle, inst.lam, k,
                     chain, base_path_weight, 0, input_ids, grid_ids)


def core_spt(g: CoreGraph):
    """Shortest-path tree of the core graph from the apex."""
    root = g.root
    edges = np.array(g.edges, dtype=float).reshape(-1, 3)
    dists, parent = dijkstra(g.n, edges[:, :2], edges[:, 2], root)
    if any(math.isinf(d) for d in dists):
        raise Disconnected("core graph is not connected")
    tree_edges = tuple(
        (parent[v], v, dist(g.coords[parent[v]], g.coords[v]))
        for v in range(g.n)
        if v != root
    )
    return Tree(g.n, tree_edges, root), dists



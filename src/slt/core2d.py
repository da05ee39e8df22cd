"""Recursive triangle construction over a narrow isosceles instance.

The instance is an isosceles triangle with a thin apex angle and points on
its base.  Each level halves every base interval and erects congruent
isosceles sub-triangles whose apex angles grow by a factor lambda; the
level apices form a binary tree that, together with a path along the
base line, carries shortest paths from the apex to every base point with
constant lightness.

The core is laid out in a canonical frame (base on the x-axis centered at
the origin, apex on the positive y-axis, unit legs), where its edges are
weighed; its apices and grid are mapped back to the caller's plane, and
the root and the base points keep the caller's own coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AngleOverflow, Disconnected, EpsOutOfRange
from .geometry import COINCIDENT_TOL, PlanePoint, angle_at_apex, dist, each, lengths
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


@dataclass
class CoreGraph:
    """Geometric graph of the recursive construction, in canonical coords.

    ``plane`` holds the vertices in the caller's plane: the instance's own
    points for the root and the base points, ``CoreChains.points`` for
    the apices and the grid.
    """

    coords: list[PlanePoint]
    kinds: list[str]  # root | apex | grid | input
    levels: list[int]  # apex level, -1 otherwise
    edges: list[tuple[int, int, float]]
    plane: np.ndarray  # (n, 2)
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


def apex_path(k: int, j: int, placed) -> list[tuple[int, int]]:
    """Keys of the apices on a shortest path from a k-level core's root to grid vertex j.

    The tie rule: apices j - 1 and j are equally far from the root and
    from grid vertex j.  Take the one whose chain has the deepest apex in
    ``placed``, else the higher index.  Paths taken by ascending grid
    vertex then share what they can: j + 1 takes apex j from j's path.
    """
    best = top = -1
    for a in (j - 1, j):  # ascending, so a tie in depth keeps the higher index
        if 0 <= a < 1 << k:
            depth = k
            while depth and (depth, a >> (k - depth)) not in placed:
                depth -= 1
            if depth >= top:
                best, top = a, depth
    return [(i, best >> (k - i)) for i in range(1, k + 1)]


@dataclass
class CoreChains:
    """Cores' shortest paths from their apices in closed form, one row each, as arrays.

    Row i's frame puts its triangle in the canonical one: the origin at
    the base's midpoint, ``ex`` along the base, ``ey`` toward the apex,
    lengths times ``scale`` (unit legs).  There the apices of a level
    share one height (``heights``; level 0 is the root), and they and the
    grid are equally spaced from ``xa`` to ``xb``, so every path from the
    root to a level is equally long: ``dists`` in the caller's plane,
    level k + 1 the grid.  A key names an apex (level, j) or grid vertex
    j as (-1, j).  ``heights`` and ``dists`` are padded past level k + 1.
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

    def to_canonical(self, i: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The points p, (m, 2), of rows i in their rows' canonical frames."""
        o, ex, ey, scale = self.origin[i], self.ex[i], self.ey[i], self.scale[i]
        dx, dy = p[:, 0] - o[:, 0], p[:, 1] - o[:, 1]
        return np.stack([(dx * ex[:, 0] + dy * ex[:, 1]) * scale,
                         (dx * ey[:, 0] + dy * ey[:, 1]) * scale], axis=-1)

    def to_plane(self, i: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The canonical points q, (m, 2), of rows i in the caller's plane."""
        x, y = q[:, 0] / self.scale[i], q[:, 1] / self.scale[i]
        o, ex, ey = self.origin[i], self.ex[i], self.ey[i]
        return np.stack([o[:, 0] + x * ex[:, 0] + y * ey[:, 0],
                         o[:, 1] + x * ex[:, 1] + y * ey[:, 1]], axis=-1)

    def canonical(self, i: np.ndarray, level: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The canonical point of each row i's key (level, j); the root's x is the base's midpoint."""
        grid = level < 0
        shift = np.left_shift(1, np.where(grid, self.k[i], level))
        xa, xb = self.xa[i], self.xb[i]

        def grid_x(j):
            f = j / shift
            return xa * (1.0 - f) + xb * f

        return np.stack([np.where(grid, grid_x(j), 0.5 * (grid_x(j) + grid_x(j + 1))),
                         np.where(grid, 0.0, self.heights[i, np.maximum(level, 0)])], axis=-1)

    def points(self, i: np.ndarray, level: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The point of each row i's key (level, j) in the caller's plane."""
        return self.to_plane(i, self.canonical(i, level, j))


def core_chains(apex: np.ndarray, base_a: np.ndarray, base_b: np.ndarray, eps: np.ndarray,
                lam: float) -> CoreChains:
    """The chains of ``CoreInstance(apex, a, b, (), eps, lam)``, one row each.

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
    """Erect the level apices, wire the binary tree and the base path.

    The layout is the instance's row of ``core_chains``.  Apex j of level
    i is vertex 2^i - 1 + j (level 0 the root), grid vertex j follows the
    apices, and a base point off the grid follows the grid.
    """
    chains = core_chains(*(np.array([p], dtype=float) for p in (inst.apex, inst.base_a, inst.base_b)),
                         np.array([inst.eps]), inst.lam)
    k, xa, xb = int(chains.k[0]), float(chains.xa[0]), float(chains.xb[0])
    level, j = np.array([(i, j) for i in range(k + 1) for j in range(1 << i)]
                        + [(-1, j) for j in range((1 << k) + 1)]).T
    row = np.zeros(len(level), dtype=int)
    apex = np.array([inst.apex], dtype=float)
    coords = chains.canonical(row, level, j)
    coords[0] = chains.to_canonical(row[:1], apex)[0]
    plane = chains.to_plane(row, coords)
    plane[0] = apex[0]

    # A base point within 1e-12 of grid vertex j, in the canonical frame, is that vertex.
    points = np.array(inst.base_points, dtype=float).reshape(-1, 2)
    base = chains.to_canonical(np.zeros(len(points), dtype=int), points)
    grid0, xtol = len(level) - (1 << k) - 1, 1e-12 * max(abs(xa), abs(xb), 1.0)
    on = []
    for x, y in base.tolist():
        g = round((x - xa) / (xb - xa) * (1 << k)) if xb > xa else 0
        on.append(g if 0 <= g <= 1 << k and abs(x - coords[grid0 + g, 0]) <= xtol and abs(y) <= xtol else -1)
    on = np.array(on, dtype=int)
    off = on < 0
    input_ids = np.where(off, len(level) + np.cumsum(off) - 1, grid0 + on)
    coords, plane = np.concatenate([coords, base[off]]), np.concatenate([plane, points[off]])
    plane[input_ids] = points
    kinds = ["root"] + ["apex"] * (grid0 - 1) + ["grid"] * (len(level) - grid0) + ["input"] * int(off.sum())
    for v in input_ids.tolist():
        kinds[v] = "input"

    # Apex v's children are apices 2v + 1 and 2v + 2, and apex j of level
    # k's are grid vertices j and j + 1; the base path joins the grid and
    # the base points off it by x.
    up = np.concatenate([np.arange(grid0 - 1) >> 1, np.repeat(np.arange(grid0 >> 1, grid0), 2)])
    down = np.concatenate([np.arange(1, grid0), grid0 + ((np.arange(2 << k) + 1) >> 1)])
    base_ids = grid0 + np.argsort(coords[grid0:, 0], kind="stable")
    m = len(up)
    up, down = np.concatenate([up, base_ids[:-1]]), np.concatenate([down, base_ids[1:]])
    w = lengths(coords[up], coords[down])
    chain = [float(w[:m][level[up[:m]] == i].max()) for i in range(k + 1)]
    return CoreGraph(list(map(tuple, coords.tolist())), kinds, level.tolist() + [-1] * int(off.sum()),
                     list(zip(up.tolist(), down.tolist(), w.tolist())), plane, inst.apex_angle, inst.lam, k,
                     chain, float(np.cumsum(w[m:])[-1]), 0, input_ids.tolist(), list(range(grid0, len(level))))


def core_spt(g: CoreGraph):
    """Shortest-path tree of the core graph from the apex."""
    root = g.root
    edges = np.array(g.edges, dtype=float).reshape(-1, 3)
    dists, parent = dijkstra(g.n, edges[:, :2], edges[:, 2], root)
    if any(math.isinf(d) for d in dists):
        raise Disconnected("core graph is not connected")
    child = np.delete(np.arange(g.n), root)
    up = np.array(parent)[child]
    coords = np.array(g.coords)
    return Tree(np.stack([up, child], 1), lengths(coords[up], coords[child]), root), dists



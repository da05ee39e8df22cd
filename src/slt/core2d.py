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

from .errors import AngleOverflow, Disconnected, EpsOutOfRange
from .geometry import PlanePoint, angle_at_apex, dist
from .metrics import adjacency, dijkstra
from .mst_path import PointCloud, Tree, euclidean_mst

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

    @property
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


def _make_frame(inst: CoreInstance) -> Frame:
    o = (
        0.5 * (inst.base_a[0] + inst.base_b[0]),
        0.5 * (inst.base_a[1] + inst.base_b[1]),
    )
    abx, aby = inst.base_b[0] - inst.base_a[0], inst.base_b[1] - inst.base_a[1]
    w = math.hypot(abx, aby)
    ex = (abx / w, aby / w)
    sy = (inst.apex[0] - o[0], inst.apex[1] - o[1])
    proj = sy[0] * ex[0] + sy[1] * ex[1]
    wy = (sy[0] - proj * ex[0], sy[1] - proj * ex[1])
    ny = math.hypot(*wy)
    ey = (wy[0] / ny, wy[1] / ny)
    return Frame(o, ex, ey, 1.0 / dist(inst.apex, inst.base_a))


def build_core(inst: CoreInstance) -> CoreGraph:
    """Erect the level apices, wire the binary tree and the base path."""
    frame = _make_frame(inst)
    alpha = inst.apex_angle
    lam = inst.lam
    k = inst.k
    if alpha * lam**k >= math.pi / 2.0:
        raise AngleOverflow(
            f"final apex angle {alpha * lam ** k:.4f} reaches pi/2 at level {k}"
        )

    s = frame.to_canonical(inst.apex)
    a = frame.to_canonical(inst.base_a)
    b = frame.to_canonical(inst.base_b)
    xa, xb = a[0], b[0]

    def grid_x(i: int, j: int) -> float:
        f = j / (1 << i)
        return xa * (1.0 - f) + xb * f

    coords: list[PlanePoint] = [s]
    kinds = ["root"]
    levels = [0]
    apex_id: dict[tuple[int, int], int] = {(0, 0): 0}
    for i in range(1, k + 1):
        theta = alpha * lam**i
        half = (xb - xa) / (1 << (i + 1))
        h = half / math.tan(theta / 2.0)
        for j in range(1 << i):
            mid = 0.5 * (grid_x(i, j) + grid_x(i, j + 1))
            apex_id[(i, j)] = len(coords)
            coords.append((mid, h))
            kinds.append("apex")
            levels.append(i)

    grid_ids = []
    for j in range((1 << k) + 1):
        grid_ids.append(len(coords))
        coords.append((grid_x(k, j), 0.0))
        kinds.append("grid")
        levels.append(-1)

    input_ids = []
    grid_xs = [coords[g][0] for g in grid_ids]
    xtol = 1e-12 * max(abs(xa), abs(xb), 1.0)
    for p in inst.base_points:
        q = frame.to_canonical(p)
        j = round((q[0] - xa) / (xb - xa) * (1 << k)) if xb > xa else 0
        if 0 <= j <= (1 << k) and abs(q[0] - grid_xs[j]) <= xtol and abs(q[1]) <= xtol:
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
            parent = apex_id[(i, j)]
            for child in (apex_id[(i + 1, 2 * j)], apex_id[(i + 1, 2 * j + 1)]):
                connect(parent, child)
                chain[i] = max(chain[i], dist(coords[parent], coords[child]))
    for j in range(1 << k):
        apex = apex_id[(k, j)]
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

    return CoreGraph(
        coords,
        kinds,
        levels,
        edges,
        frame,
        alpha,
        lam,
        k,
        chain,
        base_path_weight,
        0,
        input_ids,
        grid_ids,
    )


def core_spt(g: CoreGraph):
    """Shortest-path tree of the core graph from the apex."""
    root = g.root
    dists, parent = dijkstra(g.n, adjacency(g.n, g.edges), root)
    if any(math.isinf(d) for d in dists):
        raise Disconnected("core graph is not connected")
    tree_edges = tuple(
        (parent[v], v, dist(g.coords[parent[v]], g.coords[v]))
        for v in range(g.n)
        if v != root
    )
    return Tree(g.n, tree_edges, root), dists


@dataclass
class CoreReport:
    tree_weight: float
    level_totals: list[float]
    level_bounds: list[float]
    chain_total: float
    chain_bound: float
    slack: list[float]
    slack_bounds: list[float]
    per_point_stretch: list[float]
    grid_stretch: list[float]
    max_stretch: float
    mst_weight: float
    lightness: float
    lightness_bound: float


def core_metrics(g: CoreGraph, tree: Tree, dists: list[float]) -> CoreReport:
    """Weights, per-level bounds, slack and stretch of the core SPT."""
    alpha, lam, k = g.alpha, g.lam, g.k
    level_totals = [(1 << (i + 1)) * g.chain[i] for i in range(k + 1)]
    level_bounds = [4.0 / lam**i for i in range(k + 1)]
    chain_total = sum(level_totals)
    chain_bound = 4.0 * lam / (lam - 1.0)

    # Slack per chain edge: length minus the size of its y-projection.
    slack = []
    ys = {}
    for v in range(g.n):
        lvl = g.levels[v]
        if lvl >= 0:
            ys.setdefault(lvl, g.coords[v][1])
    for i in range(k + 1):
        y_hi = ys[i]
        y_lo = ys.get(i + 1, 0.0)
        slack.append(g.chain[i] - (y_hi - y_lo))
    slack_bounds = [(alpha**2 / 4.0) * (lam / 2.0) ** i for i in range(k + 1)]

    s = g.coords[g.root]
    per_point = []
    for v in g.input_ids:
        dv = dist(s, g.coords[v])
        per_point.append(dists[v] / dv if dv > 0 else 1.0)
    grid_stretch = [
        dists[v] / dist(s, g.coords[v]) for v in g.grid_ids if dist(s, g.coords[v]) > 0
    ]
    max_stretch = max(per_point) if per_point else 1.0

    input_points = tuple(g.coords[v] for v in g.input_ids)
    tree_weight = tree.weight
    if input_points:
        mst_weight = euclidean_mst(PointCloud((s,) + input_points, 0)).weight
        lightness_val = tree_weight / mst_weight
    else:
        mst_weight = float("nan")
        lightness_val = float("nan")
    lightness_bound = (chain_bound + g.base_path_weight) / math.cos(alpha / 2.0)
    return CoreReport(
        tree_weight,
        level_totals,
        level_bounds,
        chain_total,
        chain_bound,
        slack,
        slack_bounds,
        per_point,
        grid_stretch,
        max_stretch,
        mst_weight,
        lightness_val,
        lightness_bound,
    )

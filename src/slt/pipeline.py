"""End-to-end assembly of the Steiner shallow-light tree in R^d.

Per surface that holds an input (any other adds only its sub-path and
spoke, or only the spoke where no root path can use the sub-path, and
that only if a kept edge made its break point's vertex): secondary break
points along the sub-path, a cross line through the input r closest to
the root, Steiner points on that line, a recursive triangle core feeding
them, and connector edges back to the path.  The
core is contracted to its portals, the Steiner points and r.  Where a
portal meets the core's grid is integer arithmetic, and every grid vertex
is equally far from the root, so each portal hangs off the root by one
edge weighing that distance plus its step along the base, or off the
portal next to it (r joins the line where a base edge of the core tree
runs past its image).  The union over all surfaces is solved in the
plane: input points, break points, secondary break points and the root
keep their R^d coordinates, while every gadget vertex is a planar point of
its surface and every gadget edge weighs its planar length (unfolding is
isometric, so that is the length of its lift).  The tree is the union of
shortest paths from the root to the input points.  Only its gadget
vertices and the bends of its gadget edges are lifted, each once; a kept
core path gets its apices (``CoreChain.path``) and grid vertex only then.
Every vertex keeps its id through the lift: no two are merged by their
coordinates.

The gadgets of a build are made at once, as arrays over (gadget, secondary)
and (gadget, Steiner point) (``build_gadget``), and the graph in one pass
over them (``_realize``).  That gives the floats, vertices and edges, in
their order, that one surface and one element at a time gives: numpy does
the elementwise arithmetic in the same order, every libm function is
called once per element (``each``), and no sum is reassociated.

``assemble_core2d`` runs the recursive triangle core alone on a 2-d instance
and returns the same (graph, tree, report) triple as ``assemble_slt``.  It
lives here, not in ``core2d``, because it needs ``SteinerGraph``.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .breakpoints import SubdividedPath, select_breakpoints, subdivide
from .core2d import CoreChain, CoreChains, CoreInstance, build_core, core_chains, core_spt, portal_grid
from .errors import EmptySurface, EpsOutOfRange, SltError
from .geometry import Point, each
from .metrics import collector_paused, dijkstra, measure, root_paths
from .mst_path import PointCloud, Tree, dfs_hamiltonian, euclidean_mst
from .unfolding import FoldedSurface, build_surfaces, lift, ray_crossings
from .unfolding import lift_segment  # noqa: F401  not called; perfbench's layer trace wraps it


class SteinerGraph:
    """Weighted geometric graph over input and Steiner vertices.

    A vertex is its position in ``coords`` and ``kinds``: every build
    numbers its vertices as it makes them, and two vertices may share a
    point.
    """

    def __init__(self):
        self.coords: list[Point] = []
        self.kinds: list[str] = []
        self.edges: list[tuple[int, int, float]] = []

    @property
    def n(self) -> int:
        return len(self.coords)

    def add_vertex(self, p: Point, kind: str) -> int:
        self.coords.append(p)
        self.kinds.append(kind)
        return len(self.coords) - 1

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v, math.dist(self.coords[u], self.coords[v])))


@dataclass
class FoldingGraph:
    """The folding graph before lifting, its edges as arrays.

    Shared vertices (input points, break points, secondary break points)
    hold R^d coordinates.  A portal holds a planar point of the surface of
    gadget ``vertex_gadget[v]`` (-1 for every other vertex).  Edge e joins
    ``ends[e]`` and weighs ``weights[e]``; it is straight in R^d, or, where
    ``edge_gadget[e]`` names a gadget, either planar on that gadget's
    surface between the planar points ``edge_plane[e]`` of its ends, or,
    where ``edge_grid[e]`` >= 0, a core path from the root through the
    gadget's core (``chain``) to that grid vertex, on it or not
    (``edge_on``), ending at ``edge_plane[e, 2:]``.  Two vertices get at
    most one edge but core paths, and a vertex none to itself.  It holds
    no phase-1 segment that no root path can use, and no break point that
    only such segments touch (``assemble_slt``).
    """

    coords: list
    kinds: list[str]
    ends: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,)
    surfaces: list[FoldedSurface]  # per gadget
    chain: Callable[[int], CoreChain]  # per gadget with a core
    vertex_gadget: np.ndarray  # (n,)
    edge_gadget: np.ndarray  # (m,)
    edge_plane: np.ndarray  # (m, 4)
    edge_grid: np.ndarray  # (m,)
    edge_on: np.ndarray  # (m,)

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass
class Gadgets:
    """The planar gadgets of every surface that holds an input, one row each.

    Row g is on ``surfaces[g]``, surface ``surface[g]`` of the build; the
    first ``n_verts[g]`` columns of ``verts`` (R^d) and ``vertex_images``
    (planar) are its vertices, the last repeated after them.  Every row
    has theta secondary break points, columns q = 0..theta-1 at arc
    (q + 1) W / theta, each on sub-path edge ``edge`` or at vertex
    ``at_vertex`` (-1 if at none) and fed by Steiner point ``steiner``;
    and theta Steiner points from ``ell_a`` to ``ell_b``.  A surface
    along one ray (``flat``) has one Steiner point, its column 0, and no
    core; the rows in ``core`` have their cores in ``chains``, in order.
    """

    surfaces: list[FoldedSurface]
    surface: np.ndarray  # (G,)
    n_verts: np.ndarray  # (G,)
    verts: np.ndarray  # (G, L, d)
    vertex_images: np.ndarray  # (G, L, 2)
    r_local: np.ndarray  # (G,) the input closest to the root
    ell_a: np.ndarray  # (G, 2)
    ell_b: np.ndarray  # (G, 2)
    flat: np.ndarray  # (G,)
    arc: np.ndarray  # (G, theta)
    edge: np.ndarray  # (G, theta)
    at_vertex: np.ndarray  # (G, theta)
    point: np.ndarray  # (G, theta, d)
    plane: np.ndarray  # (G, theta, 2)
    steiner: np.ndarray  # (G, theta)
    ell_steiner: np.ndarray  # (G, theta, 2)
    core: np.ndarray  # (G,)
    eps_core: np.ndarray  # (G,)
    eps_int: float
    lam: float
    chains: CoreChains

    def __len__(self) -> int:
        return len(self.surfaces)

    def chain(self, g: int) -> CoreChain:
        return self.chains.chain(int(np.count_nonzero(self.core[:g])))

    def core_instance(self, g: int) -> CoreInstance | None:
        """Row g's core triangle with its Steiner points on the base; None if it has none."""
        if not self.core[g]:
            return None
        a, b = tuple(self.ell_a[g].tolist()), tuple(self.ell_b[g].tolist())
        base = tuple(map(tuple, self.ell_steiner[g].tolist()))
        return CoreInstance((0.0, 0.0), a, b, base, float(self.eps_core[g]), self.lam)


def build_gadget(
    surfaces: list[FoldedSurface], inputs_of: list[list[int]], eps_int: float, lam: float = 1.25
) -> Gadgets:
    """Planar gadgets of every surface that holds an input, at once.

    ``inputs_of`` lists per surface the sub-path vertex indices holding
    input points (the root excluded); a surface without any gets no
    gadget, only its phase-1 edges (``assemble_slt``).  The floats are
    those of one surface at a time: each vertex at its radius on its
    boundary ray, r the input closest to the root (the lower index on a
    tie), the cross line through r normal to the surface's bisector, and
    each secondary fed by the Steiner point nearest its central
    projection onto that line (the lower on a tie).  Elementwise
    arithmetic runs in numpy in the same order, libm once per element
    (``each``), and no sum is reassociated.
    """
    rows = [i for i, inputs in enumerate(inputs_of) if inputs]
    gs = [surfaces[i] for i in rows]
    nv = np.array([len(f.verts) for f in gs], dtype=int)
    if (nv < 2).any():
        raise EmptySurface(f"surface {gs[int(np.argmax(nv < 2))].index} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    theta = math.ceil(math.sqrt(1.0 / eps_int))  # at least 2, as eps_int <= 1/4
    G, L, m = len(gs), int(nv.max(initial=2)), theta - 1
    s = surfaces[0].apex  # every surface's apex is the root
    flat_verts = np.array([v for f in gs for v in f.verts], dtype=float).reshape(-1, len(s))
    start = np.cumsum(nv) - nv
    at = start[:, None] + np.minimum(np.arange(L), nv[:, None] - 1)  # (G, L) flat index
    g_ = np.arange(G)[:, None]
    verts = flat_verts[at]
    radius = each(math.hypot, *(flat_verts - s).T)[at]
    angle = np.array([t for f in gs for t in f.cum_angle])
    imgs = np.stack([radius * each(math.cos, angle)[at], radius * each(math.sin, angle)[at]], -1)
    seg = each(math.hypot, *np.diff(flat_verts, axis=0).T) if G else np.zeros(1)
    cum = np.zeros((G, L))
    inner = np.arange(L - 1) < nv[:, None] - 1
    cum[:, 1:] = np.cumsum(np.where(inner, seg[np.minimum(at[:, :-1], len(seg) - 1)], 0.0), axis=1)
    total = cum[:, -1]

    held = np.zeros((G, L), dtype=bool)
    held[np.repeat(np.arange(G), [len(inputs_of[i]) for i in rows]),
         [j for i in rows for j in inputs_of[i]]] = True
    r_local = np.where(held, radius, np.inf).argmin(axis=1)
    (rx, ry), T = imgs[np.arange(G), r_local].T, angle[start + nv - 1]
    flat = T < 1e-9
    phi = 0.5 * T
    cos_phi, sin_phi = each(math.cos, phi), each(math.sin, phi)
    c = rx * cos_phi + ry * sin_phi
    t_ell = np.where(flat, radius[np.arange(G), r_local], c / cos_phi)
    ell_a = np.stack([t_ell, np.zeros(G)], -1)
    ell_b = np.where(flat[:, None], ell_a,
                     np.stack([t_ell * each(math.cos, T), t_ell * each(math.sin, T)], -1))
    steiner = ell_a[:, None] + (ell_b - ell_a)[:, None] * np.arange(theta)[:, None] / m
    (ax, ay), (bx, by) = steiner[:, 0].T, steiner[:, -1].T
    dx, dy = bx - ax, by - ay
    span = dx * dx + dy * dy

    # Secondary break points at arc q*W/theta for q = 1..theta (q*W/theta
    # may round past W at q == theta), each on the segment j that
    # Polyline.locate finds: the number of vertices 1..last at or before it.
    q = np.arange(1, theta + 1)
    arc = q * total[:, None] / theta
    arc[:, -1] = total
    before = (cum[:, None, 1:-1] <= arc[:, :, None]) & (np.arange(1, L - 1) <= nv[:, None, None] - 2)
    j = before.sum(axis=2)
    cj, cj1 = cum[g_, j], cum[g_, j + 1]
    t, seg_len = arc - cj, cj1 - cj
    vtol = 1e-12 * total[:, None]
    frac = np.where(seg_len > 0, t / np.where(seg_len > 0, seg_len, 1.0), 0.0)
    at_vertex = np.where(t <= vtol, j, np.where(t >= seg_len - vtol, j + 1, -1))
    va, vb, ia, ib = verts[g_, j], verts[g_, j + 1], imgs[g_, j], imgs[g_, j + 1]
    on_vertex = (at_vertex >= 0)[..., None]
    point = np.where(on_vertex, verts[g_, at_vertex], va + frac[..., None] * (vb - va))
    plane = np.where(on_vertex, imgs[g_, at_vertex], ia + frac[..., None] * (ib - ia))

    # Each takes the Steiner point nearest where the ray through it meets the
    # cross line, the lower index on a tie: the points are equally spaced,
    # so that is one of the two around the meeting point's parameter.
    nearest = np.zeros((G, theta), dtype=int)
    w = np.flatnonzero(~flat)
    if len(w):
        px, py = plane[w, :, 0], plane[w, :, 1]
        ang = each(math.atan2, py, px)
        rr = c[w, None] / each(math.cos, ang - phi[w, None])
        px, py = rr * each(math.cos, ang), rr * each(math.sin, ang)
        lo = np.floor(((px - ax[w, None]) * dx[w, None] + (py - ay[w, None]) * dy[w, None])
                      / span[w, None] * m)
        lo = np.clip(lo, 0, m - 1).astype(int)
        ww = w[:, None]
        d_lo = each(math.hypot, steiner[ww, lo, 0] - px, steiner[ww, lo, 1] - py)
        d_hi = each(math.hypot, steiner[ww, lo + 1, 0] - px, steiner[ww, lo + 1, 1] - py)
        nearest[w] = np.where(d_lo <= d_hi, lo, lo + 1)

    # The recursive triangle over the cross line; none where it has zero width.
    core = ~(each(math.hypot, *(ell_a - ell_b).T) < 1e-12 * ell_a[:, 0])
    eps_core = np.maximum(eps_int, each(pow, T, np.full(G, 2)))
    chains = core_chains(np.zeros((np.count_nonzero(core), 2)), ell_a[core], ell_b[core], eps_core[core], lam)
    return Gadgets(gs, np.array(rows, dtype=int), nv, verts, imgs, r_local, ell_a, ell_b, flat,
                   arc, j, at_vertex, point, plane, nearest, steiner, core, eps_core, eps_int, lam, chains)


def surface_inputs(
    surfaces: list[FoldedSurface], sub: SubdividedPath, root: int
) -> list[list[int]]:
    """Per surface, the local indices of its inputs but the root; none on the root surface.

    A surface's path positions run from its first vertex's to its last's,
    so one count over the path tells which surfaces hold an input at all.
    """
    index = sub.input_index
    held = [i >= 0 and i != root for i in index]
    before = list(accumulate(held, initial=0))  # inputs held before each position
    out: list[list[int]] = []
    for surf in surfaces:
        hs = surf.hstar
        if before[hs[-1] + 1] == before[hs[0]] or index[hs[0]] == root:
            out.append([])
        else:
            out.append([j for j, h in enumerate(hs) if held[h]])
    return out


def _front_end(pts: PointCloud, eps: float, gamma: float, lam: float = 1.25):
    """Check the parameters and run the folding method up to its surfaces.

    Returns (eps_int, MST, break points, subdivided path, surfaces), with
    eps_int = eps/gamma.  ``assemble_slt`` and ``slt render --surfaces``
    both start here, so they accept and reject the same parameters, on
    any input: lam as well, which only a gadget's core reads.
    """
    if pts.n < 2:
        raise ValueError("need at least two points")
    if not 0.0 < eps <= 0.25:
        raise EpsOutOfRange(f"eps={eps} outside (0, 1/4]")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be at least 1 and finite, got {gamma}")
    if not 1.0 < lam < 2.0:
        raise ValueError(f"lambda={lam} outside (1, 2)")
    eps_int = eps / gamma
    mst = euclidean_mst(pts)
    ham = dfs_hamiltonian(mst, pts)
    bps = select_breakpoints(ham, eps_int)
    sub = subdivide(ham, bps)
    return eps_int, mst, bps, sub, build_surfaces(sub, pts.points[pts.root])


# Relative margin delta by which a phase-1 segment must miss both triangle
# inequalities through the root to be left out; see ``assemble_slt``.
_CUT_MARGIN = 2.0**-30


def _relay_only(s: Point, surfaces: list[FoldedSurface], inputs_of: list[list[int]], i: int) -> bool:
    """Whether no root path can use surface i's phase-1 segment ab.

    Surface i is not the root surface, holds no input and has the two
    vertices a, b; the next surface starts at b and holds no input
    either, so b has a spoke of its own; and |sa| + |ab| and |sb| + |ab|
    exceed |sb| and |sa| by the relative margin ``_CUT_MARGIN``.  A
    segment into a gadget's start is always kept: that start has no
    spoke.
    """
    surf = surfaces[i]
    if i == 0 or i + 1 == len(surfaces) or len(surf.hstar) != 2:
        return False
    if inputs_of[i + 1] or surfaces[i + 1].hstar[0] != surf.hstar[1]:
        return False
    a, b = surf.verts
    sa, sb, ab = math.dist(s, a), math.dist(s, b), math.dist(a, b)
    return sa + ab > sb * (1.0 + _CUT_MARGIN) and sb + ab > sa * (1.0 + _CUT_MARGIN)


@collector_paused
def assemble_slt(
    pts: PointCloud,
    eps: float,
    gamma: float = 8.0,
    lam: float = 1.25,
):
    """Build the Steiner SLT: returns (graph, tree, report).

    The tree is the union of shortest paths from the root to the input
    points inside the assembled graph; unused Steiner vertices are
    pruned.  Stretch is controlled by running the folding machinery at
    the internal parameter eps/gamma.  The report measures the returned
    tree (see ``measure``).

    The graph leaves out the phase-1 segments no root path can use
    (``_relay_only``); a break point gets a vertex only when a kept edge
    touches it, and its spoke only if it has a vertex.  The tree is the
    one the full graph gives.  Every edge weighs at least the distance
    between its ends in R^d: unfolding is isometric, so a gadget edge
    weighs the length of its lift, and a core path is a planar path.
    So every graph path from the root s to a vertex v is at least |sv|
    long, and a vertex with a spoke has d(v) <= |sv|.  A left-out segment
    ab has a spoke at each end that has a vertex (a's from its own
    surface, b's from the next, which holds no input either), and the
    margin delta asks |sa| + |ab| > |sb| (1 + delta) and the same with
    a and b swapped.  In floats, a root path of k edges carries at most
    about k u relative error, u = 2^-53, so fl(d(a) + |ab|) >=
    (|sa| + |ab|)(1 - (k+1) u) > |sb| (1 + delta)(1 - (k+1) u) >= |sb|
    >= d(b) while (k+1) u <= delta / (1 + delta): with delta = 2^-30,
    while the graph has fewer than about 2^23 edges.  So the relaxation
    a -> b is never shorter than d(b) nor tied with it, and neither is
    b -> a.  ``dijkstra`` gives each vertex the least sum and, as parent,
    the lowest-index neighbour settled first whose sum equals it, so no
    distance or parent changes.  A break point left with its spoke alone
    is a leaf off the root and no target.  Vertices are made in the same
    relative order, so the settling order, the tie rule and ``_prune``'s
    sort, and with them the numbering of the tree, are unchanged.  Points on a ray from the root
    miss the margin and keep the full graph.
    """
    eps_int, mst, bps, sub, surfaces = _front_end(pts, eps, gamma, lam)
    s = pts.points[pts.root]
    inputs_of = surface_inputs(surfaces, sub, pts.root)
    gadgets = build_gadget(surfaces, inputs_of, eps_int, lam)
    G = _realize(pts, sub, surfaces, inputs_of, gadgets)
    dists, parent = dijkstra(G.n, G.ends, G.weights, pts.root)
    tree_graph, tree, input_vertices = _prune(G, dists, parent, list(range(pts.n)), pts.root)
    cores = int(np.count_nonzero(gadgets.core))

    phase1 = sub.hstar.total_length + math.fsum([math.dist(s, q) for q in bps.points[1:]])
    report = measure(
        tree, tree_graph.coords, input_vertices, eps, mst.weight,
        {
            "gamma": gamma,
            "phase1_weight": phase1,
            "surface_angles": [f.cum_angle[-1] for f in surfaces],
            "truncated_surfaces": sum(1 for f in surfaces if f.truncated),
            "surfaces": len(surfaces),
            "cores": cores,
            "zero_width_cores": len(gadgets) - cores,
            "graph_vertices": G.n,
            "graph_edges": len(G.weights),
            "pruned_vertices": G.n - tree_graph.n,
        },
    )
    return tree_graph, tree, report


def _realize(
    pts: PointCloud, sub: SubdividedPath, surfaces: list[FoldedSurface],
    inputs_of: list[list[int]], gad: Gadgets,
) -> FoldingGraph:
    """The folding graph: every surface's sub-path, and the gadgets ``gad``.

    Input i is vertex i.  Then, surface by surface, come its new break
    points, its gadget's secondary break points that no vertex holds and
    its portals, one per Steiner point but one at r's image, which is r.
    Edges come in the same order.  A surface without a gadget adds its
    sub-path and spoke, or its spoke alone (``_relay_only``).  A gadget
    adds its sub-path through its secondaries; then per Steiner point x,
    where a base edge of its core tree runs past r's image, the planar
    edge that splits it at r, and x's edge to the portal next to it along
    the base or its core path from the root (``portal_grid``); then each
    secondary's edge to its Steiner point.  A pair's first edge wins (a
    portal at r repeats sub-path edges), core paths aside.
    """
    root_id, s = pts.root, pts.points[pts.root]
    G, theta = gad.at_vertex.shape
    nv, L = gad.n_verts, gad.verts.shape[1]
    g_, x_ = np.arange(G)[:, None], np.arange(theta)
    r_img = gad.vertex_images[np.arange(G), gad.r_local]
    near = 1e-12 * each(math.hypot, *r_img.T)  # coincidence, relative to the gadget
    off = gad.ell_steiner - r_img[:, None]
    at_r = each(math.hypot, off[..., 0], off[..., 1]) <= near[:, None]
    new_sec = gad.at_vertex < 0
    new_portal = (x_ < np.where(gad.flat, 1, theta)[:, None]) & ~at_r
    sec_pts = list(map(tuple, gad.point[new_sec].tolist()))
    portal_pts = list(map(tuple, gad.ell_steiner[new_portal].tolist()))
    sec_at, portal_at = ([0] + np.cumsum(c.sum(1)).tolist() for c in (new_sec, new_portal))

    coords, kinds = list(pts.points), ["input"] * pts.n
    vertex_of, hverts = list(sub.input_index), sub.hstar.vertices
    straight = []  # (surface, u, v) of each edge outside the gadgets
    path_ids, first_new = [], []  # per gadget
    for i, surf in enumerate(surfaces):
        inputs = inputs_of[i]
        if not inputs and _relay_only(s, surfaces, inputs_of, i):
            a = vertex_of[surf.hstar[0]]
            if a >= 0:  # a kept segment made a's vertex: it keeps its spoke
                straight.append((i, root_id, a))
            continue
        vids = []
        for h in surf.hstar:
            v = vertex_of[h]
            if v < 0:
                v = vertex_of[h] = len(coords)
                coords.append(hverts[h])
                kinds.append("break")
            vids.append(v)
        if not inputs:  # no gadget: the phase-1 sub-path and spoke alone
            straight += [(i, u, v) for u, v in zip(vids, vids[1:])]
            if vids[0] != root_id:
                straight.append((i, root_id, vids[0]))
            continue
        g = len(first_new)
        path_ids += vids
        first_new.append(len(coords))
        coords += sec_pts[sec_at[g]:sec_at[g + 1]]
        coords += portal_pts[portal_at[g]:portal_at[g + 1]]
        kinds += ["secondary_break"] * (sec_at[g + 1] - sec_at[g])
        kinds += ["ell_steiner"] * (portal_at[g + 1] - portal_at[g])
    n = len(coords)

    vid = np.array(path_ids, dtype=int)[(np.cumsum(nv) - nv)[:, None]
                                        + np.minimum(np.arange(L), nv[:, None] - 1)]
    base = np.array(first_new, dtype=int)[:, None]
    n_sec = new_sec.sum(1)[:, None]
    sec_id = np.where(new_sec, base + np.cumsum(new_sec, 1) - 1, vid[g_, np.maximum(gad.at_vertex, 0)])
    r_id = vid[np.arange(G), gad.r_local][:, None]
    ids = np.where(at_r, r_id, base + n_sec + np.cumsum(new_portal, 1) - 1)  # per Steiner point
    qp = np.where(at_r[..., None], r_img[:, None], gad.ell_steiner)  # its vertex's planar point
    vertex_gadget = np.full(n, -1)
    vertex_gadget[ids[new_portal]] = np.broadcast_to(g_, ids.shape)[new_portal]

    def block(ok, u, v, w, plane, gadget=g_, grid=-1, on=False):
        """Edge fields over (gadget, slot), ``ok`` where a slot holds an edge."""
        return [ok, *(np.broadcast_to(f, ok.shape) for f in (u, v, w, gadget, grid, on)),
                np.broadcast_to(plane, ok.shape + (4,))]

    def planar(ok, u, qu, v, qv):
        """Planar edges u-v between qu and qv, the lower id first."""
        u, v, qu, qv = *np.broadcast_arrays(u, v), *np.broadcast_arrays(qu, qv)
        w = np.zeros(ok.shape)
        w[ok] = each(math.hypot, *(qu - qv)[ok].T)
        swap = (u > v)[..., None]
        plane = np.concatenate([np.where(swap, qv, qu), np.where(swap, qu, qv)], -1)
        return block(ok, np.minimum(u, v), np.maximum(u, v), w, plane)

    # The sub-path through the secondaries: vertex j, then those on edge j.
    last = L * (theta + 1)
    order = np.argsort(np.concatenate([
        np.where(np.arange(L) < nv[:, None], np.arange(L) * (theta + 1), last),
        np.where(new_sec, gad.edge * (theta + 1) + 1 + x_, last)], 1), 1, kind="stable")
    seq = np.take_along_axis(np.concatenate([vid, sec_id], 1), order, 1)
    stops = np.take_along_axis(np.concatenate([gad.verts, gad.point], 1), order[..., None], 1)
    ok = np.arange(L + theta - 1) < nv[:, None] + n_sec - 1
    w = np.zeros(ok.shape)
    w[ok] = each(math.hypot, *(stops[:, 1:] - stops[:, :-1])[ok].T)
    path = block(ok, seq[:, :-1], seq[:, 1:], w, 0.0, gadget=-1)

    # Where each Steiner point meets its core's grid: one table per level count.
    core, chains = gad.core[:, None], gad.chains
    row = np.cumsum(gad.core) - 1  # in chains
    k = np.zeros(G, dtype=int)
    k[gad.core] = chains.k
    on, via = np.full((G, theta), -1), np.zeros((G, theta), dtype=int)
    for level in sorted(set(k[gad.core].tolist())):
        rows = gad.core & (k == level)
        on[rows], via[rows] = np.array([portal_grid(x, theta - 1, level) for x in range(theta)]).T
    qu = qp[g_, np.maximum(via, 0)]
    grid = core & (via < 0)
    at_grid = np.nonzero(grid)
    qu[at_grid] = chains.grid_points(row[at_grid[0]], -1 - via[at_grid])
    # The signs tell the sides of r along the line: a base edge running past
    # r's image is split there, which joins r to the line.
    (rx, ry), (dx, dy) = r_img.T[:, :, None], (gad.ell_b - gad.ell_a).T[:, :, None]
    join = core & (on < 0) & (((qu[..., 0] - rx) * dx + (qu[..., 1] - ry) * dy)
                              * ((qp[..., 0] - rx) * dx + (qp[..., 1] - ry) * dy) < 0.0)
    joins = planar(join, r_id, r_img[:, None], ids, qp)
    v, qv = np.where(join, r_id, ids), np.where(join[..., None], r_img[:, None], qp)
    # Then x's edge from the portal next to it, or from the root where the
    # core has zero width; or else its core path.
    spoke = ~core & (x_ == 0)
    links = planar((core & (via >= 0)) | spoke, np.where(spoke, root_id, ids[g_, np.maximum(via, 0)]),
                   np.where(spoke[..., None], 0.0, qu), v, qv)
    w = np.zeros(grid.shape)
    w[grid] = chains.dists[row[at_grid[0]], k[at_grid[0]] + 1] + each(math.hypot, *(qu - qv)[grid].T)
    cores = block(grid, root_id, v, w, np.concatenate([qu, qv], -1), grid=-1 - via, on=on >= 0)
    secondaries = planar(np.ones((G, theta), bool), ids[g_, gad.steiner], qp[g_, gad.steiner],
                         sec_id, gad.plane)

    # Each gadget's slots in order, every gadget at its surface's turn.
    per_x = [np.stack(f, 2).reshape((G, 3 * theta) + f[0].shape[2:]) for f in zip(joins, links, cores)]
    ok, *fields = [np.concatenate(f, 1) for f in zip(path, per_x, secondaries)]
    at_surface, su, sv = np.array(straight, dtype=int).reshape(-1, 3).T
    m0 = len(straight)
    outside = (su, sv, [math.dist(coords[a], coords[b]) for _, a, b in straight],
               np.full(m0, -1), np.full(m0, -1), np.zeros(m0, bool), np.zeros((m0, 4)))
    turn = np.argsort(np.concatenate([at_surface, np.broadcast_to(gad.surface[:, None], ok.shape)[ok]]),
                      kind="stable")
    u, v, w, gadget, grid, on, plane = (np.concatenate([x, f[ok]])[turn] for x, f in zip(outside, fields))
    # A pair's first edge wins, and no vertex gets an edge to itself; core
    # paths are all kept.  (np.unique would import numpy.ma inside the build.)
    plain = np.flatnonzero(grid < 0)
    pair = (np.minimum(u, v) * n + np.maximum(u, v))[plain]
    by_pair = np.argsort(pair, kind="stable")
    pair = pair[by_pair]
    keep = grid >= 0
    keep[plain[by_pair[np.r_[True, pair[1:] != pair[:-1]]]]] = True
    keep &= u != v
    return FoldingGraph(coords, kinds, np.stack([u, v], 1)[keep], w[keep], gad.surfaces, gad.chain,
                        vertex_gadget, gadget[keep], plane[keep], grid[keep], on[keep])


def _prune(
    G: FoldingGraph, dists: list[float], parent: list[int], targets: list[int], root_id: int
):
    """Union of root paths to the targets, lifted into a fresh SteinerGraph.

    Kept gadget vertices are lifted onto their surfaces, a kept core path
    is expanded into its apices and grid vertex, and each gadget edge
    becomes the polyline through its bends; its ends are kept vertices
    already, so only the bends are lifted for it.  Every vertex keeps its
    own id, even where two lifts land on one point: each hangs off its
    parent by one edge, one core-path stop or one bend, so the result is
    a spanning tree.  Edges and bends are added in order of root distance.
    Returns it with each target's vertex in it.
    """
    used = root_paths(parent, root_id, targets)
    sub = SteinerGraph()
    coords, n_old = G.coords, G.n
    sub_coords, sub_kinds, sub_edges = sub.coords, sub.kinds, sub.edges
    new = {}
    for old, g in zip(used, G.vertex_gadget[used].tolist()):
        new[old] = len(sub_coords)
        sub_coords.append(coords[old] if g < 0 else lift(G.surfaces[g], coords[old]))
        sub_kinds.append(G.kinds[old])
    # Each kept vertex hangs off its parent by an edge, planar or straight,
    # or by a core path, whose stops are placed once per (surface, key).
    # Of a pair's edges, in order (one that is not a core path, and core
    # paths from the root), a vertex takes the first core path as long as
    # its root distance, else the other edge.
    kept = np.zeros(n_old, dtype=bool)
    kept[used] = True
    between = np.flatnonzero(kept[G.ends[:, 0]] & kept[G.ends[:, 1]])
    ends = G.ends[between]
    keys = ends.min(1) * n_old + ends.max(1)
    by_key = np.argsort(keys, kind="stable")
    child = [v for v in used if parent[v] != -1]
    up = [parent[v] for v in child]
    pairs = np.minimum(child, up) * n_old + np.maximum(child, up)
    lo, hi = (np.searchsorted(keys[by_key], pairs, side).tolist() for side in ("left", "right"))
    by_key = by_key.tolist()
    weight, gadget, grid, on, plane = (x[between].tolist() for x in (
        G.weights, G.edge_gadget, G.edge_grid, G.edge_on, G.edge_plane))
    # (root distance, order, parent in sub, vertex in sub, planar segment);
    # no two share the first two, so they sort by those alone.
    steps = []
    paths = []  # (surface index, grid vertex, vertex, core path) per kept core path
    for old, p, a, b in zip(child, up, lo, hi):
        edge = path = None
        for e in by_key[a:b]:
            if grid[e] < 0:
                edge = e
            elif path is None and weight[e] == dists[old]:
                path = e
        if path is not None:
            surf, j = G.surfaces[gadget[path]], grid[path]
            core_path = (surf, G.chain(gadget[path]), j, on[path], tuple(plane[path][2:]))
            paths.append((surf.index, j, old, core_path))
            continue
        seg = None
        if gadget[edge] >= 0:
            qa, qb = tuple(plane[edge][:2]), tuple(plane[edge][2:])
            seg = (G.surfaces[gadget[edge]], *((qb, qa) if p > old else (qa, qb)))
        steps.append((dists[old], old, new[p], new[old], seg))

    # By surface and ascending grid vertex: the order in which the tie rule
    # of ``CoreChain.path`` shares apices, whatever the vertex numbering.
    paths.sort()
    made = {}  # surface index -> {key: (vertex in sub, planar point)}
    for index, j, old, (surf, core, _, on_grid, q_end) in paths:
        placed = made.setdefault(index, {})
        a, qa = new[root_id], (0.0, 0.0)
        for key in core.path(j, placed) + ([] if on_grid else [(-1, j)]):
            if key not in placed:
                q = core.point(key)
                b = len(sub_coords)
                sub_coords.append(lift(surf, q))
                sub_kinds.append("ell_steiner" if key[0] < 0 else "core_apex")
                steps.append((core.dists[key[0]], n_old + len(steps), a, b, (surf, qa, q)))
                placed[key] = b, q
            a, qa = placed[key]
        steps.append((dists[old], old, a, new[old], (surf, qa, q_end)))
    steps.sort()
    for _, _, a, b, seg in steps:
        if seg is not None:
            for q in ray_crossings(*seg):
                bend = len(sub_coords)
                sub_coords.append(lift(seg[0], q))
                sub_kinds.append("bend")
                sub_edges.append((a, bend, math.dist(sub_coords[a], sub_coords[bend])))
                a = bend
        sub_edges.append((a, b, math.dist(sub_coords[a], sub_coords[b])))
    tree = Tree(sub.n, tuple(sub_edges), new[root_id])
    return sub, tree, [new[t] for t in targets]




_CORE_KINDS = {"root": "input", "apex": "core_apex", "grid": "grid", "input": "input"}


@collector_paused
def assemble_core2d(pts: PointCloud, eps: float, lam: float = 1.25):
    """Recursive triangle core over a 2-d instance: returns (graph, tree, report).

    The root is the apex; the other points lie on the base, whose ends are
    the points with the smallest and largest x.  The report measures the
    returned tree against the input, as ``slt verify`` does; only the
    ``chain_total`` flag is in the core's canonical frame (unit legs).
    """
    if pts.dim != 2:
        raise SltError("core2d method needs 2-dimensional input")
    base = [p for i, p in enumerate(pts.points) if i != pts.root]
    lo = min(base, key=lambda p: p[0])
    hi = max(base, key=lambda p: p[0])
    g = build_core(CoreInstance(pts.points[pts.root], lo, hi, tuple(base), eps, lam))
    core_tree, _ = core_spt(g)
    graph = SteinerGraph()
    for i in range(g.n):
        graph.add_vertex(g.plane_coords(i), _CORE_KINDS[g.kinds[i]])
    for u, v, _ in core_tree.edges:
        graph.add_edge(u, v)
    tree = Tree(graph.n, tuple(graph.edges), core_tree.root)
    # The core numbers the root first and the base points in input order.
    base_ids = iter(g.input_ids)
    vertex_of = [g.root if i == pts.root else next(base_ids) for i in range(pts.n)]
    report = measure(
        tree, graph.coords, vertex_of, eps, euclidean_mst(pts).weight,
        {
            "levels": g.k,
            "chain_total": sum([(1 << (i + 1)) * g.chain[i] for i in range(g.k + 1)]),
            "level_angles": [g.alpha * g.lam**i for i in range(g.k + 1)],
        },
    )
    return graph, tree, report

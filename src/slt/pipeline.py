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
core path gets its apices (``apex_path``) and grid vertex only then.
Every vertex keeps its id through the lift: no two are merged by their
coordinates.

The gadgets of a build are made at once, as arrays over (gadget, secondary)
and (gadget, Steiner point) (``build_gadget``), the graph in one pass
over them (``_realize``), and the kept tree is lifted in one batch
(``_prune``: one ``SurfaceRows.lift`` for its portals, core stops and
bends, one ``SurfaceRows.crossings`` for its bends).  That gives the
floats, vertices and edges, in their order, that one surface, element
and point at a time gives: numpy does the elementwise arithmetic in the
same order, a coordinate sum runs column by column (``sum_columns``),
every libm function is called once per element (``each``), and no sum
is reassociated.

``assemble_core2d`` runs the recursive triangle core alone on a 2-d instance
and returns the same (graph, tree, report) triple as ``assemble_slt``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .breakpoints import SubdividedPath, select_breakpoints, subdivide
from .core2d import CoreChains, CoreInstance, apex_path, build_core, core_chains, core_spt, portal_grid
from .errors import EmptySurface, EpsOutOfRange, SltError
from .geometry import each, lengths
from .metrics import collector_paused, dijkstra, measure, root_paths
from .mst_path import PointCloud, SteinerGraph, Tree, dfs_hamiltonian, euclidean_mst
from .unfolding import SurfaceRows, Surfaces, build_surfaces
from .unfolding import lift, lift_segment  # noqa: F401  not called; perfbench's layer trace wraps them


#: The kinds of a folding graph's vertices, by code.
KINDS = ("input", "break", "secondary_break", "ell_steiner")


@dataclass
class FoldingGraph:
    """The folding graph before lifting, its vertices and edges as arrays.

    Vertex v is of kind ``KINDS[kind[v]]``.  Shared vertices (input
    points, break points, secondary break points) hold R^d points in
    ``points``.  A portal holds a planar point of the
    surface of gadget ``vertex_gadget[v]`` (-1 for every other vertex) in
    ``plane``; each array is nan where the other holds the point.  Edge e
    joins ``ends[e]`` and weighs ``weights[e]``; it is straight in R^d,
    or, where ``edge_gadget[e]`` names a gadget, either planar on that
    gadget's surface between the planar points ``edge_plane[e]`` of its
    ends (the lower id's first), or, where ``edge_grid[e]`` >= 0, a core
    path from the root through the gadget's core (row ``chain_row[g]`` of
    ``chains``) to that grid vertex, on it or not (``edge_on``), ending
    at ``edge_plane[e, 2:]``.  Two vertices get at most one edge but core
    paths, and a vertex none to itself.  It holds no phase-1 segment that
    no root path can use, and no break point that only such segments
    touch (``assemble_slt``).
    """

    points: np.ndarray  # (n, d)
    plane: np.ndarray  # (n, 2)
    kind: np.ndarray  # (n,)
    ends: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,)
    rows: SurfaceRows  # a gadget's surface per row
    chains: CoreChains
    chain_row: np.ndarray  # (G,) -1 for a gadget without a core
    vertex_gadget: np.ndarray  # (n,)
    edge_gadget: np.ndarray  # (m,)
    edge_plane: np.ndarray  # (m, 4)
    edge_grid: np.ndarray  # (m,)
    edge_on: np.ndarray  # (m,)

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass
class Gadgets:
    """The planar gadgets of every surface that holds an input, one row each.

    Row g is on surface ``surface[g]`` of the build, and is row g of
    ``rows``; the first ``rows.n_verts[g]`` columns of
    ``vertex_images`` are its vertices' planar images, the last repeated
    after them.  Every row has theta secondary break points, columns
    q = 0..theta-1 at arc (q + 1) W / theta, each on sub-path edge
    ``edge`` or at vertex ``at_vertex`` (-1 if at none) and fed by
    Steiner point ``steiner``; and theta Steiner points from ``ell_a`` to
    ``ell_b``.  A surface along one ray (``flat``) has one Steiner point,
    its column 0, and no core; the rows in ``core`` have their cores in
    ``chains``, in order.
    """

    surface: np.ndarray  # (G,)
    rows: SurfaceRows
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
        return len(self.surface)

    def core_instance(self, g: int) -> CoreInstance | None:
        """Row g's core triangle with its Steiner points on the base; None if it has none."""
        if not self.core[g]:
            return None
        a, b = tuple(self.ell_a[g].tolist()), tuple(self.ell_b[g].tolist())
        base = tuple(map(tuple, self.ell_steiner[g].tolist()))
        return CoreInstance((0.0, 0.0), a, b, base, float(self.eps_core[g]), self.lam)


def build_gadget(surfaces: Surfaces, held: np.ndarray, eps_int: float, lam: float = 1.25) -> Gadgets:
    """Planar gadgets of every surface that holds an input, at once.

    ``held`` marks the surfaces' vertex slots that hold input points (the
    root excluded, ``surface_inputs``); a surface without any gets no
    gadget, only its phase-1 edges (``assemble_slt``).  The floats are
    those of one surface at a time: each vertex at its radius on its
    boundary ray, r the input closest to the root (the lower index on a
    tie), the cross line through r normal to the surface's bisector, and
    each secondary fed by the Steiner point nearest its central
    projection onto that line (the lower on a tie).  Elementwise
    arithmetic runs in numpy in the same order, libm once per element
    (``each``), and no sum is reassociated.
    """
    held_before = np.concatenate([[0], np.cumsum(held)])
    rows = np.flatnonzero(held_before[surfaces.start[1:]] > held_before[surfaces.start[:-1]])
    nv = surfaces.n_verts[rows]
    if (nv < 2).any():
        raise EmptySurface(f"surface {rows[int(np.argmax(nv < 2))] + 1} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    theta = math.ceil(math.sqrt(1.0 / eps_int))  # at least 2, as eps_int <= 1/4
    surface_rows = surfaces.rows(rows)
    verts, angle = surface_rows.verts, surface_rows.cum_angle
    G, L, m = len(rows), verts.shape[1], theta - 1
    g_ = np.arange(G)[:, None]
    radius = each(math.hypot, *np.moveaxis(verts - surface_rows.apex, -1, 0))
    imgs = np.stack([radius * each(math.cos, angle), radius * each(math.sin, angle)], -1)
    seg = each(math.hypot, *np.moveaxis(np.diff(verts, axis=1), -1, 0))
    cum = np.zeros((G, L))
    inner = np.arange(L - 1) < nv[:, None] - 1
    cum[:, 1:] = np.cumsum(np.where(inner, seg, 0.0), axis=1)
    total = cum[:, -1]

    col = np.arange(L)
    held = (col < nv[:, None]) & held[surfaces.start[rows, None] + np.minimum(col, nv[:, None] - 1)]
    r_local = np.where(held, radius, np.inf).argmin(axis=1)
    (rx, ry), T = imgs[np.arange(G), r_local].T, angle[:, -1]
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
    return Gadgets(rows, surface_rows, imgs, r_local, ell_a, ell_b, flat,
                   arc, j, at_vertex, point, plane, nearest, steiner, core, eps_core, eps_int, lam, chains)


def surface_inputs(surfaces: Surfaces, sub: SubdividedPath, root: int) -> np.ndarray:
    """Per vertex slot of the surfaces, whether it holds an input but the root; none on the root surface."""
    index = sub.input_index[surfaces.hstar]
    first = index[surfaces.start[:-1]]
    return (index >= 0) & (index != root) & np.repeat(first != root, surfaces.n_verts)


def _front_end(pts: PointCloud, eps: float, gamma: float, lam: float = 1.25):
    """Check the parameters and run the folding method up to its surfaces.

    Returns (eps_int, MST, break points, subdivided path, surfaces), with
    eps_int = eps/gamma.  ``assemble_slt`` and ``slt render --surfaces``
    both start here, so they accept and reject the same parameters, on
    any input: lam as well, which only a gadget's core reads.
    """
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


def _relay_only(surfaces: Surfaces, held: np.ndarray) -> np.ndarray:
    """Per surface, whether no root path can use its phase-1 segment ab.

    Surface i is not the root surface, holds no input and has the two
    vertices a, b; the next surface starts at b and holds no input
    either, so b has a spoke of its own; and |sa| + |ab| and |sb| + |ab|
    exceed |sb| and |sa| by the relative margin ``_CUT_MARGIN``, with
    ``math.dist``'s lengths.  The rows' runs pick the candidates.  numpy's
    lengths are within (d + 3) ulps of math.dist's, so where both sides
    of a test differ by more than ``(d + 8) 1e-15`` of their lengths, and
    no square under- or overflows, they decide it as math.dist would; the
    rest take math.dist, one candidate at a time.  A segment into a
    gadget's start is always kept: that start has no spoke.
    """
    start, hs = surfaces.start, surfaces.hstar
    held_before = np.concatenate([[0], np.cumsum(held)])
    free = held_before[start[1:]] == held_before[start[:-1]]
    pair = (surfaces.n_verts[1:-1] == 2) & (hs[start[2:-1]] == hs[start[1:-2] + 1])
    cand = 1 + np.flatnonzero(free[1:-1] & free[2:] & pair)
    a, b, s = surfaces.points[hs[start[cand]]], surfaces.points[hs[start[cand] + 1]], surfaces.apex
    squares = [np.einsum("ij,ij->i", x, x) for x in (a - s, b - s, a - b)]
    sa, sb, ab = map(np.sqrt, squares)
    grow = 1.0 + _CUT_MARGIN
    one, other = sa + ab - sb * grow, sb + ab - sa * grow
    near = (len(s) + 8) * 1e-15 * (sa + sb + ab)
    unsure = (np.abs(one) <= near) | (np.abs(other) <= near)
    for sq in squares:
        unsure |= ~((1e-290 < sq) & (sq < 1e290))
    out = np.zeros(len(surfaces), dtype=bool)
    out[cand] = (one > 0.0) & (other > 0.0)
    s = s.tolist()
    for i, a, b in zip(cand[unsure].tolist(), a[unsure].tolist(), b[unsure].tolist()):
        sa, sb, ab = math.dist(s, a), math.dist(s, b), math.dist(a, b)
        out[i] = sa + ab > sb * grow and sb + ab > sa * grow
    return out


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
    s = np.array(pts.points[pts.root])
    held = surface_inputs(surfaces, sub, pts.root)
    gadgets = build_gadget(surfaces, held, eps_int, lam)
    G = _realize(pts, sub, surfaces, held, gadgets)
    dists, parent = dijkstra(G.n, G.ends, G.weights, pts.root)
    tree_graph, tree, input_vertices = _prune(G, dists, parent, list(range(pts.n)), pts.root)
    cores = int(np.count_nonzero(gadgets.core))

    phase1 = sub.total_length + math.fsum(each(math.hypot, *(bps.points[1:] - s).T).tolist())
    report = measure(
        tree_graph, tree, input_vertices, eps, mst.weight,
        {
            "gamma": gamma,
            "phase1_weight": phase1,
            "surface_angles": surfaces.total_angle.tolist(),
            "truncated_surfaces": int(surfaces.truncated),
            "surfaces": len(surfaces),
            "cores": cores,
            "zero_width_cores": len(gadgets) - cores,
            "graph_vertices": G.n,
            "graph_edges": len(G.weights),
            "pruned_vertices": G.n - tree_graph.n,
        },
    )
    return tree_graph, tree, report


def _realize(pts: PointCloud, sub: SubdividedPath, surfaces: Surfaces, held: np.ndarray,
             gad: Gadgets) -> FoldingGraph:
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
    root_id = pts.root
    G, theta = gad.at_vertex.shape
    nv, L = gad.rows.n_verts, gad.rows.verts.shape[1]
    g_, x_ = np.arange(G)[:, None], np.arange(theta)
    r_img = gad.vertex_images[np.arange(G), gad.r_local]
    near = 1e-12 * each(math.hypot, *r_img.T)  # coincidence, relative to the gadget
    off = gad.ell_steiner - r_img[:, None]
    at_r = each(math.hypot, off[..., 0], off[..., 1]) <= near[:, None]
    new_sec = gad.at_vertex < 0
    new_portal = (x_ < np.where(gad.flat, 1, theta)[:, None]) & ~at_r

    # The slots of the surfaces that add their sub-paths, in order; their
    # path vertices run in path order, so a vertex's slots are adjacent,
    # and a break point gets its vertex at its first.  Each surface makes
    # its break points' vertices, then its gadget's secondaries and portals.
    S, start, hs = len(surfaces), surfaces.start, surfaces.hstar
    relay = _relay_only(surfaces, held)
    slot_row = np.repeat(np.arange(S), surfaces.n_verts)
    live = np.flatnonzero(~relay[slot_row])
    h, h_row = hs[live], slot_row[live]
    first = np.r_[True, h[1:] != h[:-1]]
    index = sub.input_index[h]
    made = first & (index < 0)
    made_count = np.bincount(h_row[made], minlength=S)
    count = made_count.copy()
    count[gad.surface] += new_sec.sum(1) + new_portal.sum(1)
    first_id = pts.n + np.cumsum(count) - count
    n = pts.n + int(count.sum())
    made_row = h_row[made]
    made_id = first_id[made_row] + np.arange(len(made_row)) - (np.cumsum(made_count) - made_count)[made_row]
    index[made] = made_id
    slot_id = np.full(len(hs), -1)
    slot_id[live] = index[np.maximum.accumulate(np.where(first, np.arange(len(h)), 0))]

    # Outside the gadgets: a relayed segment's spoke, if a kept edge made
    # its start's vertex; another surface's sub-path, then its spoke.
    relayed = np.flatnonzero(relay)
    a = hs[start[relayed]]
    seen = np.minimum(np.searchsorted(h, a), len(h) - 1)
    a_id = np.where(sub.input_index[a] >= 0, sub.input_index[a],
                    np.where((h[seen] == a) & (live[seen] < start[relayed]), slot_id[live[seen]], -1))
    plain = ~relay
    plain[gad.surface] = False
    along = np.flatnonzero(plain[slot_row[:-1]] & (slot_row[:-1] == slot_row[1:]))
    spoke = np.flatnonzero(plain)
    spoke = spoke[slot_id[start[spoke]] != root_id]
    at_surface = np.concatenate([slot_row[along], spoke, relayed[a_id >= 0]])
    su = np.concatenate([slot_id[along], np.full(len(spoke) + np.count_nonzero(a_id >= 0), root_id)])
    sv = np.concatenate([slot_id[along + 1], slot_id[start[spoke]], a_id[a_id >= 0]])

    vid = slot_id[start[gad.surface][:, None] + np.minimum(np.arange(L), nv[:, None] - 1)]
    base = (first_id + made_count)[gad.surface][:, None]
    n_sec = new_sec.sum(1)[:, None]
    sec_id = np.where(new_sec, base + np.cumsum(new_sec, 1) - 1, vid[g_, np.maximum(gad.at_vertex, 0)])
    r_id = vid[np.arange(G), gad.r_local][:, None]
    ids = np.where(at_r, r_id, base + n_sec + np.cumsum(new_portal, 1) - 1)  # per Steiner point
    qp = np.where(at_r[..., None], r_img[:, None], gad.ell_steiner)  # its vertex's planar point
    vertex_gadget = np.full(n, -1)
    vertex_gadget[ids[new_portal]] = np.broadcast_to(g_, ids.shape)[new_portal]
    kind = np.full(n, 3)
    kind[:pts.n], kind[made_id], kind[sec_id[new_sec]] = 0, 1, 2
    points = np.full((n, pts.dim), np.nan)  # a portal's is its lift, made only if it is kept
    points[:pts.n] = pts.points
    points[made_id] = sub.points[h[made]]
    points[sec_id[new_sec]] = gad.point[new_sec]

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
    stops = np.take_along_axis(np.concatenate([gad.rows.verts, gad.point], 1), order[..., None], 1)
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
    qu[at_grid] = chains.points(row[at_grid[0]], np.full(len(at_grid[0]), -1), -1 - via[at_grid])
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
    m0 = len(su)
    outside = (su, sv, each(math.hypot, *(points[su] - points[sv]).T),
               np.full(m0, -1), np.full(m0, -1), np.zeros(m0, bool), np.zeros((m0, 4)))
    turn = np.argsort(np.concatenate([at_surface, np.broadcast_to(gad.surface[:, None], ok.shape)[ok]]),
                      kind="stable")
    u, v, w, gadget, grid, on, edge_plane = (np.concatenate([x, f[ok]])[turn]
                                             for x, f in zip(outside, fields))
    # A pair's first edge wins, and no vertex gets an edge to itself; core
    # paths are all kept.  (np.unique would import numpy.ma inside the build.)
    plain = np.flatnonzero(grid < 0)
    pair = (np.minimum(u, v) * n + np.maximum(u, v))[plain]
    by_pair = np.argsort(pair, kind="stable")
    pair = pair[by_pair]
    keep = grid >= 0
    keep[plain[by_pair[np.r_[True, pair[1:] != pair[:-1]]]]] = True
    keep &= u != v
    plane = np.full((n, 2), np.nan)
    plane[ids[new_portal]] = gad.ell_steiner[new_portal]
    return FoldingGraph(points, plane, kind, np.stack([u, v], 1)[keep], w[keep], gad.rows, chains,
                        np.where(gad.core, row, -1), vertex_gadget, gadget[keep], edge_plane[keep],
                        grid[keep], on[keep])


def _prune(
    G: FoldingGraph, dists: list[float], parent: list[int], targets: list[int], root_id: int
):
    """Union of root paths to the targets, lifted into a fresh graph and its tree.

    Every kept vertex keeps its own id, even where two lifts land on one
    point, and hangs off its parent by one edge, one core-path stop or
    one bend, so the result is a spanning tree.  The kept vertices come
    first, in id order; then the stops of the kept core paths, each
    path's apices (``apex_path``, which shares apices by ascending grid
    vertex per surface) and its grid vertex; then the bends.  Edges come
    in order of root distance, each planar one through its bends, which
    are numbered in that order.  Which vertices and stops exist, and in
    what order, is decided here one kept core path at a time; their
    points are then placed at once: the portals, stops and bends are
    lifted in one ``SurfaceRows.lift``, the bends found by one
    ``SurfaceRows.crossings`` over every kept planar edge, and the edges
    weighed by one hypot each.  Returns the graph, its tree and each
    target's vertex in it.
    """
    used = root_paths(parent, root_id, targets)
    n_old, n_used = G.n, len(used)
    new, up = np.full(n_old, -1), np.full(n_old, -1)
    new[used] = np.arange(n_used)
    up[used] = [parent[v] for v in used]
    # Each kept vertex hangs off its parent by the first core path between
    # them, in edge order, as long as its root distance, else by their edge.
    u, v = G.ends.T
    child = np.where(up[u] == v, u, np.where(up[v] == u, v, -1))
    e = np.flatnonzero(child >= 0)
    c = child[e]
    dist = np.array([dists[x] for x in c.tolist()])
    via = (G.edge_grid[e] >= 0) & (G.weights[e] == dist)
    take = via | (G.edge_grid[e] < 0)
    e, c, dist, via = e[take], c[take], dist[take], via[take]
    pick = np.lexsort((e, ~via, c))
    pick = pick[np.r_[True, c[pick][1:] != c[pick][:-1]]]
    e, c, dist, via = e[pick], c[pick], dist[pick], via[pick]

    # The core paths by surface and ascending grid vertex: the order in
    # which apex_path's tie rule shares apices, whatever the numbering.
    by = np.lexsort((c[via], G.edge_grid[e[via]], G.edge_gadget[e[via]]))
    path_e, path_c = e[via][by], c[via][by]
    path_g = G.edge_gadget[path_e]
    stops, last, made = [], [], {}  # stops: (gadget, level, index, previous stop or -1)
    for g, k, j, on_grid in zip(path_g.tolist(), G.chains.k[G.chain_row[path_g]].tolist(),
                                G.edge_grid[path_e].tolist(), G.edge_on[path_e].tolist()):
        placed, at = made.setdefault(g, {}), -1
        for key in apex_path(k, j, placed) + ([] if on_grid else [(-1, j)]):
            if key not in placed:
                placed[key] = len(stops)
                stops.append((g, *key, at))
            at = placed[key]
        last.append(at)
    stop_g, level, index, before = np.array(stops, dtype=int).reshape(-1, 4).T
    stop_row, ns = G.chain_row[stop_g], len(stops)
    stop_q = G.chains.points(stop_row, level, index)
    last = np.array(last, dtype=int)

    # Steps: (root distance, order, from, to, gadget, q1, q2) into each
    # kept vertex but the root and into each stop, no two alike in the
    # first two; a stop orders after every vertex.  A planar step runs
    # from q1 to q2 on its gadget's surface.
    plain = ~via
    pc, pe = c[plain], e[plain]
    flip = (up[pc] > pc)[:, None]  # an edge's planar points come lower id first
    q = G.edge_plane[pe]
    edges = (dist[plain], pc, new[up[pc]], new[pc], G.edge_gadget[pe],
             np.where(flip, q[:, 2:], q[:, :2]), np.where(flip, q[:, :2], q[:, 2:]))
    into_stops = (G.chains.dists[stop_row, np.where(level < 0, G.chains.k[stop_row] + 1, level)],
                  n_old + np.arange(ns), np.where(before < 0, new[root_id], n_used + before),
                  n_used + np.arange(ns), stop_g,
                  np.where((before < 0)[:, None], 0.0, stop_q[np.maximum(before, 0)]), stop_q)
    off_stops = (dist[via][by], path_c, n_used + last, new[path_c], path_g, stop_q[last],
                 G.edge_plane[path_e, 2:])
    dist, order, a, b, gadget, q1, q2 = map(np.concatenate, zip(edges, into_stops, off_stops))
    steps = np.lexsort((order, dist))
    a, b, gadget, q1, q2 = a[steps], b[steps], gadget[steps], q1[steps], q2[steps]
    planar = np.flatnonzero(gadget >= 0)
    seg, bends = G.rows.crossings(gadget[planar], q1[planar], q2[planar])
    bent = planar[seg]  # the step of each bend

    used_g = G.vertex_gadget[used]
    portal = np.flatnonzero(used_g >= 0)
    lifted = G.rows.lift(np.concatenate([used_g[portal], stop_g, gadget[bent]]),
                         np.concatenate([G.plane[used][portal], stop_q, bends]))
    points = np.concatenate([G.points[used], lifted[len(portal):]])
    points[portal] = lifted[:len(portal)]

    # Each step's edges: from its start through its bends to its end.
    count = np.bincount(bent, minlength=len(steps))
    first = n_used + ns + np.cumsum(count) - count
    step = np.repeat(np.arange(len(steps)), count + 1)
    at = np.arange(len(step)) - (np.cumsum(count + 1) - count - 1)[step]
    eu = np.where(at == 0, a[step], first[step] + at - 1)
    ev = np.where(at == count[step], b[step], first[step] + at)
    kinds = [KINDS[k] for k in G.kind[used].tolist()]
    kinds += ["ell_steiner" if i < 0 else "core_apex" for i in level.tolist()] + ["bend"] * len(seg)
    tree = Tree(np.stack([eu, ev], 1), lengths(points[eu], points[ev]), int(new[root_id]))
    return SteinerGraph(points, kinds), tree, new[targets].tolist()


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
    graph = SteinerGraph(g.plane, [_CORE_KINDS[k] for k in g.kinds])
    u, v = core_tree.edges.T
    tree = Tree(core_tree.edges, lengths(g.plane[u], g.plane[v]), core_tree.root)
    # The core numbers the root first and the base points in input order.
    base_ids = iter(g.input_ids)
    vertex_of = [g.root if i == pts.root else next(base_ids) for i in range(pts.n)]
    report = measure(
        graph, tree, vertex_of, eps, euclidean_mst(pts).weight,
        {
            "levels": g.k,
            "chain_total": sum([(1 << (i + 1)) * g.chain[i] for i in range(g.k + 1)]),
            "level_angles": [g.alpha * g.lam**i for i in range(g.k + 1)],
        },
    )
    return graph, tree, report

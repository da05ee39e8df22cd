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

``assemble_core2d`` runs the recursive triangle core alone on a 2-d instance
and returns the same (graph, tree, report) triple as ``assemble_slt``.  It
lives here, not in ``core2d``, because it needs ``SteinerGraph``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

from .breakpoints import SubdividedPath, select_breakpoints, subdivide
from .core2d import CoreChain, CoreInstance, build_core, core_spt, portal_grid
from .errors import EmptySurface, EpsOutOfRange, SltError
from .geometry import PlanePoint, Point
from .metrics import collector_paused, dijkstra, edge_table, measure, root_paths
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


class FoldingGraph(SteinerGraph):
    """The folding graph before lifting.

    Shared vertices (input points, break points, secondary break points)
    hold R^d coordinates.  A gadget vertex holds a planar point of the
    surface in ``surface``.  ``planar`` maps the key (lo, hi) of a gadget
    edge to its surface and the planar points of lo and hi; every other
    edge is straight in R^d.  Two vertices get at most one edge, and a
    vertex none to itself (on a surface along one ray, r's vertex is the
    one Steiner point, and its connectors repeat sub-path edges), but for
    the root's edges in ``core_paths``, each its own core path: (surface,
    CoreChain, grid vertex, whether the portal is on it, portal point).
    It holds no phase-1 segment that no root path can use, and no break
    point that only such segments touch (``assemble_slt``).
    """

    def __init__(self):
        super().__init__()
        self.surface: dict[int, FoldedSurface] = {}
        self.planar: dict[tuple[int, int], tuple[FoldedSurface, PlanePoint, PlanePoint]] = {}
        self.core_paths: dict[tuple[int, int], list[tuple[float, tuple]]] = {}
        self._edge_set: set[tuple[int, int]] = set()

    def add_edge(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if u != v and key not in self._edge_set:
            self._edge_set.add(key)
            self.edges.append((u, v, math.dist(self.coords[u], self.coords[v])))

    def add_gadget_edge(
        self, surf: FoldedSurface, u: int, qu: PlanePoint, v: int, qv: PlanePoint
    ) -> None:
        """Edge between the planar points qu, qv of u, v on ``surf``, weighed in the plane."""
        key = (u, v) if u < v else (v, u)
        if u == v or key in self._edge_set:
            return
        self._edge_set.add(key)
        if u > v:
            u, v, qu, qv = v, u, qv, qu
        self.planar[key] = (surf, qu, qv)
        self.edges.append((u, v, math.dist(qu, qv)))

    def add_core_path(self, u: int, v: int, w: float, path: tuple) -> None:
        """Edge u-v, maybe parallel to another, for a path through an unbuilt core."""
        self.edges.append((u, v, w))
        self.core_paths.setdefault((u, v), []).append((w, path))


@dataclass(slots=True)
class SecondaryBp:
    """A secondary break point on the sub-path of one surface."""

    arc: float
    edge: int  # sub-path edge index
    point: Point
    plane: PlanePoint
    at_vertex: int  # local vertex index if it coincides with one, else -1
    steiner: int  # index of the nearest Steiner point on the cross line


@dataclass
class SurfaceGadget:
    """Planar construction data for one folded surface that holds an input."""

    surface: FoldedSurface
    vertex_images: list[PlanePoint]
    secondary: list[SecondaryBp]
    ell_a: PlanePoint
    ell_b: PlanePoint
    ell_steiner: list[PlanePoint]
    r_local: int
    eps_int: float
    lam: float

    def core_triangle(self) -> CoreInstance | None:
        """The recursive triangle over the cross line; None if it has zero width.

        It holds no base points: ``CoreChain.of`` reads only the triangle,
        and ``build_gadget`` puts the Steiner points on its base.
        """
        a, b = self.ell_a, self.ell_b
        if math.dist(a, b) < 1e-12 * a[0]:
            return None
        eps_core = max(self.eps_int, self.surface.total_angle**2)
        return CoreInstance((0.0, 0.0), a, b, (), eps_core, self.lam)

    def core_instance(self) -> CoreInstance | None:
        """The core triangle with the Steiner points on its base, checked there."""
        tri = self.core_triangle()
        return None if tri is None else replace(tri, base_points=tuple(self.ell_steiner))


def build_gadget(
    surf: FoldedSurface, input_locals: list[int], eps_int: float, lam: float = 1.25
) -> SurfaceGadget:
    """Planar gadget for one surface.

    ``input_locals`` lists the sub-path vertex indices holding input
    points (the root excluded), at least one: a surface without any gets
    no gadget, only its phase-1 edges (``assemble_slt``).
    """
    verts = surf.verts
    if len(verts) < 2:
        raise EmptySurface(f"surface {surf.index} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    if not input_locals:
        raise ValueError(f"surface {surf.index} holds no input")
    # As unfold_vertex: each vertex at its radius on its boundary ray.
    radius = [math.dist(surf.apex, v) for v in verts]
    imgs = [(r * math.cos(t), r * math.sin(t))
            for r, t in zip(radius, surf.cum_angle, strict=True)]

    cum_len = list(accumulate(map(math.dist, verts, verts[1:]), initial=0.0))
    total_len = cum_len[-1]
    theta_count = math.ceil(math.sqrt(1.0 / eps_int))  # at least 2, as eps_int <= 1/4

    r_local = min(input_locals, key=lambda j: (radius[j], j))
    r_img = imgs[r_local]
    total_angle = surf.cum_angle[-1]

    flat = total_angle < 1e-9
    if flat:
        ell_a = ell_b = (radius[r_local], 0.0)
        steiner = [ell_a]
    else:
        phi = 0.5 * total_angle
        c = r_img[0] * math.cos(phi) + r_img[1] * math.sin(phi)
        t_ell = c / math.cos(phi)
        ell_a = (t_ell, 0.0)
        ell_b = (t_ell * math.cos(total_angle), t_ell * math.sin(total_angle))
        steiner = [
            (
                ell_a[0] + (ell_b[0] - ell_a[0]) * q / (theta_count - 1),
                ell_a[1] + (ell_b[1] - ell_a[1]) * q / (theta_count - 1),
            )
            for q in range(theta_count)
        ]
        (ax, ay), (bx, by) = steiner[0], steiner[-1]
        dx, dy = bx - ax, by - ay
        span, m = dx * dx + dy * dy, theta_count - 1

    # Secondary break points at arc q*W/theta for q = 1..theta.  The arcs grow
    # with q, so one sweep finds each one's segment j as Polyline.locate does.
    # Each takes the Steiner point nearest its central projection onto the
    # cross line, the lower index on a tie: the points are equally spaced,
    # so that is one of the two around the projection's parameter.
    secondary: list[SecondaryBp] = []
    vtol = 1e-12 * total_len
    j, last = 0, len(cum_len) - 2
    for q in range(1, theta_count + 1):
        # q*W/theta may round past W at q == theta
        arc = q * total_len / theta_count if q < theta_count else total_len
        while j < last and cum_len[j + 1] <= arc:
            j += 1
        t = arc - cum_len[j]
        seg_len = cum_len[j + 1] - cum_len[j]
        at_vertex = -1
        frac = t / seg_len if seg_len > 0 else 0.0
        if t <= vtol:
            at_vertex, frac = j, 0.0
        elif t >= seg_len - vtol:
            at_vertex, frac = j + 1, 1.0
        if at_vertex >= 0:
            point = verts[at_vertex]
            plane = imgs[at_vertex]
        else:
            point = tuple([a + frac * (b - a) for a, b in zip(verts[j], verts[j + 1])])
            a, b = imgs[j], imgs[j + 1]
            plane = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        if flat:
            nearest = 0
        else:
            ang = math.atan2(plane[1], plane[0])
            rr = c / math.cos(ang - phi)  # where the ray meets the line
            p = (rr * math.cos(ang), rr * math.sin(ang))
            lo = math.floor(((p[0] - ax) * dx + (p[1] - ay) * dy) / span * m)
            lo = 0 if lo < 0 else m - 1 if lo > m - 1 else lo
            nearest = lo if math.dist(steiner[lo], p) <= math.dist(steiner[lo + 1], p) else lo + 1
        secondary.append(SecondaryBp(arc, j, point, plane, at_vertex, nearest))

    return SurfaceGadget(surf, imgs, secondary, ell_a, ell_b, steiner, r_local, eps_int, lam)


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

    # Input i is vertex i; a break point between inputs gets its id on first use.
    G = FoldingGraph()
    G.coords.extend(pts.points)
    G.kinds.extend(["input"] * pts.n)
    input_ids = list(range(pts.n))
    root_id = pts.root
    vertex_of = list(sub.input_index)
    hverts = sub.hstar.vertices
    cores = zero_width = 0
    inputs_of = surface_inputs(surfaces, sub, root_id)

    for i, surf in enumerate(surfaces):
        inputs = inputs_of[i]
        if not inputs and _relay_only(s, surfaces, inputs_of, i):
            a = vertex_of[surf.hstar[0]]
            if a >= 0:  # a kept segment made a's vertex: it keeps its spoke
                G.add_edge(root_id, a)
            continue
        vids = []
        for h in surf.hstar:
            v = vertex_of[h]
            if v < 0:
                v = vertex_of[h] = len(G.coords)
                G.coords.append(hverts[h])
                G.kinds.append("break")
            vids.append(v)
        if not inputs:  # no gadget: the phase-1 sub-path and spoke alone
            for u, v in zip(vids, vids[1:]):
                G.add_edge(u, v)
            if vids[0] != root_id:
                G.add_edge(root_id, vids[0])
            continue
        core = _realize(G, build_gadget(surf, inputs, eps_int, lam), vids, root_id)
        cores += core is not None
        zero_width += core is None

    edges = edge_table(G.edges)
    dists, parent = dijkstra(G.n, edges[:, :2], edges[:, 2], root_id)
    tree_graph, tree, input_vertices = _prune(G, dists, parent, input_ids, root_id)

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
            "zero_width_cores": zero_width,
            "graph_vertices": G.n,
            "graph_edges": len(G.edges),
            "pruned_vertices": G.n - tree_graph.n,
        },
    )
    return tree_graph, tree, report


def _realize(
    G: FoldingGraph,
    gadget: SurfaceGadget,
    vids: list[int],
    root_id: int,
) -> CoreChain | None:
    """Add the surface's sub-path and its planar gadget to the graph; return its core.

    Vertices go straight into the graph's lists; edges are added by
    ``add_edge``, ``add_gadget_edge`` and ``add_core_path``.
    """
    surf = gadget.surface
    coords, kinds = G.coords, G.kinds
    add_edge, link = G.add_edge, G.add_gadget_edge

    # The sub-path, with secondary break points inserted as vertices.  Their
    # arcs grow, so they come in order along it.
    sec_ids: list[int] = []
    prev, j = vids[0], 0  # the last vertex along the sub-path, and its edge
    for sb in gadget.secondary:
        if sb.at_vertex >= 0:
            sec_ids.append(vids[sb.at_vertex])
            continue
        vid = len(coords)
        coords.append(sb.point)
        kinds.append("secondary_break")
        sec_ids.append(vid)
        while j < sb.edge:
            j += 1
            add_edge(prev, vids[j])
            prev = vids[j]
        add_edge(prev, vid)
        prev = vid
    while j < len(vids) - 1:
        j += 1
        add_edge(prev, vids[j])
        prev = vids[j]

    # The portals: a vertex per Steiner point, r's own at r's image.
    r_id, r_img = vids[gadget.r_local], gadget.vertex_images[gadget.r_local]
    rx, ry = r_img
    near = 1e-12 * math.hypot(rx, ry)  # coincidence, relative to the gadget
    ids, plane = [], []
    for q in gadget.ell_steiner:
        if math.hypot(q[0] - rx, q[1] - ry) <= near:
            ids.append(r_id)
            plane.append(r_img)
        else:
            v = len(coords)
            G.surface[v] = surf
            ids.append(v)
            coords.append(q)
            kinds.append("ell_steiner")
            plane.append(q)
    core = None
    tri = gadget.core_triangle()
    if tri is None:
        # Zero-width triangle: single spoke from the root to the line point.
        link(surf, root_id, (0.0, 0.0), ids[0], plane[0])
    else:
        core = CoreChain.of(tri)
        m, k = len(ids) - 1, core.k
        dx, dy = gadget.ell_b[0] - gadget.ell_a[0], gadget.ell_b[1] - gadget.ell_a[1]
        for x, v in enumerate(ids):
            (on, u), qv = portal_grid(x, m, k), plane[x]
            qu = plane[u] if u >= 0 else core.point((-1, -1 - u))
            # The signs tell the sides of r along the line.
            if on < 0 and ((qu[0] - rx) * dx + (qu[1] - ry) * dy) * (
                    (qv[0] - rx) * dx + (qv[1] - ry) * dy) < 0.0:
                # r lies on the cross line: a base edge running past its
                # image is split there, which joins r to the line.
                link(surf, r_id, r_img, v, qv)
                v, qv = r_id, r_img
            if u >= 0:
                link(surf, ids[u], qu, v, qv)
            else:
                w = core.dists[-1] + math.dist(qu, qv)
                G.add_core_path(root_id, v, w, (surf, core, -1 - u, on >= 0, qv))
    for sb, vid in zip(gadget.secondary, sec_ids):
        x = sb.steiner
        link(surf, ids[x], plane[x], vid, sb.plane)
    return core


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
    coords, surface_of, n_old = G.coords, G.surface, G.n
    sub_coords, sub_kinds, sub_edges = sub.coords, sub.kinds, sub.edges
    new = {}
    for old in used:
        surf = surface_of.get(old)
        new[old] = len(sub_coords)
        sub_coords.append(coords[old] if surf is None else lift(surf, coords[old]))
        sub_kinds.append(G.kinds[old])
    # Each kept vertex hangs off its parent by an edge, planar or straight,
    # or by a core path, whose stops are placed once per (surface, key).
    # (root distance, order, parent in sub, vertex in sub, planar segment);
    # no two share the first two, so they sort by those alone.
    steps = []
    paths = []  # (surface index, grid vertex, vertex, core path) per kept core path
    for old in used:
        p = parent[old]
        if p == -1:
            continue
        if p == root_id:  # every core path starts at the root
            path = next((c for w, c in G.core_paths.get((p, old), ()) if w == dists[old]), None)
            if path is not None:
                paths.append((path[0].index, path[2], old, path))
                continue
        seg = G.planar.get((p, old) if p < old else (old, p))
        if seg is not None and p > old:
            seg = (seg[0], seg[2], seg[1])
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

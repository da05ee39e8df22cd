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
from dataclasses import dataclass

from .breakpoints import SubdividedPath, select_breakpoints, subdivide
from .core2d import CoreChain, CoreInstance, build_core, core_spt, portal_grid
from .errors import EmptySurface, EpsOutOfRange, SltError
from .geometry import PlanePoint, Point, Polyline, dist
from .metrics import adjacency, collector_paused, dijkstra, measure, root_paths
from .mst_path import PointCloud, Tree, dfs_hamiltonian, euclidean_mst, euclidean_mst_weight
from .unfolding import FoldedSurface, build_surfaces, lift, ray_crossings, unfold_vertex
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

    def add_planar(self, surf: FoldedSurface, q: PlanePoint, kind: str) -> int:
        i = self.add_vertex(q, kind)
        self.surface[i] = surf
        return i

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

    def point(self, v: int) -> Point:
        """R^d coordinates of vertex v; a gadget vertex is lifted onto its surface."""
        surf = self.surface.get(v)
        return self.coords[v] if surf is None else lift(surf, self.coords[v])


@dataclass(slots=True)
class SecondaryBp:
    """A secondary break point on the sub-path of one surface."""

    arc: float
    edge: int  # sub-path edge index
    frac: float  # position within the edge
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

    def core_instance(self) -> CoreInstance | None:
        """The recursive triangle over the cross line; None if it has zero width."""
        a, b = self.ell_a, self.ell_b
        if math.dist(a, b) < 1e-12 * a[0]:
            return None
        eps_core = max(self.eps_int, self.surface.total_angle**2)
        return CoreInstance((0.0, 0.0), a, b, tuple(self.ell_steiner), eps_core, self.lam)


def _nearest_steiner(steiner: list[PlanePoint], q: PlanePoint) -> int:
    """Index of the Steiner point nearest q, the lower index on a tie.

    The points are equally spaced on one line and q lies on it, so the
    nearest is one of the two around q's parameter along the line.
    """
    if len(steiner) == 1:
        return 0
    (ax, ay), (bx, by) = steiner[0], steiner[-1]
    dx, dy = bx - ax, by - ay
    t = ((q[0] - ax) * dx + (q[1] - ay) * dy) / (dx * dx + dy * dy) * (len(steiner) - 1)
    lo = min(max(math.floor(t), 0), len(steiner) - 2)
    return lo if math.dist(steiner[lo], q) <= math.dist(steiner[lo + 1], q) else lo + 1


def build_gadget(
    surf: FoldedSurface, input_locals: list[int], eps_int: float, lam: float = 1.25
) -> SurfaceGadget:
    """Planar gadget for one surface.

    ``input_locals`` lists the sub-path vertex indices holding input
    points (the root excluded), at least one: a surface without any gets
    no gadget, only its phase-1 edges (``assemble_slt``).
    """
    if len(surf.verts) < 2:
        raise EmptySurface(f"surface {surf.index} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    if not input_locals:
        raise ValueError(f"surface {surf.index} holds no input")
    imgs = [unfold_vertex(surf, j) for j in range(len(surf.verts))]

    cum_len = Polyline(surf.verts).cum_len
    total_len = cum_len[-1]
    theta_count = math.ceil(math.sqrt(1.0 / eps_int))

    r_local = min(input_locals, key=lambda j: (surf.vertex_radius(j), j))
    r_img = imgs[r_local]
    r_rad = surf.vertex_radius(r_local)
    total_angle = surf.total_angle

    if total_angle < 1e-9:
        ell_a = ell_b = (r_rad, 0.0)
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
        ] if theta_count > 1 else [ell_a]

    def project(q: PlanePoint) -> PlanePoint:
        # Intersection of line(root, q) with the cross line.
        if total_angle < 1e-9:
            return (r_rad, 0.0)
        ang = math.atan2(q[1], q[0])
        rr = c / math.cos(ang - phi)  # where the ray meets the line
        return (rr * math.cos(ang), rr * math.sin(ang))

    # Secondary break points at arc q*W/theta for q = 1..theta.  The arcs grow
    # with q, so one sweep finds each one's segment j as Polyline.locate does.
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
            point = surf.verts[at_vertex]
            plane = imgs[at_vertex]
        else:
            point = tuple([a + frac * (b - a) for a, b in zip(surf.verts[j], surf.verts[j + 1])])
            a, b = imgs[j], imgs[j + 1]
            plane = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        steiner_idx = _nearest_steiner(steiner, project(plane))
        secondary.append(SecondaryBp(arc, j, frac, point, plane, at_vertex, steiner_idx))

    return SurfaceGadget(surf, imgs, secondary, ell_a, ell_b, steiner, r_local, eps_int, lam)


def gadget_inputs(surf: FoldedSurface, sub: SubdividedPath, root: int) -> list[int]:
    """Local indices of the surface's inputs but the root; none on the root surface."""
    index = [sub.input_index[h] for h in surf.hstar]
    if index[0] == root:
        return []
    return [j for j, i in enumerate(index) if i >= 0 and i != root]


def _front_end(pts: PointCloud, eps: float, gamma: float):
    """Check the parameters and run the folding method up to its surfaces.

    Returns (eps_int, MST, break points, subdivided path, surfaces), with
    eps_int = eps/gamma.  ``assemble_slt`` and ``slt render --surfaces``
    both start here, so they accept and reject the same parameters.
    """
    if pts.n < 2:
        raise ValueError("need at least two points")
    if not 0.0 < eps <= 0.25:
        raise EpsOutOfRange(f"eps={eps} outside (0, 1/4]")
    if gamma < 1.0:
        raise ValueError("gamma must be at least 1")
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
    b -> a; by ``dijkstra``'s tie rule no distance or parent changes.  A
    break point left with its spoke alone is a leaf off the root and no
    target.  Vertices are made in the same relative order, so the heap
    order, the tie rule and ``_prune``'s sort, and with them the
    numbering of the tree, are unchanged.  Points on a ray from the root
    miss the margin and keep the full graph.
    """
    eps_int, mst, bps, sub, surfaces = _front_end(pts, eps, gamma)
    s = pts.points[pts.root]

    # Input i is vertex i; a break point between inputs gets its id on first use.
    G = FoldingGraph()
    input_ids = [G.add_vertex(p, "input") for p in pts.points]
    root_id = pts.root
    vertex_of = list(sub.input_index)
    hverts = sub.hstar.vertices
    cores = zero_width = 0
    inputs_of = [gadget_inputs(surf, sub, pts.root) for surf in surfaces]

    for i, surf in enumerate(surfaces):
        inputs = inputs_of[i]
        if not inputs and _relay_only(s, surfaces, inputs_of, i):
            a = vertex_of[surf.hstar[0]]
            if a >= 0:  # a kept segment made a's vertex: it keeps its spoke
                G.add_edge(root_id, a)
            continue
        for h in surf.hstar:
            if vertex_of[h] < 0:
                vertex_of[h] = G.add_vertex(hverts[h], "break")
        vids = [vertex_of[h] for h in surf.hstar]
        if not inputs:  # no gadget: the phase-1 sub-path and spoke alone
            for u, v in zip(vids, vids[1:]):
                G.add_edge(u, v)
            if vids[0] != root_id:
                G.add_edge(root_id, vids[0])
            continue
        core = _realize(G, build_gadget(surf, inputs, eps_int, lam), vids, root_id)
        cores += core is not None
        zero_width += core is None

    dists, parent = dijkstra(G.n, adjacency(G.n, G.edges), root_id)
    tree_graph, tree, input_vertices = _prune(G, dists, parent, input_ids, root_id)

    phase1 = sub.hstar.total_length + math.fsum(dist(s, q) for q in bps.points[1:])
    report = measure(
        tree, tree_graph.coords, input_vertices, eps, euclidean_mst_weight(pts.points, prim=mst),
        {
            "gamma": gamma,
            "phase1_weight": phase1,
            "surface_angles": [f.total_angle for f in surfaces],
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
) -> CoreInstance | None:
    """Add the surface's sub-path and its planar gadget to the graph; return its core."""
    surf = gadget.surface

    # Sub-path edges, with secondary break points inserted as vertices.
    sec_ids: list[int] = []
    per_edge: dict[int, list[tuple[float, int]]] = {}
    for sb in gadget.secondary:
        if sb.at_vertex >= 0:
            sec_ids.append(vids[sb.at_vertex])
            continue
        vid = G.add_vertex(sb.point, "secondary_break")
        sec_ids.append(vid)
        per_edge.setdefault(sb.edge, []).append((sb.frac, vid))
    for j in range(len(surf.verts) - 1):
        chain = [vids[j]]
        chain.extend(v for _, v in sorted(per_edge.get(j, ())))
        chain.append(vids[j + 1])
        for u, v in zip(chain, chain[1:]):
            G.add_edge(u, v)

    # The portals: a vertex per Steiner point, r's own at r's image.
    r_id, r_img = vids[gadget.r_local], gadget.vertex_images[gadget.r_local]
    near = 1e-12 * math.hypot(*r_img)  # coincidence, relative to the gadget
    ids, plane = [], []
    for q in gadget.ell_steiner:
        at_r = math.hypot(q[0] - r_img[0], q[1] - r_img[1]) <= near
        ids.append(r_id if at_r else G.add_planar(surf, q, "ell_steiner"))
        plane.append(r_img if at_r else q)
    inst = gadget.core_instance()
    if inst is None:
        # Zero-width triangle: single spoke from the root to the line point.
        G.add_gadget_edge(surf, root_id, (0.0, 0.0), ids[0], plane[0])
    else:
        core = CoreChain.of(inst)
        dx, dy = gadget.ell_b[0] - gadget.ell_a[0], gadget.ell_b[1] - gadget.ell_a[1]

        def side(q: PlanePoint) -> float:  # its sign tells the side of r
            return (q[0] - r_img[0]) * dx + (q[1] - r_img[1]) * dy

        for x, v in enumerate(ids):
            (on, u), qv = portal_grid(x, len(ids) - 1, core.k), plane[x]
            qu = plane[u] if u >= 0 else core.point((-1, -1 - u))
            if on < 0 and side(qu) * side(qv) < 0.0:
                # r lies on the cross line: a base edge running past its
                # image is split there, which joins r to the line.
                G.add_gadget_edge(surf, r_id, r_img, v, qv)
                v, qv = r_id, r_img
            if u >= 0:
                G.add_gadget_edge(surf, ids[u], qu, v, qv)
            else:
                w = core.dists[-1] + math.dist(qu, qv)
                G.add_core_path(root_id, v, w, (surf, core, -1 - u, on >= 0, qv))
    for sb, vid in zip(gadget.secondary, sec_ids):
        x = sb.steiner
        G.add_gadget_edge(surf, ids[x], plane[x], vid, sb.plane)
    return inst


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
    new = {old: sub.add_vertex(G.point(old), G.kinds[old]) for old in used}
    # Each kept vertex hangs off its parent by an edge, planar or straight,
    # or by a core path, whose stops are placed once per (surface, key).
    steps = []  # (root distance, order, parent in sub, vertex in sub, planar segment)
    paths = []  # (surface index, grid vertex, vertex, core path) per kept core path
    for old in used:
        p = parent[old]
        if p == -1:
            continue
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
    made = {}  # surface index -> {key: (vertex in sub, planar point)}
    for index, j, old, (surf, core, _, on_grid, q_end) in sorted(paths, key=lambda c: c[:3]):
        placed = made.setdefault(index, {})
        a, qa = new[root_id], (0.0, 0.0)
        for key in core.path(j, placed) + ([] if on_grid else [(-1, j)]):
            if key not in placed:
                q = core.point(key)
                b = sub.add_vertex(lift(surf, q), "ell_steiner" if key[0] < 0 else "core_apex")
                steps.append((core.dists[key[0]], G.n + len(steps), a, b, (surf, qa, q)))
                placed[key] = b, q
            a, qa = placed[key]
        steps.append((dists[old], old, a, new[old], (surf, qa, q_end)))
    steps.sort(key=lambda step: step[:2])
    for _, _, a, b, seg in steps:
        if seg is not None:
            for q in ray_crossings(*seg):
                bend = sub.add_vertex(lift(seg[0], q), "bend")
                sub.add_edge(a, bend)
                a = bend
        sub.add_edge(a, b)
    tree = Tree(sub.n, tuple(sub.edges), new[root_id])
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
        tree, graph.coords, vertex_of, eps, euclidean_mst_weight(pts.points, pts.root),
        {
            "levels": g.k,
            "chain_total": sum([(1 << (i + 1)) * g.chain[i] for i in range(g.k + 1)]),
            "level_angles": [g.alpha * g.lam**i for i in range(g.k + 1)],
        },
    )
    return graph, tree, report

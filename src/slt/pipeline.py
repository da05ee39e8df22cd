"""End-to-end assembly of the Steiner shallow-light tree in R^d.

Per surface: secondary break points along the sub-path, a cross line
through the input point r closest to the root, Steiner points on that
line, a recursive triangle tree feeding them (split at r where it runs
past r's image, so r joins the line), and connector edges back to the
path.  The union over all surfaces is solved in the plane:
input points, break points, secondary break points and the root keep
their R^d coordinates, while every gadget vertex is a planar point of its
surface and every gadget edge weighs its planar length (unfolding is
isometric, so that is the length of its lift).  The tree is the union of
shortest paths from the root to the input points; only its gadget
vertices and edges are lifted onto their surfaces, bends included.

``assemble_core2d`` runs the recursive triangle core alone on a 2-d instance
and returns the same (graph, tree, report) triple as ``assemble_slt``.  It
lives here, not in ``core2d``, because it needs ``SteinerGraph``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .breakpoints import SubdividedPath, select_breakpoints, subdivide
from .core2d import CoreGraph, CoreInstance, build_core, core_metrics, core_spt
from .errors import EmptySurface, EpsOutOfRange, SltError, Unreachable
from .geometry import PlanePoint, Point, Polyline, dist
from .metrics import SltReport, adjacency, dijkstra, root_stretch
from .mst_path import PointCloud, Tree, dfs_hamiltonian, euclidean_mst
from .unfolding import FoldedSurface, build_surfaces, lift, lift_segment, unfold_vertex


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
        self.edges.append((u, v, dist(self.coords[u], self.coords[v])))


class FoldingGraph(SteinerGraph):
    """The folding graph before lifting.

    Shared vertices (input points, break points, secondary break points)
    hold R^d coordinates.  A gadget vertex holds a planar point of the
    surface in ``surface``.  ``planar`` maps the key (lo, hi) of a gadget
    edge to its surface and the planar points of lo and hi; every other
    edge is straight in R^d.  Two vertices get at most one edge, and a
    vertex none to itself: on a surface along one ray, r's vertex is the
    one Steiner point, and its connectors repeat sub-path edges.
    """

    def __init__(self):
        super().__init__()
        self.surface: dict[int, FoldedSurface] = {}
        self.planar: dict[tuple[int, int], tuple[FoldedSurface, PlanePoint, PlanePoint]] = {}
        self._lifted: dict[int, Point] = {}
        self._edge_set: set[tuple[int, int]] = set()

    def _new_edge(self, u: int, v: int) -> tuple[int, int] | None:
        """The key (lo, hi) of a new edge; None for a loop or an edge made before."""
        key = (u, v) if u < v else (v, u)
        if u == v or key in self._edge_set:
            return None
        self._edge_set.add(key)
        return key

    def add_edge(self, u: int, v: int) -> None:
        if self._new_edge(u, v):
            super().add_edge(u, v)

    def add_planar(self, surf: FoldedSurface, q: PlanePoint, kind: str) -> int:
        i = self.add_vertex(q, kind)
        self.surface[i] = surf
        return i

    def add_gadget_edge(
        self, surf: FoldedSurface, u: int, qu: PlanePoint, v: int, qv: PlanePoint, chord: bool
    ) -> None:
        """Edge between the planar points qu, qv of u, v on ``surf``.

        Weighted by its planar length, or with ``chord`` by the chord
        between the lifted endpoints, which then is the edge.
        """
        key = self._new_edge(u, v)
        if key is None:
            return
        if u > v:
            u, v, qu, qv = v, u, qv, qu
        if chord:
            w = dist(self.point(u), self.point(v))
        else:
            w = math.dist(qu, qv)
            self.planar[key] = (surf, qu, qv)
        self.edges.append((u, v, w))

    def point(self, v: int) -> Point:
        """R^d coordinates of vertex v; a gadget vertex is lifted once."""
        surf = self.surface.get(v)
        if surf is None:
            return self.coords[v]
        p = self._lifted.get(v)
        if p is None:
            p = self._lifted[v] = lift(surf, self.coords[v])
        return p


@dataclass(frozen=True)
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
    """Planar construction data for one folded surface."""

    surface: FoldedSurface
    degenerate: bool
    vertex_images: list[PlanePoint] = field(default_factory=list)
    secondary: list[SecondaryBp] = field(default_factory=list)
    ell_a: PlanePoint | None = None
    ell_b: PlanePoint | None = None
    ell_steiner: list[PlanePoint] = field(default_factory=list)
    r_local: int = -1
    core: CoreGraph | None = None
    core_tree: Tree | None = None


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
    return min((lo, lo + 1), key=lambda i: (dist(steiner[i], q), i))


def build_gadget(
    surf: FoldedSurface, input_locals: list[int], eps_int: float, lam: float = 1.25
) -> SurfaceGadget:
    """Planar gadget for one surface.

    ``input_locals`` lists the sub-path vertex indices holding input
    points (the root excluded).  Without any the gadget degenerates to
    the direct spoke plus the sub-path, mirroring the phase-1 graph.
    """
    if len(surf.verts) < 2:
        raise EmptySurface(f"surface {surf.index} has no edges")
    if not 0.0 < eps_int <= 0.25:
        raise EpsOutOfRange(f"eps_int={eps_int} outside (0, 1/4]")
    imgs = [unfold_vertex(surf, j) for j in range(len(surf.verts))]
    if not input_locals:
        return SurfaceGadget(surf, True, imgs)

    subpath = Polyline(surf.verts)
    total_len = subpath.total_length
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

    # Secondary break points at arc q*W/theta for q = 1..theta.
    secondary: list[SecondaryBp] = []
    vtol = 1e-12 * total_len
    for q in range(1, theta_count + 1):
        # q*W/theta may round past W at q == theta
        arc = q * total_len / theta_count if q < theta_count else total_len
        pos = subpath.locate(arc)
        j, t = pos.segment_index, pos.t
        seg_len = subpath.cum_len[j + 1] - subpath.cum_len[j]
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
            point = subpath.point_at(pos)
            a, b = imgs[j], imgs[j + 1]
            plane = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        steiner_idx = _nearest_steiner(steiner, project(plane))
        secondary.append(SecondaryBp(arc, j, frac, point, plane, at_vertex, steiner_idx))

    gadget = SurfaceGadget(surf, False, imgs, secondary, ell_a, ell_b, steiner, r_local)
    _attach_core(gadget, eps_int, lam)
    return gadget


# Vertex kinds of a folding gadget by core vertex kind; its root is the
# graph's root, and its inputs are the Steiner points on the cross line.
_GADGET_KINDS = {
    "root": "bend", "apex": "core_apex", "grid": "ell_steiner", "input": "ell_steiner"
}


def _attach_core(gadget: SurfaceGadget, eps_int: float, lam: float) -> None:
    """Build the recursive triangle tree over the cross line."""
    a, b = gadget.ell_a, gadget.ell_b
    if dist(a, b) < 1e-12 * a[0]:
        return  # zero-width triangle; realized as a single spoke edge
    total = gadget.surface.total_angle
    eps_core = max(eps_int, total * total)
    inst = CoreInstance((0.0, 0.0), a, b, tuple(gadget.ell_steiner), eps_core, lam)
    core = build_core(inst)
    tree, _ = core_spt(core)
    gadget.core = core
    gadget.core_tree = tree


def gadget_inputs(surf: FoldedSurface, sub: SubdividedPath, root: int) -> list[int]:
    """Local indices of the surface's inputs but the root; none on the root surface."""
    index = [sub.input_index[h] for h in surf.hstar]
    if index[0] == root:
        return []
    return [j for j, i in enumerate(index) if i >= 0 and i != root]


def assemble_slt(
    pts: PointCloud,
    eps: float,
    gamma: float = 8.0,
    lam: float = 1.25,
    chord_shortcut: bool = False,
):
    """Build the Steiner SLT: returns (graph, tree, report).

    The tree is the union of shortest paths from the root to the input
    points inside the assembled graph; unused Steiner vertices are
    pruned.  Stretch is controlled by running the folding machinery at
    the internal parameter eps/gamma.
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
    s = pts.points[pts.root]
    surfaces = build_surfaces(sub, s)

    # Input i is vertex i; a break point between inputs gets its id on first use.
    G = FoldingGraph()
    input_ids = [G.add_vertex(p, "input") for p in pts.points]
    root_id = pts.root
    vertex_of = list(sub.input_index)
    hverts = sub.hstar.vertices

    for surf in surfaces:
        for h in surf.hstar:
            if vertex_of[h] < 0:
                vertex_of[h] = G.add_vertex(hverts[h], "break")
        vids = [vertex_of[h] for h in surf.hstar]
        gadget = build_gadget(surf, gadget_inputs(surf, sub, pts.root), eps_int, lam)
        _realize(G, gadget, vids, root_id, chord_shortcut)

    dists, parent = dijkstra(G.n, adjacency(G.n, G.edges), root_id)
    for i in input_ids:
        if math.isinf(dists[i]):
            raise Unreachable(f"input point {i} not reachable")

    tree_graph, tree = _prune(G, dists, parent, input_ids, root_id)

    per_point = [
        1.0 if i == pts.root else dists[i] / dist(s, p) for i, p in enumerate(pts.points)
    ]
    phase1 = sub.hstar.total_length + math.fsum(dist(s, q) for q in bps.points[1:])
    report = SltReport(
        n=pts.n,
        d=pts.dim,
        eps=eps,
        mst_weight=mst.weight,
        tree_weight=tree.weight,
        lightness=tree.weight / mst.weight,
        per_point_stretch=per_point,
        max_stretch=max(per_point),
        flags={
            "gamma": gamma,
            "phase1_weight": phase1,
            "surface_angles": [f.total_angle for f in surfaces],
            "truncated_surfaces": sum(1 for f in surfaces if f.truncated),
            "surfaces": len(surfaces),
            "graph_vertices": G.n,
            "graph_edges": len(G.edges),
            "pruned_vertices": G.n - tree_graph.n,
            "chord_shortcut": chord_shortcut,
        },
    )
    return tree_graph, tree, report


def _realize(
    G: FoldingGraph,
    gadget: SurfaceGadget,
    vids: list[int],
    root_id: int,
    chord_shortcut: bool,
) -> None:
    """Add the surface's sub-path and its planar gadget to the graph."""
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

    if gadget.degenerate:
        if vids[0] != root_id:
            G.add_edge(root_id, vids[0])  # phase-1 spoke
        return

    # The gadget is a tree over local vertices, each with a planar point, a
    # kind and a graph id, the id made on first use.  Its root is the
    # graph's root, and a Steiner point at r's image is r's vertex.
    r_id, r_img = vids[gadget.r_local], gadget.vertex_images[gadget.r_local]
    near = 1e-12 * math.hypot(*r_img)  # coincidence, relative to the gadget
    steiner = gadget.ell_steiner
    core = gadget.core
    if core is None:
        # Zero-width triangle: single spoke from the root to the line point.
        plane, kinds, root = [(0.0, 0.0), steiner[0]], ["bend", "ell_steiner"], 0
        at_steiner, edges = [1], [(0, 1)]
    else:
        plane = [core.plane_coords(x) for x in range(core.n)]
        kinds = [_GADGET_KINDS[k] for k in core.kinds]
        root, at_steiner = core.root, core.input_ids
        plane[root] = (0.0, 0.0)
        for x, q in zip(at_steiner, steiner):
            plane[x] = q
        edges = [(u, v) for u, v, _ in gadget.core_tree.edges]
    ids = [-1] * len(plane)
    ids[root] = root_id
    for x in at_steiner:
        if math.hypot(plane[x][0] - r_img[0], plane[x][1] - r_img[1]) <= near:
            ids[x], plane[x] = r_id, r_img
    if core is not None:
        # r lies on the cross line: a base edge running past its image is
        # split there, which joins r to the line.
        r_local = len(plane)
        plane.append(r_img)
        ids.append(r_id)
        dx, dy = gadget.ell_b[0] - gadget.ell_a[0], gadget.ell_b[1] - gadget.ell_a[1]

        def side(x: int) -> float:  # its sign tells the side of r
            return (plane[x][0] - r_img[0]) * dx + (plane[x][1] - r_img[1]) * dy

        split = []
        for u, v in edges:
            # levels < 0: base vertices, which lie on the cross line
            if core.levels[u] < 0 and core.levels[v] < 0 and side(u) * side(v) < 0.0:
                split += [(u, r_local), (r_local, v)]
            else:
                split.append((u, v))
        edges = split

    def vertex(x: int) -> int:
        if ids[x] < 0:
            ids[x] = G.add_planar(surf, plane[x], kinds[x])
        return ids[x]

    for u, v in edges:
        G.add_gadget_edge(surf, vertex(u), plane[u], vertex(v), plane[v], chord_shortcut)
    for sb, vid in zip(gadget.secondary, sec_ids):
        x = at_steiner[sb.steiner]
        G.add_gadget_edge(surf, vertex(x), plane[x], vid, sb.plane, chord_shortcut)


# Where lifted points coincide, the vertex keeps the kind listed first.
_KINDS = ("input", "break", "secondary_break", "ell_steiner", "grid", "core_apex", "bend")
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


def _prune(
    G: FoldingGraph, dists: list[float], parent: list[int], targets: list[int], root_id: int
):
    """Union of root paths to the targets, lifted into a fresh SteinerGraph.

    Kept gadget vertices are lifted onto their surfaces, and each kept
    gadget edge becomes the polyline through its bends.  Lifted points that
    coincide exactly share one vertex, so paths are added in order of root
    distance and an edge that would close a cycle is left out: the result
    stays a spanning tree.
    """
    used: list[int] = []
    seen = [False] * G.n
    for t in targets:
        v = t
        while v != -1 and not seen[v]:
            seen[v] = True
            used.append(v)
            v = parent[v]
    used.sort()
    sub = SteinerGraph()
    at: dict[Point, int] = {}  # lifted point -> its vertex in sub

    def add(p: Point, kind: str) -> int:
        i = at.get(p)
        if i is None:
            i = at[p] = sub.add_vertex(p, kind)
        elif _KIND_RANK[kind] < _KIND_RANK[sub.kinds[i]]:
            sub.kinds[i] = kind
        return i

    new = {old: add(G.point(old), G.kinds[old]) for old in used}
    comp = list(range(sub.n))  # union-find over sub's vertices

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = x = comp[comp[x]]
        return x

    used.sort(key=lambda v: (dists[v], v))
    for old in used:
        p = parent[old]
        if p == -1:
            continue
        chain = [new[p]]
        planar = G.planar.get((p, old) if p < old else (old, p))
        if planar is not None:
            surf, qa, qb = planar
            if p > old:
                qa, qb = qb, qa
            for bend in lift_segment(surf, qa, qb).vertices[1:-1]:
                chain.append(add(bend, "bend"))
            comp.extend(range(len(comp), sub.n))
        chain.append(new[old])
        for a, b in zip(chain, chain[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                comp[ra] = rb
                sub.add_edge(a, b)
    tree = Tree(sub.n, tuple(sub.edges), new[root_id])
    return sub, tree


_CORE_KINDS = {"root": "input", "apex": "core_apex", "grid": "grid", "input": "input"}


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
    core_tree, dists = core_spt(g)
    graph = SteinerGraph()
    for i in range(g.n):
        graph.add_vertex(g.plane_coords(i), _CORE_KINDS[g.kinds[i]])
    for u, v, _ in core_tree.edges:
        graph.add_edge(u, v)
    tree = Tree(graph.n, tuple(graph.edges), core_tree.root)
    # The core numbers the root first and the base points in input order.
    base_ids = iter(g.input_ids)
    vertex_of = [g.root if i == pts.root else next(base_ids) for i in range(pts.n)]
    per_point = root_stretch(tree, graph.coords, tree.root, vertex_of)
    mst = euclidean_mst(pts)
    report = SltReport(
        n=pts.n,
        d=2,
        eps=eps,
        mst_weight=mst.weight,
        tree_weight=tree.weight,
        lightness=tree.weight / mst.weight,
        per_point_stretch=per_point,
        max_stretch=max(per_point),
        flags={
            "levels": g.k,
            "chain_total": core_metrics(g, core_tree, dists).chain_total,
            "level_angles": [g.alpha * g.lam**i for i in range(g.k + 1)],
        },
    )
    return graph, tree, report

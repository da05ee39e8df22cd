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

from .breakpoints import select_breakpoints, subdivide
from .core2d import CoreGraph, CoreInstance, build_core, core_metrics, core_spt
from .errors import EmptySurface, EpsOutOfRange, SltError, Unreachable
from .geometry import PlanePoint, Point, Polyline, dist
from .metrics import SltReport, adjacency, dijkstra, root_stretch
from .mst_path import PointCloud, Tree, dfs_hamiltonian, euclidean_mst
from .unfolding import FoldedSurface, build_surfaces, lift, lift_segment, unfold_vertex

_KIND_RANK = {
    "input": 0,
    "break": 1,
    "secondary_break": 2,
    "ell_steiner": 3,
    "grid": 4,
    "core_apex": 5,
    "bend": 6,
}


class SteinerGraph:
    """Weighted geometric graph over input and Steiner vertices."""

    def __init__(self):
        self.coords: list[Point] = []
        self.kinds: list[str] = []
        self.edges: list[tuple[int, int, float]] = []
        self._index: dict[Point, int] = {}
        self._edge_set: set[tuple[int, int]] = set()

    @property
    def n(self) -> int:
        return len(self.coords)

    def add_vertex(self, p: Point, kind: str) -> int:
        i = self._index.get(p)
        if i is not None:
            if _KIND_RANK[kind] < _KIND_RANK[self.kinds[i]]:
                self.kinds[i] = kind
            return i
        i = len(self.coords)
        self.coords.append(p)
        self.kinds.append(kind)
        self._index[p] = i
        return i

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            return
        key = (u, v) if u < v else (v, u)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.edges.append((u, v, dist(self.coords[u], self.coords[v])))


class FoldingGraph(SteinerGraph):
    """The folding graph before lifting.

    Shared vertices (input points, break points, secondary break points)
    hold R^d coordinates and are found by them, as in ``SteinerGraph``.  A
    gadget vertex holds a planar point of the surface in ``surface``.
    ``planar`` maps the key (lo, hi) of a gadget edge to its surface and
    the planar points of lo and hi; every other edge is straight in R^d.
    """

    def __init__(self):
        super().__init__()
        self.surface: dict[int, FoldedSurface] = {}
        self.planar: dict[tuple[int, int], tuple[FoldedSurface, PlanePoint, PlanePoint]] = {}
        self._lifted: dict[int, Point] = {}

    def add_planar(self, surf: FoldedSurface, q: PlanePoint, kind: str) -> int:
        i = len(self.coords)
        self.coords.append(q)
        self.kinds.append(kind)
        self.surface[i] = surf
        return i

    def add_gadget_edge(
        self, surf: FoldedSurface, u: int, qu: PlanePoint, v: int, qv: PlanePoint, chord: bool
    ) -> None:
        """Edge between the planar points qu, qv of u, v on ``surf``.

        Weighted by its planar length, or with ``chord`` by the chord
        between the lifted endpoints, which then is the edge.
        """
        if u == v:
            return
        if u > v:
            u, v, qu, qv = v, u, qv, qu
        key = (u, v)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
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
    input_locals: list[int] = field(default_factory=list)
    vertex_images: list[PlanePoint] = field(default_factory=list)
    secondary: list[SecondaryBp] = field(default_factory=list)
    ell_a: PlanePoint | None = None
    ell_b: PlanePoint | None = None
    ell_steiner: list[PlanePoint] = field(default_factory=list)
    r_local: int = -1
    assignments: dict[int, tuple[PlanePoint, int]] = field(default_factory=dict)
    core: CoreGraph | None = None
    core_tree: Tree | None = None


def _nearest_steiner(steiner: list[PlanePoint], q: PlanePoint) -> int:
    return min(range(len(steiner)), key=lambda i: (dist(steiner[i], q), i))


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
        return SurfaceGadget(surf, True, [], imgs)

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

    assignments = {
        j: (project(imgs[j]), _nearest_steiner(steiner, project(imgs[j])))
        for j in input_locals
    }

    gadget = SurfaceGadget(
        surf,
        False,
        list(input_locals),
        imgs,
        secondary,
        ell_a,
        ell_b,
        steiner,
        r_local,
        assignments,
    )
    _attach_core(gadget, eps_int, lam)
    return gadget


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

    G = FoldingGraph()
    input_ids = [G.add_vertex(p, "input") for p in pts.points]
    root_id = input_ids[pts.root]

    for surf in surfaces:
        vids = [G.add_vertex(v, "break") for v in surf.verts]
        input_locals = [
            j for j, vid in enumerate(vids) if vid < pts.n and vid != root_id
        ]
        is_root_surface = vids[0] == root_id
        gadget = build_gadget(
            surf, [] if is_root_surface else input_locals, eps_int, lam
        )
        _realize(G, gadget, vids, root_id, chord_shortcut)

    dists, parent = dijkstra(G.n, adjacency(G.n, G.edges), root_id)
    for i in input_ids:
        if math.isinf(dists[i]):
            raise Unreachable(f"input point {i} not reachable")

    tree_graph, tree = _prune(G, dists, parent, input_ids, root_id)

    per_point = []
    for i, p in enumerate(pts.points):
        if i == pts.root:
            per_point.append(1.0)
        else:
            per_point.append(dists[input_ids[i]] / dist(s, p))
    hw = sub.hstar.total_length
    phase1 = hw + math.fsum(dist(s, q) for q in bps.points[1:])
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

    # Planar point -> (vertex, its planar point); shared vertices first.
    plane_ids: dict[PlanePoint, tuple[int, PlanePoint]] = {}
    for img, vid in zip(gadget.vertex_images, vids):
        plane_ids.setdefault(img, (vid, img))
    for sb, vid in zip(gadget.secondary, sec_ids):
        plane_ids.setdefault(sb.plane, (vid, sb.plane))
    r_img = gadget.vertex_images[gadget.r_local]
    r_vertex = (vids[gadget.r_local], r_img)
    root_vertex = (root_id, (0.0, 0.0))
    near = 1e-12 * math.hypot(*r_img)  # coincidence, relative to the gadget

    def register(q: PlanePoint, kind: str) -> tuple[int, PlanePoint]:
        known = plane_ids.get(q)
        if known is None:
            if math.hypot(*q) <= near:
                known = root_vertex
            elif math.hypot(q[0] - r_img[0], q[1] - r_img[1]) <= near:
                known = r_vertex
            else:
                known = (G.add_planar(surf, q, kind), q)
            plane_ids[q] = known
        return known

    def add_planar_edge(q1: PlanePoint, q2: PlanePoint, kind1: str, kind2: str) -> None:
        (u, qu), (v, qv) = register(q1, kind1), register(q2, kind2)
        G.add_gadget_edge(surf, u, qu, v, qv, chord_shortcut)

    steiner = gadget.ell_steiner
    if gadget.core is None:
        # Zero-width triangle: single spoke from the root to the line point.
        add_planar_edge((0.0, 0.0), steiner[0], "bend", "ell_steiner")
    else:
        core = gadget.core
        # The core root is the surface apex; its input vertices are the
        # Steiner points on the cross line, registered with their original
        # planar coordinates so shared vertices deduplicate exactly.
        overrides: dict[int, PlanePoint] = {core.root: (0.0, 0.0)}
        for cid, q in zip(core.input_ids, steiner):
            overrides[cid] = q
        kinds = {
            "root": "bend",
            "apex": "core_apex",
            "grid": "ell_steiner",
            "input": "ell_steiner",
        }
        # r lies on the cross line: a base edge running past its image is
        # split there, which joins r to the line.
        dx, dy = gadget.ell_b[0] - gadget.ell_a[0], gadget.ell_b[1] - gadget.ell_a[1]

        def beyond_r(q: PlanePoint) -> float:  # sign tells the side of r
            return (q[0] - r_img[0]) * dx + (q[1] - r_img[1]) * dy

        for u, v, _ in gadget.core_tree.edges:
            qu = overrides.get(u) or core.plane_coords(u)
            qv = overrides.get(v) or core.plane_coords(v)
            ku, kv = kinds[core.kinds[u]], kinds[core.kinds[v]]
            # levels < 0: base vertices, which lie on the cross line
            if core.levels[u] < 0 and core.levels[v] < 0 and beyond_r(qu) * beyond_r(qv) < 0.0:
                add_planar_edge(qu, r_img, ku, "input")
                add_planar_edge(r_img, qv, "input", kv)
            else:
                add_planar_edge(qu, qv, ku, kv)

    for sb, vid in zip(gadget.secondary, sec_ids):
        u, qu = register(steiner[sb.steiner], "ell_steiner")
        G.add_gadget_edge(surf, u, qu, vid, sb.plane, chord_shortcut)


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
    new = {old: sub.add_vertex(G.point(old), G.kinds[old]) for old in used}
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
                chain.append(sub.add_vertex(bend, "bend"))
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
    tree = Tree(
        graph.n,
        tuple((u, v, dist(graph.coords[u], graph.coords[v])) for u, v, _ in core_tree.edges),
        core_tree.root,
    )
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

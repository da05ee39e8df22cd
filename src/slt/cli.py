"""Command-line front end: instance generators, JSON files, SVG rendering.

All files are canonical JSON (sorted keys, shortest round-trip floats) so
repeated runs with the same seed produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from .core2d import build_core, core2d_points, core_spt
from .errors import MalformedFile, MalformedTree, SltError
from .metrics import collector_paused, measure
from .mst_path import PointCloud, Tree, euclidean_mst
from .pipeline import SteinerGraph, _front_end, assemble_core2d, assemble_slt, build_gadget
from .pipeline import surface_inputs
from .pyramid import assemble_pyramid, pyramid_points
from .unfolding import unfold_vertex


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def write_points(path, points, root):
    data = {
        "dim": len(points[0]),
        "points": [list(p) for p in points],
        "root": root,
    }
    with open(path, "w") as fh:
        fh.write(canonical_dumps(data))


def _load_object(path, what: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise MalformedFile(f"{what} is not a JSON object: it holds a {type(data).__name__}")
    return data


def parse_points(path) -> PointCloud:
    data = _load_object(path, "points file")
    dim = _integer(data["dim"], "points file: dim")
    pts = tuple(_float_rows(_list(data["points"], "points file: points"), "points file: point"))
    bad = next((i for i, p in enumerate(pts) if len(p) != dim), None)
    if bad is not None:
        raise MalformedFile(f"points file: point {bad} has {len(pts[bad])} coordinates, "
                            f"not dim {dim}")
    return PointCloud(pts, _integer(data["root"], "points file: root"))


def write_tree(path, graph: SteinerGraph, tree: Tree):
    data = {
        "vertices": [
            {"id": i, "coords": list(graph.coords[i]), "kind": graph.kinds[i]}
            for i in range(graph.n)
        ],
        "edges": sorted([min(u, v), max(u, v)] for u, v, _ in tree.edges),
        "root": tree.root,
    }
    with open(path, "w") as fh:
        fh.write(canonical_dumps(data))


def parse_tree(path):
    """Coordinates, kinds, edges and root of a tree file that is a tree.

    Raises MalformedTree unless the vertex ids are 0..V-1 and the edges
    form a spanning tree of the vertices, MalformedFile on a coordinate
    that is not a number, a vertex whose dimension differs from vertex 0's
    or an id that is not an integer.
    """
    data = _load_object(path, "tree file")
    verts = _list(data["vertices"], "tree file: vertices")
    for i, v in enumerate(verts):
        if not isinstance(v, dict):
            raise MalformedFile(f"tree file: vertex entry {i} is not an object: {v!r}")
    ids = [v["id"] for v in verts]
    if not all(type(i) is int for i in ids):  # bool is an int subclass, not an id
        bad = next(i for i in ids if type(i) is not int)
        raise MalformedFile(f"tree file: vertex id {bad!r} is not an integer")
    verts.sort(key=lambda v: v["id"])
    n = len(verts)
    if [v["id"] for v in verts] != list(range(n)):
        raise MalformedTree(f"vertex ids are not 0..{n - 1}")
    coords = _float_rows((v["coords"] for v in verts), "tree file: vertex")
    bad = next((i for i, c in enumerate(coords) if len(c) != len(coords[0])), None)
    if bad is not None:
        raise MalformedFile(f"tree file: vertex {bad} has {len(coords[bad])} coordinates, "
                            f"vertex 0 has {len(coords[0])}")
    kinds = [v["kind"] for v in verts]
    rows = _list(data["edges"], "tree file: edges")
    try:
        edges = [(u, v) for u, v in rows]
    except (TypeError, ValueError):
        edges = None
    if edges is None or not all(type(u) is int and type(v) is int for u, v in edges):
        bad = next(e for e in rows if type(e) is not list or [type(x) for x in e] != [int, int])
        raise MalformedFile(f"tree file: edge {bad!r} is not a pair of integer vertex ids")
    root = _integer(data["root"], "tree file: root")
    _check_spanning_tree(n, edges, root)
    return coords, kinds, edges, root


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedFile(f"{what} is not a list: {value!r}")
    return value


def _integer(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, not an id
        raise MalformedFile(f"{what} is not an integer: {value!r}")
    return value


def _float_rows(rows, what: str) -> list[tuple[float, ...]]:
    """Each row as a tuple of floats; MalformedFile names the first bad row."""
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(tuple(map(float, row)))
        except (TypeError, ValueError):
            raise MalformedFile(f"{what} {i} is not a list of numbers: {row!r}") from None
    return out


def _check_spanning_tree(n: int, edges, root: int) -> None:
    if not 0 <= root < n:
        raise MalformedTree(f"root {root} out of range 0..{n - 1}")
    # Union-find over plain ints: one pass over the edges finds every
    # duplicate and tells whether some edge closes a cycle.
    comp = list(range(n))
    seen: set[tuple[int, int]] = set()  # each edge as a sorted pair

    def find(x):
        while comp[x] != x:
            comp[x] = x = comp[comp[x]]
        return x

    closes_cycle = False
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedTree(f"edge [{u}, {v}] has a vertex id outside 0..{n - 1}")
        if u == v:
            raise MalformedTree(f"self-loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        a, b = find(u), find(v)
        if a != b:
            comp[a] = b
        elif pair in seen:
            raise MalformedTree(f"duplicate edge [{u}, {v}]")
        else:
            closes_cycle = True
        seen.add(pair)
    if len(edges) != n - 1:
        raise MalformedTree(f"{len(edges)} edges on {n} vertices; a tree has {n - 1}")
    if closes_cycle:  # n - 1 edges with a cycle leave some vertex cut off
        r = find(root)
        cut = next(x for x in range(n) if find(x) != r)
        raise MalformedTree(f"edges do not span vertex {cut}")


# --- generators --------------------------------------------------------------


def gen_circle(eps: float):
    m = math.ceil(math.sqrt(1.0 / eps))
    pts = tuple(
        (math.cos(2.0 * math.pi * j / m), math.sin(2.0 * math.pi * j / m))
        for j in range(m)
    )
    return pts, 0


def gen_grid(d: int, n: int, eps: float):
    return pyramid_points(d, n, eps), 0


def gen_random(n: int, d: int, seed: int):
    rng = random.Random(seed)
    pts = tuple(tuple(rng.random() for _ in range(d)) for _ in range(n))
    return pts, 0


def gen_core(eps: float, n: int):
    return core2d_points(eps, n), 0


# --- svg ----------------------------------------------------------------------


class _Canvas:
    """Collects primitives in world coordinates, emits pixel-space SVG.

    The y axis is flipped at render time so larger y draws upward.
    """

    margin = 30.0

    def __init__(self, size=760.0):
        self.size = size
        self.lines: list[tuple] = []
        self.dots: list[tuple] = []
        self.bounds = [math.inf, math.inf, -math.inf, -math.inf]

    def _touch(self, x, y):
        b = self.bounds
        b[0], b[1] = min(b[0], x), min(b[1], y)
        b[2], b[3] = max(b[2], x), max(b[3], y)

    def line(self, p, q, stroke="black", dashed=False):
        self._touch(*p)
        self._touch(*q)
        self.lines.append((p, q, stroke, dashed))

    def dot(self, p, fill="black", r=2.5):
        self._touch(*p)
        self.dots.append((p, fill, r))

    def render(self) -> str:
        x0, y0, x1, y1 = self.bounds
        if not math.isfinite(x0):
            x0 = y0 = 0.0
            x1 = y1 = 1.0
        span = max(x1 - x0, y1 - y0, 1e-12)
        s = (self.size - 2 * self.margin) / span

        def px(p):
            return (
                self.margin + (p[0] - x0) * s,
                self.margin + (y1 - p[1]) * s,
            )

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{self.size:.0f}" '
            f'height="{self.size:.0f}" viewBox="0 0 {self.size:.0f} {self.size:.0f}">\n'
        ]
        for p, q, stroke, dashed in self.lines:
            (xa, ya), (xb, yb) = px(p), px(q)
            dash = ' stroke-dasharray="4 3"' if dashed else ""
            out.append(
                f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                f'stroke="{stroke}" stroke-width="1"{dash}/>'
            )
        for p, fill, r in self.dots:
            (cx, cy) = px(p)
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r}" fill="{fill}"/>')
        out.append("</svg>")
        return "\n".join(out)


_KIND_FILL = {
    "input": "black",
    "break": "#8888aa",
    "secondary_break": "#999999",
    "ell_steiner": "#777777",
    "grid": "#aaaaaa",
    "core_apex": "#666666",
    "bend": "#bbbbbb",
}


def render_tree_svg(coords, kinds, edges, path):
    cv = _Canvas()
    for u, v in edges:
        cv.line(coords[u][:2], coords[v][:2], stroke="black")
    for p, k in zip(coords, kinds):
        cv.dot(p[:2], fill=_KIND_FILL.get(k, "gray"), r=3.0 if k == "input" else 1.6)
    with open(path, "w") as fh:
        fh.write(cv.render())


def render_surfaces_svg(pc: PointCloud, eps: float, gamma: float, lam: float, path):
    """The gadget ``assemble_slt`` builds on each unfolded surface, side by side."""
    eps_int, _, _, sub, surfaces = _front_end(pc, eps, gamma, lam)
    gadgets = build_gadget(surfaces, surface_inputs(surfaces, sub, pc.root), eps_int, lam)
    row = dict(zip(gadgets.surface.tolist(), range(len(gadgets))))
    cv = _Canvas(size=1200.0)
    offset = 0.0
    for i, surf in enumerate(surfaces):
        imgs = [unfold_vertex(surf, j) for j in range(len(surf.verts))]
        rmax = max(surf.vertex_radius(j) for j in range(len(surf.verts)))
        shift = lambda q: (q[0] + offset, q[1])  # noqa: E731
        origin = shift((0.0, 0.0))
        cv.line(origin, shift(imgs[0]), stroke="#444444", dashed=True)
        cv.line(origin, shift(imgs[-1]), stroke="#444444", dashed=True)
        for a, b in zip(imgs, imgs[1:]):
            cv.line(shift(a), shift(b), stroke="black")
        for q in imgs:
            cv.dot(shift(q), fill="black", r=2.0)
        cv.dot(origin, fill="black", r=2.5)
        if i in row:
            g = row[i]
            cv.line(shift(gadgets.ell_a[g].tolist()), shift(gadgets.ell_b[g].tolist()), stroke="#888888")
            for q in gadgets.ell_steiner[g, :1 if gadgets.flat[g] else None].tolist():
                cv.dot(shift(q), fill="#777777", r=1.5)
            inst = gadgets.core_instance(g)
            if inst is not None:
                core = build_core(inst)
                for u, v, _ in core_spt(core)[0].edges:
                    a, b = core.plane_coords(u), core.plane_coords(v)
                    cv.line(shift(a), shift(b), stroke="#aaaaaa")
        offset += 1.25 * rmax
    with open(path, "w") as fh:
        fh.write(cv.render())


# --- commands -----------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "circle":
        pts, root = gen_circle(args.eps)
    elif args.kind == "grid":
        pts, root = gen_grid(args.dim, args.n, args.eps)
    elif args.kind == "random":
        seed = args.seed if args.seed is not None else int(os.environ.get("SLT_SEED", "0"))
        pts, root = gen_random(args.n, args.dim, seed)
    elif args.kind == "core":
        pts, root = gen_core(args.eps, args.n)
    else:
        raise SltError(f"unknown generator kind {args.kind!r}")
    write_points(args.output, pts, root)
    return 0


def _cmd_build(args) -> int:
    pc = parse_points(args.input)
    if args.method == "folding":
        graph, tree, report = assemble_slt(pc, args.eps, gamma=args.gamma, lam=args.lam)
    elif args.method == "core2d":
        graph, tree, report = assemble_core2d(pc, args.eps, args.lam)
    elif args.method == "pyramid":
        graph, tree, report = assemble_pyramid(pc, args.eps, args.lam)
    else:
        raise SltError(f"unknown method {args.method!r}")
    if args.output:
        write_tree(args.output, graph, tree)
    sys.stdout.write(canonical_dumps(report.as_dict()))
    return 0


@collector_paused
def _verified_report(args):
    """The points and the report of the tree file measured against them."""
    pc = parse_points(args.input)
    coords, kinds, edges, root = parse_tree(args.tree)
    index = {c: i for i, (c, k) in enumerate(zip(coords, kinds)) if k == "input"}
    vertex_of = []
    for i, p in enumerate(pc.points):
        v = index.get(p)
        if v is None:
            raise SltError(f"tree does not contain input point {i} at {p}")
        vertex_of.append(v)
    if vertex_of[pc.root] != root:
        raise SltError("tree root does not match the input root")
    tree = Tree(
        len(coords),
        tuple((u, v, math.dist(coords[u], coords[v])) for u, v in edges),
        root,
    )
    mst_weight = euclidean_mst(pc).weight
    report = measure(tree, coords, vertex_of, args.eps, mst_weight, {"verified": True})
    return pc, report


def _cmd_verify(args) -> int:
    pc, report = _verified_report(args)
    out = canonical_dumps(report.as_dict())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    bound = 1.0 + args.eps
    if report.max_stretch <= bound + 1e-12:
        return 0
    stretch = report.per_point_stretch
    worst = stretch.index(report.max_stretch)
    print(f"stretch violation: input point {worst} at {pc.points[worst]} has stretch "
          f"{stretch[worst]!r} > bound {bound!r}", file=sys.stderr)
    return 1


def _cmd_render(args) -> int:
    if args.tree:
        coords, kinds, edges, _ = parse_tree(args.tree)
        if len(coords[0]) == 2:
            render_tree_svg(coords, kinds, edges, args.output)
            return 0
    pc = parse_points(args.input)
    if pc.dim == 2 and not args.surfaces and args.tree is None:
        render_tree_svg(list(pc.points), ["input"] * pc.n, [], args.output)
        return 0
    render_surfaces_svg(pc, args.eps, args.gamma, args.lam, args.output)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    An argparse parser refers to itself through its actions and help
    formatters, so each parser dropped is garbage only the cyclic
    collector frees.
    """
    ap = argparse.ArgumentParser(prog="slt", description="Steiner shallow-light trees")
    sp = ap.add_subparsers(dest="cmd", required=True)

    g = sp.add_parser("gen", help="generate a points file")
    g.add_argument("kind", choices=["circle", "grid", "random", "core"])
    g.add_argument("--eps", type=float, default=0.04)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--output", required=True)
    g.set_defaults(func=_cmd_gen)

    b = sp.add_parser("build", help="build a tree from a points file")
    b.add_argument("--method", choices=["folding", "core2d", "pyramid"], default="folding")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--gamma", type=float, default=8.0)
    b.add_argument("--lambda", dest="lam", type=float, default=1.25)
    b.add_argument("--input", required=True)
    b.add_argument("--output")
    b.set_defaults(func=_cmd_build)

    v = sp.add_parser("verify", help="measure stretch and lightness of a tree file")
    v.add_argument("--input", required=True)
    v.add_argument("--tree", required=True)
    v.add_argument("--eps", type=float, required=True)
    v.add_argument("--output")
    v.set_defaults(func=_cmd_verify)

    r = sp.add_parser("render", help="render points/tree or unfolded surfaces to SVG")
    r.add_argument("--input", required=True)
    r.add_argument("--tree")
    r.add_argument("--eps", type=float, default=0.04)
    r.add_argument("--gamma", type=float, default=8.0)
    r.add_argument("--lambda", dest="lam", type=float, default=1.25)
    r.add_argument("--surfaces", action="store_true")
    r.add_argument("--output", required=True)
    r.set_defaults(func=_cmd_render)
    return ap


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MalformedFile as exc:
        print(f"malformed file: {exc}", file=sys.stderr)
        return 2
    except (SltError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())

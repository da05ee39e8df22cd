"""Per-layer trace of slt, taken from outside the program.

Each public layer function is wrapped where its caller looks it up (for
example ``slt.pipeline.lift``), so nothing under ``src/`` changes.  A
wrapper records its call, its self time (its span minus the wrapped spans
inside it) and, where useful, a count taken from its arguments or result.
Spans are aggregated per name as they close; none are kept individually.
"""
from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Layer metrics that hold seconds, by the span name they aggregate.
TIMED = (
    "mst_path.validate",
    "mst_path.euclidean_mst",
    "mst_path.dfs_hamiltonian",
    "breakpoints.select_breakpoints",
    "breakpoints.subdivide",
    "unfolding.build_surfaces",
    "unfolding.lift",
    "unfolding.lift_segment",
    "pipeline.build_gadget",
    "pipeline.assemble_self",
    "core2d.build_core",
    "core2d.core_spt",
    "metrics.dijkstra",
    "pyramid.base_spanner",
    "pyramid.mst",
    "pyramid.build_self",
    "cli.write_tree",
    "cli.verify",
)
# Spans that run outside the build call and so do not count toward it.
OUTSIDE_BUILD = ("cli.write_tree", "cli.verify")


class LayerTrace:
    """Self seconds and counts per wrapped name; ``remove`` restores the originals."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._cells: dict[str, list] = {}  # name -> [self seconds, calls]
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def seconds(self) -> Counter:
        return Counter({name: cell[0] for name, cell in self._cells.items()})

    def _cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0.0, 0])

    @contextmanager
    def span(self, name: str):
        cell, stack = self._cell(name), self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            cell[0] += dt - stack.pop()
            cell[1] += 1
            if stack:
                stack[-1] += dt

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)
        cell, stack, counts = self._cell(name), self._stack, self.counts
        clock = perf_counter

        # Called 10^5-10^6 times per build (lift, lift_segment): kept lean.
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += dt - stack.pop()
                cell[1] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, result, args)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def calls(self) -> Counter:
        return Counter({name + "_calls": cell[1] for name, cell in self._cells.items()})

    def remove(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def _tally(key, measure):
    def count(counts, result, args):
        counts[key] += measure(result, args)

    return count


def _graph_dijkstra(counts, result, args):
    n, adj = args[0], args[1]
    counts["pipeline.graph_vertices"] += n
    counts["pipeline.graph_edges"] += sum(map(len, adj)) // 2
    _settled(counts, result, args)


def _settled(counts, result, args):
    counts["metrics.settled_vertices"] += sum(1 for d in result[0] if d != math.inf)


def _base_spanner(counts, result, args):
    counts["pyramid.spanner_edges"] += len(result[0])
    counts["pyramid.base_vertices"] += len(args[0])


def install(trace: LayerTrace) -> None:
    """Wrap every traced layer function of an imported slt."""
    import slt.cli
    import slt.core2d
    import slt.pipeline
    import slt.pyramid

    pl, w = slt.pipeline, trace.wrap
    w(pl, "assemble_slt", "pipeline.assemble_self",
      _tally("pipeline.kept_vertices", lambda r, a: r[0].n))
    w(pl, "euclidean_mst", "mst_path.euclidean_mst")
    w(pl, "dfs_hamiltonian", "mst_path.dfs_hamiltonian")
    w(pl, "select_breakpoints", "breakpoints.select_breakpoints",
      _tally("breakpoints.break_points", lambda r, a: len(r)))
    w(pl, "subdivide", "breakpoints.subdivide")
    w(pl, "build_surfaces", "unfolding.build_surfaces",
      _tally("unfolding.surfaces", lambda r, a: len(r)))
    w(pl, "lift", "unfolding.lift")
    w(pl, "lift_segment", "unfolding.lift_segment",
      _tally("unfolding.bends", lambda r, a: max(len(r.vertices) - 2, 0)))
    w(pl, "build_gadget", "pipeline.build_gadget")
    w(pl, "build_core", "core2d.build_core",
      _tally("core2d.core_vertices", lambda r, a: r.n))
    w(pl, "core_spt", "core2d.core_spt")
    w(pl, "dijkstra", "metrics.dijkstra", _graph_dijkstra)
    w(slt.core2d, "dijkstra", "metrics.dijkstra", _settled)
    w(slt.pyramid, "build_pyramid_core", "pyramid.build_self")
    w(slt.pyramid, "base_spanner", "pyramid.base_spanner", _base_spanner)
    w(slt.pyramid, "euclidean_mst", "pyramid.mst")
    w(slt.cli, "write_tree", "cli.write_tree")
    w(slt.cli, "run_cli", "cli.verify")


def layer_metrics(s: Counter, c: Counter) -> dict[str, float]:
    """Per-layer metric values from summed self seconds ``s`` and counts ``c``."""
    out = {name + "_s": s[name] for name in TIMED}
    for name in ("unfolding.lift", "unfolding.lift_segment", "pipeline.build_gadget",
                 "core2d.build_core", "metrics.dijkstra"):
        out[name + "_calls"] = c[name + "_calls"]
    for name in ("breakpoints.break_points", "unfolding.surfaces", "unfolding.bends",
                 "pipeline.graph_vertices", "pipeline.graph_edges",
                 "core2d.core_vertices", "metrics.settled_vertices", "pyramid.spanner_edges"):
        out[name] = c[name]
    graph = c["pipeline.graph_vertices"]
    out["pipeline.kept_ratio"] = c["pipeline.kept_vertices"] / graph if graph else 0.0
    base = c["pyramid.base_vertices"]
    out["pyramid.spanner_edges_per_vertex"] = c["pyramid.spanner_edges"] / base if base else 0.0
    return out


def build_seconds(s: Counter) -> float:
    """Self seconds of every span inside the build call."""
    return sum(v for k, v in s.items() if k not in OUTSIDE_BUILD)

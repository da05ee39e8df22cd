"""Build worker: imports slt from ``<root>/src`` and runs build jobs.

Usage: ``python3 perfbench/worker.py ROOT KIND``.  Pins itself to one CPU,
starts the host-speed probe (``probe.py``) sampling ``python`` and KIND,
the kind of code that dominates its builds, imports slt and prints one
JSON line ``{"ready": true, "probe": {...}}`` with the probe samples taken
during the import.  Then it reads one JSON job per line on stdin and
answers with one JSON line each.  Every time in an answer is wall seconds
minus the probe's own time inside it (``build_probe_s`` for the build);
``probe`` holds the samples taken during the build and the verify calls.
The program's own prints are sent to stderr so they cannot mix with the
answers.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter

import probe

# slt verify is repeated while it is quick, for a steadier median.
VERIFY_REPEATS = 5
VERIFY_BUDGET_S = 1.0

PROBE = None  # the worker's probe.Probe; None when run_job is called directly


def timed(call, samples: dict):
    """(result, seconds) of ``call()``, without the probe's time inside it.

    The probe samples taken during the call are added to ``samples``.
    """
    mark = PROBE.mark() if PROBE else {}
    t0 = perf_counter()
    result = call()
    seconds = perf_counter() - t0
    if PROBE:
        taken = PROBE.since(mark)
        seconds -= probe.spent(taken)
        for kind, values in taken.items():
            samples.setdefault(kind, []).extend(values)
    return result, seconds


def run_job(job: dict) -> dict:
    import slt.cli
    import slt.mst_path
    import slt.pipeline
    import slt.pyramid

    samples = {"build": {}, "verify": {}}
    trace = None
    if job["trace"]:
        import layers

        trace = layers.LayerTrace()
        layers.install(trace)
    try:
        eps = job["eps"]
        if job["kind"] == "pyramid":
            d = job["d"]
            m = math.ceil(slt.pyramid.GridSpec.regime_min(d, eps) ** (1.0 / (d - 1)))
            grid = slt.pyramid.GridSpec.for_points(m ** (d - 1), d)
            (graph, tree, report), build_s = timed(
                lambda: slt.pyramid.build_pyramid_core(d, eps, grid), samples["build"]
            )
            # The inputs are the apex and the grid, as the graph holds them.
            inputs = [list(graph.coords[i]) for i in range(grid.n + 1)]
            slt.cli.write_points(job["points"], inputs, 0)
        else:
            with open(job["points"]) as fh:
                data = json.load(fh)
            raw = tuple(tuple(p) for p in data["points"])

            def build():
                if trace is not None:
                    with trace.span("mst_path.validate"):
                        pc = slt.mst_path.PointCloud(raw, data["root"])
                else:
                    pc = slt.mst_path.PointCloud(raw, data["root"])
                return slt.pipeline.assemble_slt(pc, eps)

            (graph, tree, report), build_s = timed(build, samples["build"])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        _, write_s = timed(lambda: slt.cli.write_tree(job["tree"], graph, tree), {})
        with open(job["tree"], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        verify_s = []
        repeats = 1 if trace is not None else VERIFY_REPEATS
        while len(verify_s) < repeats and sum(verify_s) < VERIFY_BUDGET_S:
            code, seconds = timed(lambda: slt.cli.run_cli(
                ["verify", "--input", job["points"], "--tree", job["tree"],
                 "--eps", repr(eps), "--output", job["tree"] + ".verify"]
            ), samples["verify"])
            verify_s.append(seconds)
    finally:
        if trace is not None:
            trace.remove()
    flags = {k: v for k, v in report.flags.items() if isinstance(v, (int, float, str))}
    out = {
        "build_s": build_s,
        "rss_mb": rss_mb,
        "write_tree_s": write_s,
        "verify_s": verify_s,
        "verify_code": code,
        "sha256": sha,
        "max_stretch": report.max_stretch,
        "lightness": report.lightness,
        "tree_vertices": graph.n,
        "tree_edges": len(tree.edges),
        "flags": flags,
    }
    if PROBE:
        out["build_probe_s"] = probe.spent(samples["build"])
        out["probe"] = {k: PROBE.fill(v) for k, v in samples.items()}
    if trace is not None:
        out["seconds"] = dict(trace.seconds)
        out["counts"] = dict(trace.counts + trace.calls())
    return out


def main() -> int:
    global PROBE
    probe.pin_to_one_cpu()
    PROBE = probe.Probe((sys.argv[2],)).start()
    root = os.path.abspath(sys.argv[1])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    import slt  # noqa: F401  (the set-up being measured)
    import slt.cli  # noqa: F401

    if not os.path.abspath(slt.__file__).startswith(src + os.sep):
        print(f"worker: imported slt from {slt.__file__}, not {src}", file=sys.stderr)
        return 3
    proto.write(json.dumps({"ready": True, "probe": PROBE.fill(PROBE.since({}))}) + "\n")
    for line in sys.stdin:
        job = json.loads(line)
        try:
            answer = run_job(job)
        except Exception as exc:  # report the failure; keep serving jobs
            traceback.print_exc()
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        proto.write(json.dumps(answer) + "\n")
    PROBE.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

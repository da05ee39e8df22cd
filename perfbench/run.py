"""slt benchmark: per-build time, memory and tree quality, with a layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fold-d8 --seed 1 --seconds 20 --trace 0

Every build runs in a worker process (``worker.py``) that imports slt from
``src/``; the fresh-process workloads start one worker per build, fold-batch
runs a whole pass in one warm worker.  This process generates the inputs
from the seed, checks every tree file with ``check.py``, which shares no
code with slt, and prints one JSON line of results last.  Times are
reported at the nominal core speed of ``probe.py``.  With
``--trace 1`` it runs traced and untraced builds alternately and prints
the per-layer metrics instead.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

MIN_BUILDS = 3  # fresh-process builds per run; more than one shows determinism
MAX_BUILDS = 40
SETUP_SAMPLES = 5  # worker start-ups timed per run, for setup_s
MIN_PASSES = 5  # fold-batch passes per run: 120 builds, enough for a p90 tail
MAX_PASSES = 40
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
RUN_LIMIT_S = 170.0  # every worker is killed once a run has taken this long
# Traced build time, its excess over the untraced time, and the share of
# it that the layer self times account for.
TRACE_METRICS = ("trace.build_s", "trace.overhead_s", "trace.accounted_frac")


class BenchError(Exception):
    pass


class Worker:
    """One worker process; ``setup_s`` is start until it reports ready.

    ``setup_s`` is at nominal core speed without the probe's time,
    ``setup_wall_s`` as measured.
    """

    def __init__(self, env: dict, deadline: float, kind: str = "python"):
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), kind],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self._read()
        self.setup_wall_s = perf_counter() - t0
        try:
            samples = json.loads(line)["probe"]
            # Every sample, topped-up ones too, was taken before "ready".
            self.setup_s = (self.setup_wall_s - probe.spent(samples)) * probe.scale(samples, "python")
        except (ValueError, TypeError, KeyError):
            self.close()
            raise BenchError("worker did not start; is src/slt importable?") from None

    def _read(self) -> str:
        # A watchdog kills the worker at the run deadline, so reads end.
        timer = threading.Timer(max(self.deadline - perf_counter(), 0.0), self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def run(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self._read()
        if not line:
            return {"error": "worker exited or was killed at the run deadline"}
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(self.deadline - perf_counter(), 1.0))
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:  # e.g. SystemExit on SIGTERM: do not wait for the build
            self.proc.kill()
        self.close()


def child_env() -> tuple[dict, int]:
    """Worker environment: slt from src/, one BLAS thread.

    A worker pins itself to one CPU (see probe.py), so more BLAS threads
    would only take turns on it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def git_commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest TAIL_LADDER percentile, by nearest
    rank, that has at least TAIL_BEYOND samples above it.

    A fixed ladder keeps the percentile the same when the sample count
    changes a little.  With fewer than twenty samples no tail can be
    estimated: None.
    """
    xs = sorted(values)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct
    return None


class Run:
    """State of one benchmark run: builds, checks and their outcome."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env, self.blas_threads = child_env()
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self._verdicts: dict[str, list[str]] = {}  # tree sha256 -> problems

    def worker(self, kind: str = "python") -> Worker:
        w = Worker(self.env, self.deadline, kind)
        self.setups.append(w.setup_s)
        self.setup_walls.append(w.setup_wall_s)
        return w

    def sample_setup(self) -> None:
        """Start-only workers until there are SETUP_SAMPLES set-up times."""
        while len(self.setups) < SETUP_SAMPLES:
            self.worker().close()

    def accept(self, res: dict, points: list, eps: float, tree: Path) -> bool:
        """Count one build; check its tree unless the same file passed before."""
        import check

        self.attempted += 1
        bad = []
        if "error" in res:
            bad.append(res["error"])
        else:
            if res["verify_code"] != 0:
                bad.append(f"slt verify exited {res['verify_code']}")
            problems = self._verdicts.get(res["sha256"])
            if problems is None:
                doc = json.loads(tree.read_text())
                problems, measured = check.check_tree(doc, points, 0, eps)
                for key in ("max_stretch", "lightness"):
                    if measured and not check.agrees(measured[key], res[key]):
                        problems.append(f"reported {key} {res[key]} != recomputed {measured[key]}")
                self._verdicts[res["sha256"]] = problems
            bad.extend(problems)
        if bad:
            self.failed += 1
            self.problems.extend(bad[:3])
        return not bad

    def input_file(self, name: str, points: list) -> Path:
        import workloads

        path = self.work / name
        path.write_text(workloads.points_json(points))
        return path

    def fresh(self, wl) -> dict:
        """One worker per build, until the time is used; at least MIN_BUILDS.

        A folding run builds ``wl.inputs`` point sets from the seed, two
        builds of each in turn, so a run's times average over inputs and
        every input shows determinism.  Times are the median per input,
        averaged over the inputs.
        """
        import workloads

        trace = bool(self.args.trace)
        inputs = []
        if wl.kind == "fold":
            for k in range(wl.inputs):
                points = workloads.uniform_points(self.args.seed, wl.n, wl.d, salt=(k,) if k else ())
                inputs.append((points, self.input_file(f"points{k}.json", points)))
        end = perf_counter() + self.args.seconds
        good, durations = [], []
        while True:
            i = self.attempted
            t0 = perf_counter()
            k = (i // 2) % max(len(inputs), 1)
            if inputs:
                points, pts_file = inputs[k]
            else:  # the pyramid worker writes its inputs
                points, pts_file = [], self.work / f"points{i}.json"
            job = {"kind": wl.kind, "eps": wl.eps, "d": wl.d, "points": str(pts_file),
                   "tree": str(self.work / f"tree{i}.json"), "trace": trace and i % 2 == 1}
            with self.worker(wl.probe) as w:
                res = w.run(job)
            if "error" not in res:
                nominal(res, res["probe"], wl.probe)
            if not inputs and pts_file.is_file():
                points = json.loads(pts_file.read_text())["points"]
            if self.accept(res, points if "error" not in res else [], wl.eps, Path(job["tree"])):
                res.update(traced=job["trace"], input=k, points=len(points))
                good.append(res)
            durations.append(perf_counter() - t0)
            n = self.attempted
            if n >= MAX_BUILDS or perf_counter() > self.deadline:
                break
            if n >= MIN_BUILDS and perf_counter() + statistics.median(durations) > end:
                break
        self.sample_setup()
        if any(len({r["sha256"] for r in good if r["input"] == k}) > 1 for k in {r["input"] for r in good}):
            self.problems.append("builds of the same input wrote different tree files")
        plain = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        if not plain:
            raise BenchError("no build succeeded: " + "; ".join(self.problems[:3]))
        first = {r["input"]: r for r in reversed(plain)}
        out = {
            "times": [r["build_s"] for r in plain],
            "wall_times": [r["build_wall_s"] for r in plain],
            "build_s": per_input(plain, lambda r: [r["build_s"]]),
            "points": sum(r["points"] for r in plain),
            "rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "verify_s": per_input(plain, lambda r: r["verify_s"]),
            "fingerprint": fingerprint([first[k] for k in sorted(first)]),
        }
        if trace:
            out["trace"] = self.trace_summary(
                traced, per_input(plain, lambda r: [r["build_wall_s"]]), per=len(traced)
            )
        return out

    def batch(self) -> dict:
        """Whole passes over the grid in one warm worker.

        Untraced: at least MIN_PASSES passes, more while time is left.
        Traced: one untraced pass, then the same pass traced.
        """
        import workloads

        trace = bool(self.args.trace)
        end = perf_counter() + self.args.seconds
        plain, traced = [], []
        with self.worker() as w:
            while True:
                t0 = perf_counter()
                instances = workloads.batch_pass(self.args.seed, len(plain))
                plain.append(self.batch_pass(w, len(plain), instances, False))
                if trace:
                    traced = self.batch_pass(w, 0, instances, True)
                    break
                if len(plain) >= MAX_PASSES or perf_counter() > self.deadline:
                    break
                if len(plain) >= MIN_PASSES and perf_counter() + (perf_counter() - t0) > end:
                    break
        self.sample_setup()
        # Failed builds are counted in ``failed`` and left out of the metrics.
        plain = [[(n, res) for n, res in rows if res is not None] for rows in plain]
        if not all(plain):
            raise BenchError("every build of a pass failed: " + "; ".join(self.problems[:3]))
        rows = [row for rows in plain for row in rows]
        out = {
            "times": [res["build_s"] for _, res in rows],
            "wall_times": [res["build_wall_s"] for _, res in rows],
            "points": sum(n for n, _ in rows),
            "build_s": statistics.median(
                statistics.fmean(res["build_s"] for _, res in rows) for rows in plain
            ),
            "rss_mb": max(res["rss_mb"] for _, res in rows),
            "verify_s": statistics.median(
                statistics.fmean(t for _, res in rows for t in res["verify_s"]) for rows in plain
            ),
            "fingerprint": fingerprint([res for rows in plain[:MIN_PASSES] for _, res in rows]),
        }
        if trace:
            traced = [res for _, res in traced if res is not None]
            if [r["sha256"] for r in traced] != [r["sha256"] for _, r in plain[0]]:
                self.problems.append("traced builds wrote different tree files")
            out["trace"] = self.trace_summary(traced, sum(out["wall_times"]), per=1)
        return out

    def batch_pass(self, w: Worker, p: int, instances: list, traced: bool) -> list:
        """(n, result or None if it failed) for every instance of one pass.

        The builds of a pass are too short for probe samples of their own,
        so all of them, and their verify calls, are scaled by the samples
        of the whole pass.
        """
        rows, pooled = [], {}
        for j, (d, n, eps, points) in enumerate(instances):
            pts_file = self.input_file(f"p{p}-{j}.json", points)
            tree = self.work / f"p{p}-{j}-tree{int(traced)}.json"
            res = w.run({"kind": "fold", "eps": eps, "points": str(pts_file),
                         "tree": str(tree), "trace": traced})
            for taken in res.get("probe", {}).values():
                for kind, values in taken.items():
                    pooled.setdefault(kind, []).extend(values)
            rows.append((n, res if self.accept(res, points, eps, tree) else None))
        for _, res in rows:
            if res is not None:
                nominal(res, {"build": pooled, "verify": pooled}, "python")
        return rows

    def trace_summary(self, traced: list[dict], plain_build: float, per: int) -> dict:
        """Layer metrics summed over ``traced`` and divided by ``per``.

        Fresh workloads divide by the number of traced builds (one build);
        fold-batch keeps the total over its traced pass.  ``plain_build``
        is the untraced wall time of the same unit of work.  All trace
        times are wall times as measured, the probe's included, like the
        layer self times.
        """
        import layers

        if not traced:
            raise BenchError("no traced build succeeded: " + "; ".join(self.problems[:3]))
        s, c = Counter(), Counter()
        for r in traced:
            s.update(r["seconds"])
            c.update(r["counts"])
            self.cross_check(r)
        s = Counter({k: v / per for k, v in s.items()})
        c = Counter({k: v / per for k, v in c.items()})
        metrics = layers.layer_metrics(s, c)
        traced_build = sum(r["build_wall_s"] for r in traced) / per
        metrics.update(zip(TRACE_METRICS, (
            traced_build,
            traced_build - plain_build,
            layers.build_seconds(s) / traced_build,
        )))
        return metrics

    def cross_check(self, r: dict) -> None:
        """Counts from the wrappers must equal the report's own flags."""
        c, f = r["counts"], r["flags"]
        pairs = []
        if "graph_vertices" in f:
            pairs = [
                ("unfolding.surfaces", c.get("unfolding.surfaces", 0), f["surfaces"]),
                ("pipeline.graph_vertices", c.get("pipeline.graph_vertices", 0), f["graph_vertices"]),
                ("pipeline.graph_edges", c.get("pipeline.graph_edges", 0), f["graph_edges"]),
                ("pipeline.pruned_vertices",
                 c.get("pipeline.graph_vertices", 0) - c.get("pipeline.kept_vertices", 0),
                 f["pruned_vertices"]),
            ]
        elif "spanner_edges" in f:
            pairs = [("pyramid.spanner_edges", c.get("pyramid.spanner_edges", 0), f["spanner_edges"])]
        for name, counted, flagged in pairs:
            if counted != flagged:
                self.problems.append(f"trace count {name}={counted} but report flag {flagged}")


def per_input(results: list[dict], values) -> float:
    """Mean over inputs of the median of ``values(result)`` over its builds."""
    by_input: dict[int, list[float]] = {}
    for r in results:
        by_input.setdefault(r["input"], []).extend(values(r))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def fingerprint(results: list[dict]) -> dict:
    """Tree-quality fingerprint of one build per input, in input order.

    With one input it is that build's own values.
    """
    if len(results) == 1:
        (r,) = results
        return {k: r[k] for k in ("max_stretch", "lightness", "tree_vertices", "tree_edges", "sha256")}
    return {
        "max_stretch": max(r["max_stretch"] for r in results),
        "lightness": math.exp(statistics.fmean(math.log(r["lightness"]) for r in results)),
        "tree_vertices": sum(r["tree_vertices"] for r in results),
        "tree_edges": sum(r["tree_edges"] for r in results),
        "sha256": hashlib.sha256("".join(r["sha256"] for r in results).encode()).hexdigest(),
    }


def nominal(res: dict, samples: dict, kind: str) -> None:
    """Scale a worker answer's times to nominal core speed; keep the build's
    wall time as measured, the probe's time inside it included.

    The build is scaled by the probe ``samples`` of the build and the
    ``kind`` of code that dominates it; ``slt verify`` is interpreter code.
    """
    build = probe.scale(samples["build"], kind)
    verify = probe.scale(samples["verify"], "python")
    res["build_wall_s"] = res["build_s"] + res.get("build_probe_s", 0.0)
    res["build_s"] *= build
    res["verify_s"] = [t * verify for t in res["verify_s"]]


def end_to_end(out: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values of an untraced run, and how the tail was taken."""
    times = out["times"]
    build_s = out["build_s"]
    # Too few builds for a tail: build_s, the median, stands in (percentile 50).
    tail_s, tail_pct = tail(times) or (build_s, 50.0)
    values = {
        "build_s": build_s,
        "build_tail_s": tail_s,
        "points_per_s": out["points"] / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["rss_mb"],
        "verify_s": out["verify_s"],
        "lightness": out["fingerprint"]["lightness"],
        "max_stretch": out["fingerprint"]["max_stretch"],
    }
    return values, {"percentile": tail_pct, "samples": len(times)}


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "slt" / "__init__.py").is_file():
        print(f"perfbench: no slt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so workers are killed and reaped and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        run = Run(args, Path(tmp))
        try:
            out = run.batch() if wl.kind == "batch" else run.fresh(wl)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    record = environment(args.seed, run.blas_threads)
    record.update(
        workload=wl.name, seconds=args.seconds, trace=args.trace, probe=wl.probe,
        load_before=load_before, load_after=os.getloadavg(),
        build_times=out["times"], build_wall_times=out["wall_times"],
        setup_times=run.setups, setup_wall_times=run.setup_walls,
        fingerprint=out["fingerprint"], problems=run.problems[:10],
    )
    if args.trace:
        values = out["trace"]
        units = declared_metrics("per_layer")
    else:
        values, record["tail"] = end_to_end(out, run.setups)
        units = declared_metrics("end_to_end")
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

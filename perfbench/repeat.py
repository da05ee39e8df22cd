"""Run the benchmark over several seeds and summarise medians and spreads.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --seeds 1-10 [--workload fold-d8 ...] [--out FILE]

For each workload: one untraced run per seed, then one traced run on the
first seed.  Prints, and with ``--out`` writes, per metric the values,
their median and their spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the
fingerprint of every seed and the records of the runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {}
    for name in names:
        records, metrics = [], {}
        for seed in args.seeds:
            record, result = run_once(name, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed}: incorrect: {record['problems']}")
            records.append(record)
            for key, m in result["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        _, traced = run_once(name, args.seeds[0], seconds, 1)
        report[name] = {
            "end_to_end": {k: summary(v) for k, v in metrics.items()},
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "fingerprints": {r["seed"]: r["fingerprint"] for r in records},
            "records": records,
        }
        for key, s in report[name]["end_to_end"].items():
            print(f"  {key:14s} median {s['median']:.5g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

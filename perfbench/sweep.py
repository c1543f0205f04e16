#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads test-scbn-19k test-median-19k \
        --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 30 --trace 0 --out sweep.json

Runs are sequential, one process at a time.  For every workload and metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median.  ``--out`` also writes the
per-run values and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    summary: dict = {}
    failures = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                failures += 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            failures += int(not result["correct"])
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        if not runs:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **summarize(values)}
        summary[workload] = {"seeds": args.seeds, "metrics": metrics,
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs)}
        print(f"\n{workload}: {len(runs)} runs")
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:50s} median {m['median']:<14.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "workloads": summary}, indent=2) + "\n",
                            encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

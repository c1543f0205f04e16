#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once, at a tenth of its size.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced, and checks that the last line carries exactly the declared metrics,
each a number with its declared unit, that no operation failed and that the
reported error_rate is 0.  It also checks that the benchmark refuses to run,
without printing a result, from a copy that lacks the program's sources.
Exits nonzero on the first problem.  Not collected by pytest.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check(workload: str, trace: int, declared: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n{proc.stderr}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(declared))}")
    for name, unit in declared.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {got}, expected a number in {unit}")
    if trace == 0 and report["metrics"]["error_rate"]["value"] != 0:
        problems.append(f"{where}: error_rate {report['metrics']['error_rate']['value']}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "test-median-19k", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            found = check(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself.

Runs a tiny seeded pass of every workload in both modes (``--smoke`` keeps
a handful of operations) and asserts that each run prints every metric that
BENCHMARK.json names, with its unit, and fails no operation.  The first
workload runs twice with one seed: both processes must print the same
output digest, which they would not if output depended on Python's
per-process hash randomization.  Run it from the root of a checkout; it
exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload: str, trace: int):
    argv = [*spec["command"], "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run([sys.executable, *argv[1:]], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def digest(stdout: str) -> str | None:
    return next((line.split()[-1] for line in stdout.splitlines()
                 if line.startswith("output digest ")), None)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    first_digest = None
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(spec, workload, trace)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            if first_digest is None:
                first_digest = digest(proc.stdout)
                again = digest(run(spec, workload, trace).stdout)
                if first_digest is None or again != first_digest:
                    print(f"FAIL {label}: output digest {first_digest} then "
                          f"{again} for the same seed")
                    return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"fail_ratio {result.get('failed')}/"
                                f"{result.get('attempted')}")
            metrics = result.get("metrics", {})
            names = {m["name"] for m in wanted[trace]}
            if set(metrics) != names:
                problems.append(f"metric names differ: missing "
                                f"{sorted(names - set(metrics))}, extra "
                                f"{sorted(set(metrics) - names)}")
            for m in wanted[trace]:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"]:
                    problems.append(f"{m['name']} unit {got.get('unit')!r}, "
                                    f"expected {m['unit']!r}")
                if not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{m['name']} value {got.get('value')!r}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok {label}: {result['attempted']} ops, "
                  f"{len(metrics)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarize benchmark records into medians, quartiles and spreads.

Reads the per-run records that ``run.py`` leaves in ``.bench_results/`` and
prints, per workload, trace mode and metric: the number of runs, the
median, the first and third quartiles, and the spread (quartile distance
over the median).  Per-operation latency medians, at nominal host speed,
are added for the single-operation kinds, such as the named subcommands,
that a workload runs once per pass.

    python3 bench/summarize.py [results-dir] > summary.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def describe(values) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    out = {"runs": len(values), "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return out


def main(argv) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else ROOT / ".bench_results"
    metrics = defaultdict(lambda: defaultdict(list))
    op_ms = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(set)
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        key = f"{record['workload']} trace {record['trace']}"
        seeds[key].add(record["seed"])
        for name, metric in record["metrics"].items():
            metrics[key][name].append(metric["value"])
        if record["trace"] == 0:
            by_name = defaultdict(list)
            for op in record["ops"]:
                by_name[op["name"]].append(statistics.median(op["scaled_ms"]))
            for name, values in by_name.items():
                if len(values) == 1:
                    op_ms[record["workload"]][name].append(values[0])
    summary = {key: {"seeds": sorted(seeds[key]),
                     "metrics": {name: describe(v) for name, v in ms.items()}}
               for key, ms in sorted(metrics.items())}
    for workload, ops in sorted(op_ms.items()):
        summary[f"{workload} trace 0"]["op_ms"] = {
            name: describe(v) for name, v in sorted(ops.items())}
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Benchmark for the contextuality classifier.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 55 --trace 0

Workloads (see README.md): ``cli-mix`` and ``ladder``.  Each is a fixed,
seeded list of in-process ``contextuality.cli.main`` calls, run closed loop
by one client in one single-threaded process.  ``--trace 0`` times whole
passes over the list and prints the end-to-end metrics, each operation's
time scaled to nominal host speed (``hostspeed.py``) and taken as its
median over the passes;
``--trace 1`` times untraced passes, then runs one traced pass and prints
the per-layer metrics.  Every output is checked against an independent
oracle, certificates behind ``no`` verdicts are re-checked, and outputs
must be byte-identical across passes.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import tracer as tracing
from tracer import END, INFO, LAYER, NAME, OP, PARENT, START

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
# numbers measure the program rather than the scheduler.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "BLIS_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
SMOKE_SCALE = 0.05
# Times the package's import in a fresh interpreter.  numpy loads first and
# untimed: every version of the program needs it, and its import time is
# noise here.  Set-up time covers the package's own import, including any
# other library it imports eagerly.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
t0 = time.perf_counter()
import contextuality.cli
print(time.perf_counter() - t0)
"""


class Pass:
    """Timings and output digests of one pass over the operation list."""

    def __init__(self):
        self.wall = 0.0
        self.op_seconds: list = []
        self.spans: list = []
        self.scaled: list = []
        self.probe_seconds = 0.0
        self.probe_median = 0.0
        self.digests: list = []
        self.outputs: list = []
        self.codes: list = []
        self.out_bytes = 0


def run_pass(main, ops, keep_output: bool, tracer=None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = f"exception {exc!r}"
        t1 = time.perf_counter()
        result.op_seconds.append(t1 - t0)
        result.spans.append((t0, t1))
        data = out.getvalue().encode()
        result.out_bytes += len(data)
        result.digests.append(hashlib.sha256(data).hexdigest())
        result.codes.append(code)
        if keep_output:
            result.outputs.append((data, err.getvalue()))
    result.wall = time.perf_counter() - start
    return result


def timed_passes(main, ops, budget: float) -> list:
    """Passes until the next one would overrun ``budget`` seconds (at least
    one), with each operation's time also scaled to nominal host speed."""
    passes = []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while True:
            gc.collect()
            passes.append(run_pass(main, ops, keep_output=not passes))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall > budget:
                break
    for run in passes:
        run.scaled = [sampler.scaled(t0, t1) for t0, t1 in run.spans]
        first, last = run.spans[0][0], run.spans[-1][1]
        run.probe_seconds = sampler.busy(first, last)
        run.probe_median = statistics.median(sampler.seconds_between(first, last)
                                             or [0.0])
    return passes


def verify(ops, reference: Pass, passes) -> tuple:
    """Check the reference outputs, then every pass against their digests.

    Returns (attempted, failed, problems).  An operation occurrence fails if
    its exit code is not 0, its bytes differ from the reference pass, or the
    reference output fails its oracle or certificate re-check.
    """
    bad = {}
    for index, op in enumerate(ops):
        data, err = reference.outputs[index]
        code = reference.codes[index]
        if code != 0:
            bad[index] = [f"exit code {code}: {err.strip()[-300:]}"]
            continue
        try:
            payload = json.loads(data)
        except ValueError as exc:
            bad[index] = [f"output is not JSON: {exc}"]
            continue
        problems = op.check(payload)
        if problems:
            bad[index] = problems
    attempted = failed = 0
    problems = [f"{ops[i].name}: {p}" for i, ps in bad.items() for p in ps]
    for run in passes:
        for index, op in enumerate(ops):
            attempted += 1
            if index in bad or run.codes[index] != 0:
                failed += 1
            elif run.digests[index] != reference.digests[index]:
                failed += 1
                problems.append(f"{op.name}: output bytes differ between passes")
    return attempted, failed, problems


def quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def write_docs(ops, directory: Path) -> None:
    for index, op in enumerate(ops):
        if op.doc is None:
            continue
        path = directory / f"{index:03d}-{op.name}.json"
        path.write_text(json.dumps(op.doc))
        op.argv = [str(path) if a == "{doc}" else a for a in op.argv]


def import_seconds(source: Path) -> float:
    """Seconds one fresh interpreter takes to import ``contextuality.cli``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(source)],
                          capture_output=True, text=True, timeout=120,
                          env=os.environ.copy())
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def setup(generate, seed: int, scale: float, scratch: Path, source: Path) -> tuple:
    """Set up several times; returns (ops, median set-up seconds).

    One set-up is the package's import in a fresh interpreter plus
    generating the inputs and writing them to files, scaled to nominal host
    speed.  The interpreter times its own import, which the probes running
    here meanwhile do not interrupt.
    """
    rounds = []
    ops = None
    with hostspeed.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            directory = Path(tempfile.mkdtemp(dir=scratch))
            t0 = time.perf_counter()
            imported = import_seconds(source)
            t1 = time.perf_counter()
            ops = generate(seed, scale)
            write_docs(ops, directory)
            rounds.append((imported, t0, t1, time.perf_counter()))
    return ops, statistics.median(
        (imported + t2 - t1 - sampler.busy(t1, t2)) * sampler.factor(t0, t2)
        for imported, t0, t1, t2 in rounds)


def op_medians(ops, passes) -> list:
    """Each operation's median time over the passes, in seconds at nominal
    host speed.

    The host's speed changes in bursts of a few seconds.  A median over
    passes far apart in time drops what the probes missed; a pass's total
    would keep it.
    """
    return [statistics.median(p.scaled[i] for p in passes)
            for i in range(len(ops))]


def end_to_end_metrics(ops, passes, setup_s: float) -> dict:
    latencies = op_medians(ops, passes)
    wall = sum(latencies)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_p50_ms": (1000 * quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (1000 * quantile(latencies, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(spans, ops, traced: Pass, untraced, rung_ids) -> dict:
    """Per-layer metrics of one traced pass (rung times from untraced passes)."""
    ms = 1000.0

    def dur(rec):
        return rec[END] - rec[START]

    def total(name):
        return sum(dur(r) for r in spans if r[NAME] == name)

    def calls(name):
        return sum(1 for r in spans if r[NAME] == name)

    def entry(rec):
        return rec[PARENT] < 0 or spans[rec[PARENT]][LAYER] != rec[LAYER]

    out: dict = {}
    selfs = tracing.self_times(spans)
    wall = traced.wall
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = (ms * selfs.get(layer, 0.0), "ms")
    root = sum(dur(r) for r in spans if r[PARENT] < 0)
    out["trace.bench_ms"] = (ms * (wall - root), "ms")
    out["trace.observe_ms"] = (ms * selfs.get("trace", 0.0), "ms")
    covered = sum(selfs.get(layer, 0.0) for layer in tracing.LAYERS)
    out["trace.self_sum_ratio"] = (covered / wall, "ratio")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_ratio"] = (
        wall / statistics.median(p.wall - p.probe_seconds for p in untraced), "ratio")
    out["trace.spans"] = (len(spans), "count")

    out["cli.out_bytes"] = (traced.out_bytes, "bytes")
    out["classify.calls"] = (calls("classify.classify"), "count")

    out["scenario.parse_ms"] = (ms * total("scenario.model_from_json"), "ms")
    out["scenario.from_quantum_ms"] = (ms * total("scenario.from_quantum"), "ms")
    out["scenario.nd_check_ms"] = (ms * total("scenario.validate_no_disturbance"), "ms")
    rationalize = [r for r in spans if r[NAME] == "scenario.rationalize_model"]
    out["scenario.rationalize_ms"] = (ms * sum(dur(r) for r in rationalize), "ms")
    out["scenario.rationalize_calls"] = (len(rationalize), "count")
    passthrough = sum(1 for r in rationalize if r[INFO] and r[INFO]["passthrough"])
    out["scenario.rationalize_passthrough_ratio"] = (
        passthrough / len(rationalize) if rationalize else 0.0, "ratio")

    sections = [r for r in spans if r[NAME] == "sheaf.solve_global_section"]
    out["sheaf.build_ms"] = (ms * total("sheaf.build_incidence_matrix"), "ms")
    out["sheaf.solve_ms"] = (ms * sum(dur(r) for r in sections), "ms")
    out["sheaf.rows"] = (sum(r[INFO]["rows"] for r in sections if r[INFO]), "count")
    out["sheaf.columns"] = (sum(r[INFO]["columns"] for r in sections if r[INFO]), "count")

    out["polytope.membership_ms"] = (ms * total("polytope.membership_lp"), "ms")
    out["polytope.vertices"] = (sum(r[INFO]["count"] for r in spans
                                    if r[NAME] == "polytope.enumerate_ld_vertices"
                                    and r[INFO]), "count")

    solve_names = ("exactlp.solve_eq_nonneg", "exactlp.solve_eq_nonneg_pruned",
                   "exactlp.hulls_intersect")
    solves = [i for i, r in enumerate(spans) if r[NAME] in solve_names and entry(r)]
    out["exactlp.solve_ms"] = (ms * sum(dur(spans[i]) for i in solves), "ms")
    out["exactlp.solve_calls"] = (len(solves), "count")
    infos = [spans[i][INFO] for i in solves if spans[i][INFO]]
    out["exactlp.lp_cells"] = (sum(info["m"] * info["n"] for info in infos), "count")
    out["exactlp.infeasible_ratio"] = (
        sum(1 for info in infos if not info["feasible"]) / len(infos) if infos else 0.0,
        "ratio")
    out["exactlp.cert_den_bits_max"] = (max((info["den_bits"] for info in infos),
                                            default=0), "bits")
    for caller in ("sheaf", "polytope", "embedding"):
        out[f"exactlp.solve_ms.{caller}"] = (
            ms * sum(dur(spans[i]) for i in solves
                     if spans[i][PARENT] >= 0
                     and spans[spans[i][PARENT]][LAYER] == caller), "ms")
    box_ops = [i for i, op in enumerate(ops) if op.kind == "box"]
    box_set = set(box_ops)
    out["exactlp.lps_per_bipartite_report"] = (
        sum(1 for i in solves if spans[i][OP] in box_set) / len(box_ops)
        if box_ops else 0.0, "count")
    boxes = [r for r in spans if r[NAME] == "exactlp.solve_box_eq" and entry(r)]
    out["exactlp.box_ms"] = (ms * sum(dur(r) for r in boxes), "ms")
    out["exactlp.box_calls"] = (len(boxes), "count")
    rechecks = [r for r in spans
                if r[NAME] in ("exactlp.check_farkas", "exactlp.check_solution")
                and entry(r)]
    out["exactlp.recheck_ms"] = (ms * sum(dur(r) for r in rechecks), "ms")
    out["exactlp.recheck_calls"] = (len(rechecks), "count")
    out["exactlp.vertex_enum_ms"] = (ms * total("exactlp.enumerate_vertices"), "ms")

    out["embedding.assignment_polytope_ms"] = (
        ms * total("embedding.build_assignment_polytope"), "ms")
    out["embedding.pusey_ms"] = (ms * total("embedding.pusey_incomplete_check"), "ms")
    out["embedding.pusey_lps"] = (
        sum(1 for i in solves
            if any(a[NAME] == "embedding.pusey_incomplete_check"
                   for a in tracing.ancestors(spans, i))), "count")
    out["embedding.embed_sharp_ms"] = (ms * total("embedding.embed_sharp"), "ms")
    out["embedding.prep_nc_ms"] = (ms * total("embedding.prep_nc_check"), "ms")
    out["embedding.search_ms"] = (ms * total("embedding.embed_search"), "ms")

    out["quantum.construct_ms"] = (
        ms * sum(dur(r) for r in spans if r[LAYER] == "quantum" and entry(r)), "ms")

    qsl_s = total("qsl.qsl_compare")
    shots = sum(op.meta.get("shots", 0) for op in ops)
    out["qsl.run_ms"] = (ms * qsl_s, "ms")
    out["qsl.shots_per_s"] = (shots / qsl_s if qsl_s > 0 else 0.0, "1/s")

    for rung in rung_ids:
        times = [p.scaled[i] for p in untraced
                 for i, op in enumerate(ops) if op.meta.get("rung") == rung]
        out[f"ladder.rung.{rung}_ms"] = (ms * statistics.median(times) if times else 0.0,
                                         "ms")
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-mix", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operation lists, for checking the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    source = ROOT / "src"
    if not (source / "contextuality" / "cli.py").is_file():
        print(f"error: no package source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import contextuality.cli as cli
    if Path(cli.__file__).resolve().parent.parent != source.resolve():
        print(f"error: imported {cli.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    import workloads

    scale = SMOKE_SCALE if args.smoke else 1.0
    scratch_root = ROOT / ".bench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        ops, setup_s = setup(workloads.GENERATORS[args.workload], args.seed, scale,
                             scratch, source)
        warm = workloads.warmup_ops(args.seed)
        write_docs(warm, Path(tempfile.mkdtemp(dir=scratch)))
        warm_pass = run_pass(cli.main, warm, keep_output=True)

        budget = args.seconds if args.trace == 0 else args.seconds / 2
        passes = timed_passes(cli.main, ops, budget)
        reference = passes[0]
        checked = passes
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(tracer.wrap("cli.main", "cli", cli.main), ops,
                                  keep_output=False, tracer=tracer)
            finally:
                tracer.uninstall()
            checked = passes + [traced]
            metrics = layer_metrics(tracer.spans, ops, traced, passes,
                                    workloads.LADDER_IDS)
        else:
            metrics = end_to_end_metrics(ops, passes, setup_s)
        w_attempted, w_failed, w_problems = verify(warm, warm_pass, [warm_pass])
        attempted, failed, problems = verify(ops, reference, checked)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    attempted += w_attempted
    failed += w_failed
    problems = w_problems + problems

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": [p.wall for p in passes],
        "probe_ms": [1000 * p.probe_median for p in passes],
        "ops": [{"name": op.name, "sha256": reference.digests[i],
                 "ms": [1000 * p.op_seconds[i] for p in passes],
                 "scaled_ms": [1000 * p.scaled[i] for p in passes]}
                for i, op in enumerate(ops)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(results_dir / f"{stem}.spans.jsonl", "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")

    digest = hashlib.sha256("".join(reference.digests).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops per pass, {len(passes)} timed passes; wall_s and "
          f"op percentiles over {len(ops)} per-operation medians")
    print(f"output digest {digest}")
    print(f"raw pass seconds {' '.join(f'{p.wall:.3f}' for p in passes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of wedgemech: one client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src``.
Set-up (import plus seeded inputs) happens before the timed loop.  The
loop then runs whole cycles of the workload's fixed op schedule until
``--seconds`` have passed and at least 20 ops have completed, so every
run weighs the op types alike.  Every op checks its own result (see
workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the same ops run with spans recorded around each
layer call; the last line reports the per-layer metrics, and the spans
go to ``perfbench/_run/spans-<workload>-seed<N>.jsonl``.  ``--workload
all`` runs the four workloads in turn and prints one table.

``plateau-steep`` is runnable here but is not among the workloads of
BENCHMARK.json: some of its solves stop short of their tolerance, so its
failure count depends on how many ops a run gets through.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("plateau-mild", "plateau-steep", "constraint-check", "cli-roundtrip")
MIN_OPS = 20
SETUP_SAMPLES = 5  # this process's set-up plus four fresh processes

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("plateau.initial_guess_s", "s"), ("plateau.solve_s", "s"), ("plateau.newton_s", "s"),
    ("plateau.residual_s", "s"), ("plateau.constrained_s", "s"),
    ("plateau.newton_iters", "count"), ("plateau.step_halvings", "count"),
    ("plateau.unknowns", "count"),
    ("constraints.check_s", "s"), ("constraints.membership_s", "s"),
    ("constraints.dalembert_s", "s"), ("constraints.nodes", "count"),
    ("constraints.pointwise_nodes", "count"),
    ("variational.delta_L_s", "s"), ("variational.via_maps_s", "s"),
    ("tulczyjew.alpha2_calls", "count"),
    ("formats.write_grid_s", "s"), ("formats.read_grid_s", "s"), ("formats.grid_bytes", "bytes"),
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("scenarios.run_scenario_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args, workdir, tracer=None):
    """Import the package and build the workload's op cycles; returns (cycles, seconds)."""
    start = time.perf_counter()
    import workloads  # numpy, scipy and every wedgemech module

    cycles = workloads.build(args.workload, args.seed, workdir, tracer)
    return cycles, time.perf_counter() - start


def _loop(cycles, seconds, tracer):
    """Run whole cycles until ``seconds`` have passed and MIN_OPS ops are done."""
    import workloads

    latencies, failures, wrong = [], {}, []
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    k = 0
    while end < deadline or k < MIN_OPS:
        for op in cycles[(k // len(cycles[0])) % len(cycles)]:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op.run()
                else:
                    tracer.op = k
                    with tracer.span("op"):
                        op.run()
            except workloads.Wrong as err:
                wrong.append(f"op {k} {op.label}: {err}")
            except (workloads.Failed, *workloads.NUMERIC_ERRORS) as err:
                key = f"{op.label}: {type(err).__name__}"
                failures[key] = failures.get(key, 0) + 1
            end = time.perf_counter()
            latencies.append(end - t0)
            k += 1
    return latencies, failures, wrong, end - start, k // len(cycles[0])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _fresh_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _environment(args, attempted):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "wedgemech")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit, "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": attempted,
    }


def _layer_metrics(tracer, overhead_s, n_cycles):
    """Per-layer values per cycle of the mix: run totals over whole cycles run,
    so that they compare across versions that get through more cycles."""
    totals, own = tracer.totals(), tracer.self_times()
    values = {name: totals.get(name[:-2], 0.0) for name, unit in PER_LAYER if unit == "s"}
    values.update({name: tracer.counts.get(name, 0) for name, unit in PER_LAYER
                   if unit in ("count", "bytes")})
    # a solve's own time is the Newton loop once the fill (its only child) is out;
    # a check's own time is the d'Alembert split once membership and delta_L are out
    values["plateau.newton_s"] = own.get("plateau.solve", 0.0)
    values["constraints.dalembert_s"] = own.get("constraints.check", 0.0)
    values["trace.overhead_s"] = overhead_s
    values = {name: value / n_cycles for name, value in values.items()}
    values["trace.coverage"] = tracer.coverage("op")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _run_one(args) -> int:
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        cycles, setup_s = _setup(args, workdir, tracer)
        import wedgemech

        if os.path.dirname(os.path.abspath(wedgemech.__file__)) != os.path.join(SRC, "wedgemech"):
            print(f"run.py: wedgemech imported from {wedgemech.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if tracer is None:
            latencies, failures, wrong, elapsed, n_cycles = _loop(cycles, args.seconds, None)
        else:
            from tracing import instrumented, wrapper_cost

            with instrumented(tracer):
                latencies, failures, wrong, elapsed, n_cycles = _loop(cycles, args.seconds, tracer)
        peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    failed = sum(failures.values()) + len(wrong)
    ops_per_s = attempted / elapsed
    op_p50_s = statistics.median(latencies)
    env = _environment(args, attempted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} in {n_cycles} cycles  failed {failed}  "
          f"failed_ratio {failed / attempted:.4f}")
    for key, count in sorted(failures.items()):
        print(f"  failed x{count}: {key}")
    for line in wrong:
        print(f"  WRONG {line}")
    if tracer is None:
        samples = [setup_s] + [_fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        values = {"setup_s": statistics.median(samples), "ops_per_s": ops_per_s,
                  "op_p50_s": op_p50_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
    else:
        calls = len(tracer.spans) + tracer.counts.get("tulczyjew.alpha2_calls", 0)
        overhead_s = calls * wrapper_cost()
        metrics = _layer_metrics(tracer, overhead_s, n_cycles)
        spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path, {"environment": env})
        op_time = sum(latencies)
        print(f"  traced ops_per_s {ops_per_s:.4f}  op_p50_s {op_p50_s:.4f}  "
              f"span coverage of op time {metrics['trace.coverage']['value']:.4f}  "
              f"wrapper overhead {overhead_s:.4f} s = {overhead_s / op_time:.2e} of op time")
        print(f"  {'span':28s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}")
        totals, own = tracer.totals(), tracer.self_times()
        calls_by_name = collections.Counter(span[0] for span in tracer.spans)
        for name in sorted(totals, key=lambda n: -own[n]):
            print(f"  {name:28s} {calls_by_name[name]:6d} {totals[name]:10.4f} {own[name]:10.4f}")
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, untraced; one table."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    header = ("workload", "ops", "setup_s", "ops_per_s", "op_p50_s", "failed_ratio",
              "peak_rss_mb", "correct")
    print("  ".join(f"{h:>16s}" for h in header))
    print("  ".join(f"{h:>16s}" for h in ("", "count", "s", "1/s", "s", "failed/ops", "MB", "")))
    for workload, row in rows.items():
        m = row["metrics"]
        cells = (workload, str(row["attempted"]), f"{m['setup_s']['value']:.4f}",
                 f"{m['ops_per_s']['value']:.4f}", f"{m['op_p50_s']['value']:.4f}",
                 f"{row['failed'] / row['attempted']:.4f}", f"{m['peak_rss_mb']['value']:.1f}",
                 str(row["correct"]))
        print("  ".join(f"{c:>16s}" for c in cells))
    print(json.dumps(rows))
    return 0 if all(row["correct"] for row in rows.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "wedgemech", "__init__.py")):
        print(f"run.py: no wedgemech sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads; children inherit them
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())

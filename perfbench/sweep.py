"""One-off size sweep of the Plateau solver, kept apart from the workloads.

    python3 perfbench/sweep.py [--out PATH]

Solves the Scherk patch on [-0.7, 0.7]^2 (the ``scherk-65`` scenario's
boundary) at each size, each size in a fresh process so that its peak
resident memory is its own.  The harmonic fill and the Newton loop are
timed as spans (see tracing.py); times are medians over the repeats.
Rows go to stdout and, as JSON with the run environment, to ``--out``.
At 513^2 the seed solver holds about 2 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from run import HERE, ROOT, SRC, THREAD_VARS

HALF_WIDTH = 0.7
SIZES = (65, 129, 257, 513)
REPEATS = 3


def _solve_size(n: int, repeats: int) -> dict:
    import numpy as np

    from tracing import Tracer, instrumented
    from wedgemech import plateau

    domain = (-HALF_WIDTH, HALF_WIDTH, -HALF_WIDTH, HALF_WIDTH)
    height = lambda X, Y: np.log(np.cos(Y) / np.cos(X))
    grid = plateau.GraphGrid.from_boundary(domain, n, n, height)
    exact = plateau.GraphGrid.sample(domain, n, n, height).z
    fills, newtons, totals = [], [], []
    for _ in range(repeats):
        tracer = Tracer()
        with instrumented(tracer):
            result = plateau.solve_plateau(grid, plateau.SolveOptions(tol=1e-10))
        totals.append(tracer.totals()["plateau.solve"])
        fills.append(tracer.totals()["plateau.initial_guess"])
        newtons.append(tracer.self_times()["plateau.solve"])
    return {
        "n": n, "unknowns": (n - 2) ** 2, "repeats": repeats,
        "solve_s": statistics.median(totals), "fill_s": statistics.median(fills),
        "newton_s": statistics.median(newtons), "newton_iters": result.iterations,
        "converged": result.converged, "final_residual": result.final_residual,
        "max_error": float(np.abs(result.grid.z - exact).max()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "_run", "sweep.json"))
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wedgemech", "__init__.py")):
        print(f"sweep.py: no wedgemech sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.one is not None:
        print(json.dumps(_solve_size(args.one, REPEATS)))
        return 0
    rows = []
    for n in SIZES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", str(n)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{n:4d}^2  solve {row['solve_s']:8.3f} s  fill {row['fill_s']:7.3f} s  "
              f"newton {row['newton_s']:8.3f} s  iters {row['newton_iters']}  "
              f"rss {row['peak_rss_mb']:7.1f} MB  converged {row['converged']}", flush=True)
    import numpy
    import scipy

    environment = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__,
                   "threads": {v: os.environ[v] for v in THREAD_VARS},
                   "machine": platform.machine()}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump({"environment": environment, "half_width": HALF_WIDTH, "rows": rows},
                  handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

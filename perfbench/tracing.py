"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of its parent span and the
id of the benchmark op it belongs to.  Spans stay in a list until the
run is over; `Tracer.write` then dumps them as JSON lines, so the
measured loop does no trace I/O.

`instrumented` wraps wedgemech functions where the package's modules
look them up, so a call the library makes from one of its layers into
another nests under the caller's span (``plateau.initial_guess`` under
``plateau.solve``, ``variational.delta_L`` under ``constraints.check``).
The wrappers live here; the package source is untouched and the plain
run installs none of them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans and exact counts; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict:
        """Summed duration per span name, children included."""
        out = {}
        for s in self.spans:
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START]
        return out

    def self_times(self) -> dict:
        """Summed duration per span name minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for s, covered in zip(self.spans, child):
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START] - covered
        return out

    def coverage(self, root: str = "op") -> float:
        """Share of the root spans' time that their named child spans cover."""
        totals = self.totals()
        own = self.self_times()
        if not totals.get(root):
            return 0.0
        return 1.0 - own[root] / totals[root]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP],
                }) + "\n")


def _traced(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name, 1)
        return fn(*args, **kwargs)

    return wrapper


def _after_solve(tracer, args, kwargs, result):
    options = args[1] if len(args) > 1 else kwargs.get("options")
    damping = options.damping if options is not None else 1.0
    nx, ny = result.grid.shape
    tracer.count("plateau.newton_iters", int(result.iterations))
    tracer.count("plateau.step_halvings",
                 int(np.rint(np.log2(damping / np.asarray(result.steps))).sum()))
    tracer.count("plateau.unknowns", (nx - 2) * (ny - 2))


def _after_check(tracer, args, kwargs, report):
    constraint = args[2] if len(args) > 2 else kwargs["constraint"]
    nodes = int(report.orthogonal_norms.size)
    tracer.count("constraints.nodes", nodes)
    if not constraint.constant:
        tracer.count("constraints.pointwise_nodes", nodes)


def _after_grid_io(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("formats.grid_bytes", os.path.getsize(path))


# (defining module, attribute, span name, counter run after the call)
SPANNED = (
    ("wedgemech.plateau", "initial_guess", "plateau.initial_guess", None),
    ("wedgemech.plateau", "solve_plateau", "plateau.solve", _after_solve),
    ("wedgemech.plateau", "minimal_surface_residual", "plateau.residual", None),
    ("wedgemech.plateau", "solve_constrained_plateau", "plateau.constrained", None),
    ("wedgemech.constraints", "nonholonomic_check", "constraints.check", _after_check),
    ("wedgemech.constraints", "nonholonomic_check_curve", "constraints.check", _after_check),
    # the surface check reaches membership through this helper, not through
    # the public constraint_residual_surface; skipped if a later version drops it
    ("wedgemech.constraints", "_membership_residuals_surface", "constraints.membership", None),
    ("wedgemech.constraints", "constraint_residual_curve", "constraints.membership", None),
    ("wedgemech.variational", "delta_L_surface", "variational.delta_L", None),
    ("wedgemech.variational", "delta_L_curve", "variational.delta_L", None),
    ("wedgemech.variational", "delta_L_surface_via_maps", "variational.via_maps", None),
    ("wedgemech.formats", "write_grid", "formats.write_grid", _after_grid_io),
    ("wedgemech.formats", "read_grid", "formats.read_grid", _after_grid_io),
    ("wedgemech.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("wedgemech.cli", "main", "cli.main", None),
)

# (module whose global is replaced, attribute, count name): calls counted, no span
COUNTED = (
    ("wedgemech.variational", "alpha2", "tulczyjew.alpha2_calls"),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers on every loaded wedgemech module; undo on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "wedgemech" or name.startswith("wedgemech."))]
    replaced = []
    for module_name, attr, span_name, after in SPANNED:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            continue
        wrapper = _traced(tracer, span_name, fn, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    replaced.append((module, key, value))
                    setattr(module, key, wrapper)
    for module_name, attr, count_name in COUNTED:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            replaced.append((module, attr, fn))
            setattr(module, attr, _counted(tracer, count_name, fn))
    try:
        yield
    finally:
        for module, key, value in reversed(replaced):
            setattr(module, key, value)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = _traced(probe, "calibrate", noop, None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    middle = time.perf_counter()
    for _ in range(calls):
        wrapped()
    end = time.perf_counter()
    return max(0.0, ((end - middle) - (middle - start)) / calls)

"""The benchmark's workloads: seeded inputs, ops and correctness gates.

`build` runs before the timed loop and returns one workload's ops as
cycles: each cycle holds every op type of the workload's fixed mix, in a
fixed order.  An op calls the program and then checks what came
back.  It returns on success.  It raises `Failed` when the program
reported that it could not deliver, such as a solve that stopped short
of its tolerance.  It raises `Wrong` when the program delivered an
answer that contradicts the expected one.

The seed moves boundary data and constraint parameters only.  The size
mix and the op order are fixed, so the cost of a run does not swing with
the seed.  Parameters that set an op's cost, such as the Scherk
half-width, follow an additive golden-ratio sequence from a seeded
start, so any run of consecutive cycles covers the parameter range
evenly.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import wedgemech.cli as cli
from wedgemech import constraints, fields, geometry, plateau, variational

# Errors the program raises for inputs it cannot handle numerically: a failed op.
NUMERIC_ERRORS = (
    plateau.SingularJacobianError,
    constraints.RankDecisionError,
    variational.NodeDomainError,
)


class Failed(Exception):
    """The program reported that it could not deliver a result."""


class Wrong(Failed):
    """The program delivered a result that contradicts the expected one."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], None]


_GOLDEN_STEP = (5 ** 0.5 - 1) / 2


def _spread(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` values in [lo, hi), each prefix of them evenly spread."""
    return lo + (hi - lo) * ((rng.random() + _GOLDEN_STEP * np.arange(count)) % 1.0)


def _cycles(pattern, count, make):
    """``count`` cycles of ``pattern``; ``make(tag, j)`` builds the j-th op of a tag."""
    seen = {}
    cycles = []
    for _ in range(count):
        cycle = []
        for tag in pattern:
            j = seen.get(tag, 0)
            seen[tag] = j + 1
            cycle.append(make(tag, j))
        cycles.append(cycle)
    return cycles


# --------------------------------------------------------------- plateau

def _scherk(X, Y):
    return np.log(np.cos(Y) / np.cos(X))


def _scherk_bound(a: float, n: int) -> float:
    """Max-error allowance of the converged n x n solve on [-a, a]^2.

    The scheme is second order: the measured error is 0.0037 h^2 a^4 / cos^2 a
    to two digits for a in [0.3, 1.5] at 65 and 129 nodes a side.  The
    allowance is about five times that.
    """
    h = 2.0 * a / (n - 1)
    return 0.02 * h * h * a ** 4 / np.cos(a) ** 2


def _plateau_op(label, grid, exact, bound, tol):
    options = plateau.SolveOptions(tol=tol)

    def run():
        result = plateau.solve_plateau(grid, options)
        residual = float(np.abs(plateau.minimal_surface_residual(result.grid)).max())
        if not result.converged:
            raise Failed(f"stopped at residual {result.final_residual:.3e} "
                         f"after {result.iterations} iterations")
        if residual > tol:
            raise Wrong(f"claims convergence, recomputed residual {residual:.3e}")
        error = float(np.abs(result.grid.z - exact).max())
        if error > bound:
            raise Wrong(f"error {error:.3e} against the exact surface exceeds {bound:.3e}")

    return Op(label, run)


def _plateau_ops(rng, pattern, half_widths, count):
    """``S<n>`` tags are Scherk patches, ``A<n>`` affine data on [-2, 2]^2."""
    tags = sorted(set(pattern))
    per_tag = count * len(pattern)
    widths = {tag: _spread(rng, *half_widths, per_tag) for tag in tags if tag[0] == "S"}
    coeffs = {tag: rng.uniform(-0.4, 0.4, (per_tag, 3)) for tag in tags if tag[0] == "A"}

    def make(tag, j):
        n = int(tag[1:])
        if tag[0] == "S":
            a = float(widths[tag][j])
            domain = (-a, a, -a, a)
            height, bound = _scherk, _scherk_bound(a, n)
        else:
            p, q, c = coeffs[tag][j]
            domain = (-2.0, 2.0, -2.0, 2.0)
            height, bound = (lambda X, Y: p * X + q * Y + c), 1e-9
        grid = plateau.GraphGrid.from_boundary(domain, n, n, height)
        exact = plateau.GraphGrid.sample(domain, n, n, height).z
        return _plateau_op(tag, grid, exact, bound, 1e-10)

    return _cycles(pattern, count, make)


def _build_plateau_mild(rng, workdir, tracer):
    # two cheap solves, five 129^2 solves and two large ones per cycle: the
    # median op is the middle 129^2 solve, away from any jump in cost
    pattern = ("S129", "S65", "S129", "S257", "S129", "A65", "S129", "A257", "S129")
    return _plateau_ops(rng, pattern, (0.3, 0.9), 8)


def _build_plateau_steep(rng, workdir, tracer):
    # the median op is a 129^2 solve with 5 Newton steps, half-width about 1.37
    pattern = ("S129", "S65", "S129", "S129")
    return _plateau_ops(rng, pattern, (1.3, 1.5), 16)


# ------------------------------------------------------------ constraints

_E3 = np.eye(3)
_SECTION = geometry.Bivector([1.0, 0.0, 0.0], 3)  # e1 ^ e2


def _graph(n, height, domain=(0.0, 1.0, 0.0, 1.0)):
    xs = np.linspace(domain[0], domain[1], n)
    ys = np.linspace(domain[2], domain[3], n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return variational.SurfaceGrid.from_graph(xs, ys, height(X, Y))


def _rotating_constraint(alpha, beta):
    """Generator (e1 - t e2) ^ e3 with t = alpha x + beta: the annihilator
    direction (t, 1, 0) turns with x.  Graphs z = alpha x^2/2 + beta x + y
    satisfy it exactly."""

    def generator(x):
        return geometry.wedge(np.array([1.0, -(alpha * x[0] + beta), 0.0]), _E3[2])

    return constraints.AffineConstraint2(3, _SECTION, [generator])


def _surface_oracle(L, grid, eta):
    """Membership and force-balance defects per interior node, vectorized,
    for a one-generator constraint with section e1^e2 and unit annihilator
    rows ``eta`` (ni, nj, 3)."""
    w = variational.wedge_prolongation(grid)[1:-1, 1:-1]
    diff = geometry.antisymmetric_from_slots(w - _SECTION.slots, 3)
    membership = np.abs(np.einsum("ijm,ijmn->ijn", eta, diff)).max(axis=-1)
    delta = variational.delta_L_surface(L, grid).values
    orth = np.abs(delta - np.sum(delta * eta, axis=-1, keepdims=True) * eta).max(axis=-1)
    return membership, orth


def _curve_oracle(L, grid, section, eta):
    """Same for a curve constraint ``section(x) + span{section(x)}``."""
    x = grid.points[1:-1]
    v = variational.velocity_prolongation(grid)[1:-1]
    membership = np.abs(np.sum((v - section(x)) * eta, axis=-1))
    delta = variational.delta_L_curve(L, grid).values
    orth = np.abs(delta - np.sum(delta * eta, axis=-1, keepdims=True) * eta).max(axis=-1)
    return membership, orth


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _check_op(label, check, expected, admissible, tol, force_tol):
    """``check()`` returns a ConstraintCheckReport; ``expected`` holds the
    oracle's (membership, orth) arrays; ``admissible`` is the membership
    verdict the candidate was built to have."""
    membership, orth = expected

    def run():
        report = check()
        got = report.constraint_residuals.reshape(membership.shape)
        for name, have, want in (("membership", got, membership),
                                 ("force balance", report.orthogonal_norms, orth)):
            gap = float(np.abs(have - want).max())
            if gap > 1e-9 * max(1.0, float(np.abs(want).max())):
                raise Wrong(f"{name} defects deviate from the reference by {gap:.3e}")
        if report.constraint_passed != admissible:
            raise Wrong(f"membership verdict {report.constraint_passed}, built {admissible}")
        if report.dalembert_passed != bool(orth.max() <= force_tol):
            raise Wrong(f"force-balance verdict {report.dalembert_passed} contradicts "
                        f"the reference maximum {orth.max():.3e} against {force_tol:.0e}")

    return Op(label, run)


def _via_maps_op(label, L, grid):
    reference = variational.delta_L_surface(L, grid).values
    scale = max(1.0, float(np.abs(reference).max()))

    def run():
        field, momentum_defect = variational.delta_L_surface_via_maps(L, grid)
        gap = float(np.abs(field.values - reference).max())
        if gap > 1e-10 * scale:
            raise Wrong(f"via-maps defect deviates from delta_L_surface by {gap:.3e}")
        if momentum_defect > 1e-12 * scale:
            raise Wrong(f"momentum defect {momentum_defect:.3e}")

    return Op(label, run)


def _build_constraint_check(rng, workdir, tracer):
    L = fields.plateau_lagrangian()
    Lc = fields.quadratic_curve_lagrangian(2)
    example7 = constraints.symmetric_slope_constraint()
    generator = geometry.wedge(_E3[0] - _E3[1], _E3[2])
    example7_pointwise = constraints.AffineConstraint2(
        3, lambda x: _SECTION, [lambda x: generator])
    drift = constraints.first_axis_drift_constraint(2)
    e1 = np.array([1.0, 0.0])
    drift_pointwise = constraints.AffineConstraint1(2, lambda x: e1, [lambda x: e1])
    t = np.linspace(0.0, 1.0, 10001)
    tol, force_tol = 1e-6, 1e-3          # surfaces
    curve_tol, curve_force_tol = 1e-8, 1e-5

    def surface(tag, n, violating):
        """Graph candidate for example7 (``E-*``) or the rotating constraint (``R-*``)."""
        if tag[0] == "E":
            constraint = example7 if "-const-" in tag else example7_pointwise
            if violating:
                a = rng.uniform(0.3, 0.9)
                grid = _graph(n, _scherk, (-a, a, -a, a))
            else:
                q, p, c = rng.uniform(0.3, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
                grid = _graph(n, lambda X, Y: q * (X + Y) ** 2 + p * (X + Y) + c)
            eta = np.broadcast_to(_unit(np.array([1.0, 1.0, 0.0])), (n - 2, n - 2, 3))
        else:
            alpha, beta = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
            kappa = rng.uniform(0.5, 1.0) if violating else 0.0
            grid = _graph(n, lambda X, Y: alpha * X ** 2 / 2 + beta * X + Y + kappa * Y ** 2 / 2)
            constraint = _rotating_constraint(alpha, beta)
            x = grid.points[1:-1, 1:-1, 0]
            eta = _unit(np.stack([alpha * x + beta, np.ones_like(x), np.zeros_like(x)], -1))
        return _check_op(
            tag,
            lambda: constraints.nonholonomic_check(L, grid, constraint, tol, force_tol),
            _surface_oracle(L, grid, eta), not violating, tol, force_tol)

    def curve(tag):
        """10^4-node curve: first-axis drift (constant or callable), or a
        drift direction (1, alpha x + beta) that turns with x."""
        if tag == "curve-rotating":
            alpha, beta, c = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)
            grid = variational.CurveGrid(t[1] - t[0], np.stack(
                [t, alpha * t ** 2 / 2 + beta * t + c], -1))
            direction = lambda x: np.array([1.0, alpha * x[0] + beta])
            constraint = constraints.AffineConstraint1(2, direction, [direction])
            section = lambda x: np.stack([np.ones(len(x)), alpha * x[:, 0] + beta], -1)
            eta = _unit(np.stack([-(alpha * grid.points[1:-1, 0] + beta),
                                  np.ones(len(t) - 2)], -1))
        else:
            speed, x0, c = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
            grid = variational.CurveGrid(t[1] - t[0], np.stack(
                [x0 + speed * t, np.full_like(t, c)], -1))
            constraint = drift if tag == "curve-drift-const" else drift_pointwise
            section = lambda x: np.broadcast_to(e1, x.shape)
            eta = np.broadcast_to(np.array([0.0, 1.0]), (len(t) - 2, 2))
        return _check_op(
            tag,
            lambda: constraints.nonholonomic_check_curve(Lc, grid, constraint, curve_tol,
                                                         curve_force_tol),
            _curve_oracle(Lc, grid, section, eta), True, curve_tol, curve_force_tol)

    def make(tag, j):
        if tag.startswith("curve-"):
            return curve(tag)
        n = int(tag.split("-")[2])
        if tag.startswith("via-"):
            a = rng.uniform(0.3, 0.9)
            return _via_maps_op(tag, L, _graph(n, _scherk, (-a, a, -a, a)))
        return surface(tag, n, tag.endswith("-violating"))

    # per cycle (seed code): three vectorized checks of a few ms, three ops of
    # 0.1-0.2 s, seven rotating-constraint checks of 0.3 s holding the median,
    # and six ops of 0.35-1.5 s.  E-const and E-pointwise run example7 through
    # the constant (vectorized) and the callable (per-node) route.
    pattern = (
        "E-pointwise-33", "E-const-33", "R-pointwise-65", "R-pointwise-33", "via-maps-33",
        "R-pointwise-33-violating", "curve-drift-const", "R-pointwise-33", "E-pointwise-65",
        "R-pointwise-33-violating", "via-maps-65", "E-const-65-violating", "R-pointwise-33",
        "curve-drift-pointwise", "R-pointwise-33-violating", "E-pointwise-33-violating",
        "R-pointwise-33", "E-pointwise-65-violating", "curve-rotating",
    )
    return _cycles(pattern, 4, make)


# -------------------------------------------------------------------- cli

SCENARIOS = (
    "constrained-line", "constrained-line-violating", "constrained-plane",
    "constrained-quadratic", "example7-plane", "example7-quadratic", "example7-scherk",
    "free-line", "nambu-goto-euclid", "oscillator-cos", "phase-cross-check", "plane",
    "scherk-65", "zero-field",
)


def _cli_op(label, argv, workdir, tracer, expect):
    """Run ``wedgemech argv`` in a fresh process; with a tracer, time the fresh
    import alone and replay argv in-process through ``cli.main``."""
    env = dict(os.environ)

    def run():
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "wedgemech.cli", *argv],
                                  cwd=workdir, env=env, capture_output=True)
            code, out, err = proc.returncode, proc.stdout.decode("ascii"), proc.stderr.decode()
        else:
            with tracer.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import wedgemech.cli"],
                               cwd=workdir, env=env, check=True)
            out_buffer, err_buffer = io.StringIO(), io.StringIO()
            with redirect_stdout(out_buffer), redirect_stderr(err_buffer):
                code = cli.main(list(argv))
            out, err = out_buffer.getvalue(), err_buffer.getvalue()
        try:
            expect(code, out)
        except Wrong as wrong:
            raise Wrong(f"{wrong}; stderr: {err.strip()[-300:]}") from None

    return Op(label, run)


def _golden_expect(name, golden):
    # exit 2 is both "FAIL by design" and "golden mismatch": the bytes decide
    code_wanted = 0 if golden.rstrip("\n").endswith("result: PASS") else 2

    def expect(code, out):
        if out != golden:
            raise Wrong(f"stdout deviates from the golden report of {name}")
        if code != code_wanted:
            raise Wrong(f"exit code {code}, golden report implies {code_wanted}")

    return expect


def _report_fields(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def _spec_expect(wanted, numbers):
    """Exit 0, the ``wanted`` report lines, ``numbers`` within 1e-9, and the
    same bytes as the first run of the same spec."""
    first = []

    def expect(code, out):
        if code != 0:
            raise Wrong(f"exit code {code}")
        got = _report_fields(out)
        for key, value in wanted.items():
            if got.get(key) != value:
                raise Wrong(f"report line {key!r} is {got.get(key)!r}, expected {value!r}")
        for key, value in numbers.items():
            if abs(float(got.get(key, "nan")) - value) > 1e-9 * (1.0 + abs(value)):
                raise Wrong(f"report {key} {got.get(key)} differs from {value}")
        if not first:
            first.append(out)
        elif out != first[0]:
            raise Wrong("report differs between runs of the same spec")

    return expect


def _build_cli_roundtrip(rng, workdir, tracer):
    golden_dir = os.path.join(os.path.dirname(cli.__file__), "golden")
    scenario_ops = []
    for name in SCENARIOS:
        with open(os.path.join(golden_dir, f"{name}.txt"), encoding="ascii") as handle:
            golden = handle.read()
        command = _report_fields(golden)["command"]
        scenario_ops.append(_cli_op(name, (command, "--scenario", name), workdir, tracer,
                                    _golden_expect(name, golden)))
    cycles = []
    for k in range(2):
        a, b = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        x0, y0 = (float(v) for v in rng.uniform(-1.0, 0.0, 2))
        solve_spec = os.path.join(workdir, f"solve-{k}.spec")
        check_spec = os.path.join(workdir, f"check-{k}.spec")
        grid_path = os.path.join(workdir, f"plane-{k}.grid")
        with open(solve_spec, "w", encoding="ascii") as handle:
            handle.write(f"kind constrained-plateau\ndomain {x0!r} {x0 + 1.0!r} {y0!r} {y0 + 1.0!r}\n"
                         f"shape 257 257\nboundary diagonal-plane {a!r} {b!r}\n"
                         "fit-tol 1e-8\nconstraint-tol 1e-6\nforce-tol 1e-6\n")
        with open(check_spec, "w", encoding="ascii") as handle:
            handle.write(f"kind nonholonomic-check\ngrid plane-{k}.grid\n"
                         "constraint builtin example7\nconstraint-tol 1e-6\nforce-tol 1e-6\n")
        solve = _cli_op("spec-solve-257", ("plateau-solve", "--spec", solve_spec, "--out", grid_path),
                        workdir, tracer,
                        _spec_expect({"feasible": "yes", "result": "PASS"},
                                     {"plane-a": a, "plane-b": b}))
        check = _cli_op("spec-check-257", ("nonholonomic-check", "--spec", check_spec),
                        workdir, tracer,
                        _spec_expect({"shape": "257 257", "result": "PASS"}, {}))
        # the grid is written by the first op of a cycle and read mid-cycle
        cycles.append([solve, *scenario_ops[:7], check, *scenario_ops[7:]])
    return cycles


_BUILDERS = {
    "plateau-mild": _build_plateau_mild,
    "plateau-steep": _build_plateau_steep,
    "constraint-check": _build_constraint_check,
    "cli-roundtrip": _build_cli_roundtrip,
}


def build(workload: str, seed: int, workdir: str, tracer=None) -> list:
    """Seeded cycles (lists of ops) of ``workload``; files go under ``workdir``."""
    return _BUILDERS[workload](np.random.default_rng(seed % 2**32), workdir, tracer)

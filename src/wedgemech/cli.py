"""Command-line entry point.

Four subcommands mirror the computational modules: ``plateau-solve``
(unconstrained and constrained minimal graphs), ``nonholonomic-check``
(membership / force-balance verdicts), ``phase-check`` (phase-space
residuals through both canonical maps), and ``classical-el`` (curve
residuals).  A run is driven either by ``--scenario NAME`` (builtin,
fully determined, compared byte-for-byte against a stored golden report)
or by ``--spec PATH`` (a problem spec file; ``--tol`` / ``--max-iter``
override the file's values).

Exit codes, never conflated: 0 pass, 1 usage or spec error, 2 numeric
failure (check failed, solver did not converge, or a golden mismatch).
Golden files regenerate only under the explicit ``--golden-regen`` flag.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .constraints import RankDecisionError, nonholonomic_check, nonholonomic_check_curve
from .fields import (
    FieldDomainError,
    lagrangian_phase_residual,
    morse_family_H,
    hamiltonian_phase_residual,
    nambu_goto,
    plateau_lagrangian,
    quadratic_area_lagrangian,
    quadratic_curve_lagrangian,
)
from .formats import (
    ProblemSpec,
    SpecError,
    builtin_constraint,
    format_float as _f,
    read_constraint_spec,
    read_fiber_metric_table,
    read_grid,
    read_problem_spec,
    write_grid,
)
from .geometry import Bivector, induced_fiber_metric, pair_count
from .plateau import (
    GraphGrid,
    SingularJacobianError,
    SolveOptions,
    solve_constrained_plateau,
    solve_plateau,
)
from .scenarios import run_scenario, scenario_names
from .scenarios import _alpha2_gap, _render_check, _render_solve, _yes_no
from .tulczyjew import PhaseElement2
from .variational import CurveGrid, NodeDomainError, SurfaceGrid, delta_L_curve

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

COMMANDS = ("plateau-solve", "nonholonomic-check", "phase-check", "classical-el")

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wedgemech", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_Parser)
    helps = {
        "plateau-solve": "solve the (constrained) minimal-graph problem",
        "nonholonomic-check": "membership and force-balance check of a sampled candidate",
        "phase-check": "phase-space residuals at a phase element",
        "classical-el": "curve Euler-Lagrange residuals",
    }
    for command in COMMANDS:
        p = sub.add_parser(command, help=helps[command])
        p.add_argument("--scenario", metavar="NAME",
                       help=f"builtin scenario ({', '.join(scenario_names(command))})")
        p.add_argument("--spec", metavar="PATH", help="problem spec file")
        p.add_argument("--out", metavar="PATH",
                       help="plateau-solve: write the solved grid table; otherwise a report copy")
        p.add_argument("--tol", type=float, metavar="REAL",
                       help="override the spec tolerance (spec runs only)")
        p.add_argument("--max-iter", type=int, metavar="INT", dest="max_iter",
                       help="override the spec iteration budget (spec runs only)")
        p.add_argument("--golden-regen", action="store_true", dest="golden_regen",
                       help="rewrite the scenario's stored golden report")
    return parser


def _usage(message: str) -> int:
    print(f"wedgemech: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_out(args, report: str, grid) -> None:
    if not args.out:
        return
    if args.command == "plateau-solve" and grid is not None:
        surface = grid.surface_grid() if isinstance(grid, GraphGrid) else grid
        write_grid(args.out, surface)
    else:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(report)


def _run_builtin(args) -> int:
    if args.tol is not None or args.max_iter is not None:
        return _usage("--tol/--max-iter apply to --spec runs; scenarios are fixed")
    names = scenario_names(args.command)
    if args.scenario not in names:
        return _usage(f"unknown scenario {args.scenario!r} for {args.command}; "
                      f"known: {', '.join(names)}")
    outcome = run_scenario(args.scenario)
    sys.stdout.write(outcome.report)
    _write_out(args, outcome.report, outcome.grid)
    golden = os.path.join(_GOLDEN_DIR, f"{args.scenario}.txt")
    if args.golden_regen:
        os.makedirs(_GOLDEN_DIR, exist_ok=True)
        with open(golden, "w", encoding="ascii") as handle:
            handle.write(outcome.report)
        print(f"wedgemech: golden rewritten: {args.scenario}", file=sys.stderr)
        return EXIT_PASS
    if not os.path.exists(golden):
        return _usage(f"no golden report stored for {args.scenario!r}; "
                      f"regenerate explicitly with --golden-regen")
    with open(golden, "r", encoding="ascii") as handle:
        stored = handle.read()
    if stored != outcome.report:
        print(f"wedgemech: report deviates from the stored golden for "
              f"{args.scenario!r}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS if outcome.passed else EXIT_NUMERIC


_BOUNDARY_HEIGHTS = {
    "scherk": lambda X, Y: np.log(np.cos(Y) / np.cos(X)),
    "diagonal-quadratic": lambda X, Y: (X + Y) ** 2,
}


def _graph_grid_from_spec(spec: ProblemSpec) -> GraphGrid:
    if spec.has("grid"):
        grid = read_grid(spec.get_path("grid"))
        if not isinstance(grid, SurfaceGrid):
            raise SpecError("grid", "plateau problems need a surface grid")
        pts = grid.points
        if pts.shape[-1] != 3:
            raise SpecError("grid", "graph surfaces live in 3 coordinates")
        xs, ys = pts[:, 0, 0], pts[0, :, 1]
        if (np.abs(pts[..., 0] - xs[:, None]).max() > 1e-12
                or np.abs(pts[..., 1] - ys[None, :]).max() > 1e-12):
            raise SpecError("grid", "nodes are not a graph over a uniform rectangle")
        return GraphGrid((xs[0], xs[-1], ys[0], ys[-1]), pts[..., 2])
    for field in ("domain", "shape", "boundary"):
        if not spec.has(field):
            raise SpecError(field, "missing (give grid PATH, or domain/shape/boundary)")
    domain = spec.get_floats("domain", 4)
    shape = spec.get_floats("shape", 2).astype(int)
    tokens = spec.tokens("boundary")
    name = tokens[0]
    if name == "affine":
        a, b, c = (float(t) for t in tokens[1:4]) if len(tokens) == 4 else (None, None, None)
        if a is None:
            raise SpecError("boundary", "affine takes three coefficients: a b c")
        height = lambda X, Y: a * X + b * Y + c
    elif name == "diagonal-plane":
        if len(tokens) != 3:
            raise SpecError("boundary", "diagonal-plane takes two coefficients: a b")
        a, b = float(tokens[1]), float(tokens[2])
        height = lambda X, Y: a * (X + Y) + b
    elif name == "constant":
        if len(tokens) != 2:
            raise SpecError("boundary", "constant takes one value")
        c = float(tokens[1])
        height = lambda X, Y: np.full_like(X, c)
    elif name in _BOUNDARY_HEIGHTS:
        height = _BOUNDARY_HEIGHTS[name]
    else:
        raise SpecError("boundary", f"unknown boundary family {name!r}")
    return GraphGrid.from_boundary(tuple(domain), int(shape[0]), int(shape[1]), height)


def _constraint_from_spec(spec: ProblemSpec, grid):
    """The spec's constraint, checked against the grid it applies to."""
    tokens = spec.tokens("constraint")
    if tokens and tokens[0] == "builtin":
        if len(tokens) != 2:
            raise SpecError("constraint", f"unknown builtin {tokens[1:]}")
        constraint = builtin_constraint(tokens[1], grid.dim)
    else:
        constraint = read_constraint_spec(spec.get_path("constraint"))
    kind = "surface" if isinstance(grid, SurfaceGrid) else "curve"
    if constraint.degree != (2 if kind == "surface" else 1):
        raise SpecError("constraint", f"{kind} grids need a {kind} constraint")
    if constraint.dim != grid.dim:
        raise SpecError("constraint", f"dimension {constraint.dim}, grid dimension {grid.dim}")
    return constraint


def _bivector_lagrangian_from_spec(spec: ProblemSpec, dim: int):
    name = spec.tokens("lagrangian") if spec.has("lagrangian") else ["plateau"]
    if name[0] == "plateau":
        return plateau_lagrangian(dim)
    if name[0] == "nambu-goto":
        return nambu_goto(spec.get_metric())
    if name[0] == "quadratic":
        return quadratic_area_lagrangian(induced_fiber_metric(spec.get_metric()))
    if name[0] == "custom-table":
        if len(name) != 2:
            raise SpecError("lagrangian", "custom-table takes a path")
        return quadratic_area_lagrangian(
            read_fiber_metric_table(os.path.join(spec.base_dir, name[1]))
        )
    raise SpecError("lagrangian", f"unknown lagrangian {name[0]!r}")


def _spec_plateau(spec: ProblemSpec, lines, tol, max_iter):
    grid = _graph_grid_from_spec(spec)
    lines.append(f"kind: {spec.kind}")
    lines.append(f"shape: {grid.shape[0]} {grid.shape[1]}")
    if spec.kind == "plateau":
        opts = SolveOptions(
            tol=tol if tol is not None else spec.get_float("tol", 1e-10),
            max_iter=max_iter if max_iter is not None else spec.get_int("max-iter", 25),
            damping=spec.get_float("damping", 1.0),
        )
        result = solve_plateau(grid, opts)
        _render_solve(lines, result, opts)
        return result.converged, result.grid
    result = solve_constrained_plateau(
        grid,
        fit_tol=spec.get_float("fit-tol", 1e-8),
        constraint_tol=tol if tol is not None else spec.get_float("constraint-tol", 1e-6),
        force_tol=spec.get_float("force-tol", 1e-6),
    )
    lines.append(f"fit-tol: {_f(result.fit_tol)}")
    lines.append(f"plane-a: {_f(result.a)}")
    lines.append(f"plane-b: {_f(result.b)}")
    lines.append(f"fit-residual: {_f(result.fit_residual)}")
    lines.append(f"feasible: {_yes_no(result.feasible)}")
    if not result.feasible:
        lines.append("note: boundary data leaves the z = a(x+y) + b family; no surface")
        return False, None
    _render_check(lines, result.check)
    return result.passed, result.plane


def _spec_nonholonomic(spec: ProblemSpec, lines, tol):
    grid = read_grid(spec.get_path("grid"))
    constraint = _constraint_from_spec(spec, grid)
    constraint_tol = tol if tol is not None else spec.get_float("constraint-tol")
    force_tol = tol if tol is not None else spec.get_float("force-tol", constraint_tol)
    if isinstance(grid, SurfaceGrid):
        L = _bivector_lagrangian_from_spec(spec, grid.dim)
        lines.append(f"shape: {grid.points.shape[0]} {grid.points.shape[1]}")
    else:
        L = quadratic_curve_lagrangian(
            grid.dim, omega=spec.get_float("omega", 0.0), mass=spec.get_float("mass", 1.0)
        )
        lines.append(f"shape: {grid.points.shape[0]}")
    report = nonholonomic_check(L, grid, constraint, constraint_tol, force_tol)
    _render_check(lines, report)
    return report.passed, None


def _spec_phase(spec: ProblemSpec, lines, tol):
    metric_dim = spec.get_metric().dim if spec.has("metric") else 3
    x = spec.get_floats("x", metric_dim)
    dim = x.size
    w = Bivector(spec.get_floats("w", pair_count(dim)), dim)
    L = _bivector_lagrangian_from_spec(spec, dim)
    p = L.momentum(x, w)
    element = PhaseElement2(x, p, w, np.zeros((dim, pair_count(dim))),
                            np.zeros((pair_count(dim), pair_count(dim))))
    tolerance = tol if tol is not None else spec.get_float("tol", 1e-10)
    lines.append("x: " + " ".join(_f(v) for v in x))
    lines.append("w-slots: " + " ".join(_f(v) for v in w.slots))
    lines.append("p-slots: " + " ".join(_f(v) for v in p.slots))
    residual = lagrangian_phase_residual(L, element)
    lines.append(f"lagrangian-force-max: {_f(np.abs(residual.force).max())}")
    lines.append(f"lagrangian-momentum-max: {_f(np.abs(residual.momentum.slots).max())}")
    gap = _alpha2_gap(L, element)
    lines.append(f"alpha2-cross-gap: {_f(gap)}")
    defects = [residual.max_norm, gap]
    if spec.get_str("lagrangian", default="plateau").split()[0] == "nambu-goto":
        family = morse_family_H(spec.get_metric())
        sphere = abs(family.d_r(p))
        lines.append(f"morse-sphere-defect: {_f(sphere)}")
        ham_force, ham_velocity = hamiltonian_phase_residual(
            family.at_r(L.value(x, w)), element
        )
        lines.append(f"hamiltonian-force-max: {_f(np.abs(ham_force).max())}")
        lines.append(f"hamiltonian-velocity-max: {_f(np.abs(ham_velocity.slots).max())}")
        defects += [sphere, float(np.abs(ham_force).max()),
                    float(np.abs(ham_velocity.slots).max())]
    lines.append(f"tol: {_f(tolerance)}")
    return max(defects) <= tolerance, None


def _spec_classical(spec: ProblemSpec, lines, tol):
    grid = read_grid(spec.get_path("curve"))
    if not isinstance(grid, CurveGrid):
        raise SpecError("curve", "classical-el needs a curve grid")
    system = spec.get_str("system", choices=("free", "oscillator"), default="free")
    omega = spec.get_float("omega", 1.0 if system == "oscillator" else 0.0)
    L = quadratic_curve_lagrangian(grid.dim, omega=omega, mass=spec.get_float("mass", 1.0))
    lines.append(f"system: {system}")
    lines.append(f"shape: {grid.points.shape[0]}")
    tolerance = tol if tol is not None else spec.get_float("tol", 1e-10)
    if spec.has("constraint"):
        constraint = _constraint_from_spec(spec, grid)
        report = nonholonomic_check_curve(
            L, grid, constraint, tolerance, spec.get_float("force-tol", tolerance)
        )
        _render_check(lines, report)
        return report.passed, None
    residual = delta_L_curve(L, grid)
    lines.append(f"residual-max: {_f(residual.max_norm())}")
    lines.append(f"tol: {_f(tolerance)}")
    return residual.max_norm() <= tolerance, None


_SPEC_KINDS = {
    "plateau-solve": ("plateau", "constrained-plateau"),
    "nonholonomic-check": ("nonholonomic-check",),
    "phase-check": ("phase-check",),
    "classical-el": ("classical-el",),
}


def _run_spec(args) -> int:
    if args.golden_regen:
        return _usage("--golden-regen applies to builtin scenarios only")
    try:
        spec = read_problem_spec(args.spec)
    except OSError as err:
        return _usage(f"cannot read spec: {err}")
    if spec.kind not in _SPEC_KINDS[args.command]:
        raise SpecError("kind", f"{spec.kind!r} is not handled by {args.command}")
    lines = ["wedgemech report", f"command: {args.command}",
             f"spec: {os.path.basename(args.spec)}"]
    if args.command == "plateau-solve":
        passed, grid = _spec_plateau(spec, lines, args.tol, args.max_iter)
    elif args.command == "nonholonomic-check":
        passed, grid = _spec_nonholonomic(spec, lines, args.tol)
    elif args.command == "phase-check":
        passed, grid = _spec_phase(spec, lines, args.tol)
    else:
        passed, grid = _spec_classical(spec, lines, args.tol)
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    _write_out(args, report, grid)
    return EXIT_PASS if passed else EXIT_NUMERIC


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if bool(args.scenario) == bool(args.spec):
        return _usage("exactly one of --scenario or --spec is required")
    try:
        if args.scenario:
            return _run_builtin(args)
        return _run_spec(args)
    except SpecError as err:
        print(f"wedgemech: spec error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"wedgemech: i/o error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularJacobianError, RankDecisionError, NodeDomainError, FieldDomainError) as err:
        print(f"wedgemech: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Reports of the four commands, for builtin scenarios and problem specs alike.

A report is a frame — ``wedgemech report``, ``command:``, ``scenario:`` or
``spec:``, its body, ``result:`` — around one of five bodies: plateau
solve, constrained plateau, nonholonomic check, phase check and curve
residual.  Each body runs its check and appends its report lines.  A
scenario and a spec differ only in where the inputs come from: a
scenario builds fixed objects in Python and writes its title lines, a
spec parses its file and writes its ``kind:``/``shape:``/``system:``
lines; both then call the same body.  Each builtin scenario is one row of
a table: its command, the function that reports it and that function's
fixed arguments.  Each spec kind is one row of another: the command and
the function that run it and the keys it reads.  A spec's numbers come
from its file alone.  A curve or a surface meets its constraint through
the one ``nonholonomic-check``; ``classical-el`` is the unconstrained
curve residual alone.

Every scenario fixes all of its numbers — domain, resolution, tolerances,
random seed where randomness is part of the point — so a report is a pure
function of the package code.  Floats are printed with 17 significant
digits and no line carries wall-clock or path information, which keeps
repeated runs byte-identical and lets each report serve as a golden file.

The corpus covers the worked examples this package is built around:
minimal graph surfaces (plane, Scherk patch), the symmetric-slope
constrained family where the admissible solutions are the planes
z = a(x+y) + b, phase-space consistency of the area Lagrangians with
their momentum-side description, and the classical n=1 sanity systems.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .constraints import first_axis_drift_constraint, nonholonomic_check, symmetric_slope_constraint
from .fields import (
    CallableBivectorLagrangian,
    MorseFamily,
    lagrangian_phase_residual,
    hamiltonian_phase_residual,
    nambu_goto,
    plateau_lagrangian,
    quadratic_area_lagrangian,
    quadratic_curve_lagrangian,
)
from .formats import (
    SpecError,
    _parse_counts,
    _parse_floats,
    builtin_constraint,
    format_float as _f,
    read_constraint_spec,
    read_fiber_metric_table,
    read_grid,
    read_problem_spec,
)
from .geometry import Bivector, Metric, MomentumBivector, pair_count
from .plateau import GraphGrid, SolveOptions, solve_constrained_plateau, solve_plateau
from .tulczyjew import PhaseElement2, alpha, beta, cotangent_flip
from .variational import CurveGrid, _require_fit, delta_L_curve

__all__ = ["ScenarioOutcome", "run_scenario", "run_spec", "scenario_names"]


@dataclass(frozen=True)
class ScenarioOutcome:
    report: str
    passed: bool
    grid: object = None


def _report(command: str, source: str, body) -> ScenarioOutcome:
    """Frame the lines ``body(lines)`` appends; it returns (passed, solved grid or None)."""
    lines = ["wedgemech report", f"command: {command}", source]
    passed, grid = body(lines)
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return ScenarioOutcome(report="\n".join(lines) + "\n", passed=passed, grid=grid)


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------- bodies


def _solve(lines, grid, opts):
    result = solve_plateau(grid, opts)
    lines.append(f"tol: {_f(opts.tol)}")
    lines.append(f"max-iter: {opts.max_iter}")
    lines.append(f"initial-residual: {_f(result.trace[0])}")
    for k in range(result.iterations):
        lines.append(
            f"iteration: {k + 1} residual {_f(result.trace[k + 1])} damping {_f(result.steps[k])}"
        )
    lines.append(f"converged: {_yes_no(result.converged)}")
    lines.append(f"final-residual: {_f(result.final_residual)}")
    if not result.converged:
        lines.append(f"stop: {result.stop}")
        lines.append(f"residual-floor: {_f(result.residual_floor)}")
    return result


def _render_check(lines, report):
    lines.append(f"constraint-tol: {_f(report.constraint_tol)}")
    lines.append(f"force-tol: {_f(report.force_tol)}")
    lines.append(f"constraint-max: {_f(report.constraint_max)}")
    lines.append("constraint-worst-node: " + " ".join(str(i) for i in report.constraint_worst))
    lines.append(f"dalembert-max: {_f(report.dalembert_max)}")
    lines.append("dalembert-worst-node: " + " ".join(str(i) for i in report.dalembert_worst))
    for k, (lo, hi) in enumerate(report.multiplier_stats(), start=1):
        lines.append(f"multiplier-range: {k} {_f(lo)} {_f(hi)}")
    lines.append(f"constraint-passed: {_yes_no(report.constraint_passed)}")
    lines.append(f"dalembert-passed: {_yes_no(report.dalembert_passed)}")


def _check(lines, L, grid, constraint, constraint_tol, force_tol):
    report = nonholonomic_check(L, grid, constraint, constraint_tol, force_tol)
    _render_check(lines, report)
    return report.passed, None


def _constrained(lines, grid, fit_tol, constraint_tol, force_tol):
    result = solve_constrained_plateau(
        grid, fit_tol=fit_tol, constraint_tol=constraint_tol, force_tol=force_tol
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


def _phase_point(lines, L, x, w: Bivector) -> PhaseElement2:
    """The phase element over (x, w) with L's momentum and zero derivatives."""
    p = L.momentum(x, w)
    lines.append("x: " + " ".join(_f(v) for v in x))
    lines.append("w-slots: " + " ".join(_f(v) for v in w.slots))
    lines.append("p-slots: " + " ".join(_f(v) for v in p.slots))
    k = pair_count(L.dim)
    return PhaseElement2(x, p, w, np.zeros((L.dim, k)), np.zeros((k, k)))


def _phase(lines, L, element, tol: str, family=None, flip=False):
    """Phase residuals of ``element`` and their agreement with the alpha route.

    ``tol`` is the tolerance as the report prints it.  ``family`` (a Morse
    family) adds the Hamiltonian side.  ``flip`` adds the gap between
    alpha and the flipped beta; the element is then arbitrary, so only
    the two route gaps are held to ``tol``.
    """
    x, xdot = element.x, element.xdot
    force, momentum = lagrangian_phase_residual(L, element)
    force_max, momentum_max = float(np.abs(force).max()), float(np.abs(momentum.slots).max())
    lines.append(f"lagrangian-force-max: {_f(force_max)}")
    lines.append(f"lagrangian-momentum-max: {_f(momentum_max)}")
    defects = [] if flip else [max(force_max, momentum_max)]
    if family is not None:
        sphere = abs(family.d_r(element.p))
        ham_force, velocity = hamiltonian_phase_residual(family, element, L.value(x, xdot))
        ham_force_max, velocity_max = float(np.abs(ham_force).max()), float(np.abs(velocity.slots).max())
        lines.append(f"morse-sphere-defect: {_f(sphere)}")
        lines.append(f"hamiltonian-force-max: {_f(ham_force_max)}")
        lines.append(f"hamiltonian-velocity-max: {_f(velocity_max)}")
        defects += [sphere, ham_force_max, velocity_max]
    _, v, a, c = alpha(element)
    gap = max(
        float(np.abs(force - (a - L.gradient_x(x, xdot))).max()),
        float(np.abs((momentum - (c - L.momentum(x, xdot))).slots).max()),
    )
    lines.append(f"alpha2-cross-gap: {_f(gap)}")
    defects.append(gap)
    if flip:
        _, flip_v, flip_a, flip_c = cotangent_flip(beta(element))
        flip_gap = max(
            float(np.abs(a - flip_a).max()),
            float(np.abs((c - flip_c).slots).max()),
            float(np.abs((v - flip_v).slots).max()),
        )
        lines.append(f"alpha-beta-flip-gap: {_f(flip_gap)}")
        defects.append(flip_gap)
    lines.append(f"tol: {tol}")
    return all(d <= float(tol) for d in defects), None


def _curve_residual(lines, L, grid, tol: str):
    """Discrete Euler-Lagrange residual of a curve; ``tol`` as the report prints it."""
    worst = delta_L_curve(L, grid).max_norm()
    lines.append(f"residual-max: {_f(worst)}")
    lines.append(f"tol: {tol}")
    return worst <= float(tol), None


# ---------------------------------------------------------------- scenarios

# boundary families by spec name: coefficient count, their description, z(X, Y) from them
_BOUNDARIES = {
    "affine": (3, "three coefficients: a b c", lambda a, b, c: lambda X, Y: a * X + b * Y + c),
    "diagonal-plane": (2, "two coefficients: a b", lambda a, b: lambda X, Y: a * (X + Y) + b),
    "constant": (1, "one value", lambda c: lambda X, Y: np.full_like(X, c)),
    "scherk": (0, "no coefficients", lambda: lambda X, Y: np.log(np.cos(Y) / np.cos(X))),
    "diagonal-quadratic": (0, "no coefficients", lambda: lambda X, Y: (X + Y) ** 2),
}


def _height(name: str, *coefficients):
    return _BOUNDARIES[name][2](*coefficients)


_UNIT = (0.0, 1.0, 0.0, 1.0)
_SCHERK = (-0.7, 0.7, -0.7, 0.7)


def _exact_solve(lines, surface, domain, n, height, error_tol):
    """Solve with an exact minimal graph as boundary data; report the interior error."""
    lines += ["kind: plateau", f"surface: {surface}", f"shape: {n} {n}"]
    grid = GraphGrid.from_boundary(domain, n, n, height)
    result = _solve(lines, grid, SolveOptions(tol=1e-10, max_iter=25))
    exact = GraphGrid.sample(domain, n, n, height)
    err = float(np.abs(result.grid.z - exact.z)[1:-1, 1:-1].max())
    lines.append(f"interior-max-error: {_f(err)}")
    return result.converged and err < error_tol, result.grid


def _constrained_scenario(lines, label, height):
    lines += ["kind: constrained-plateau", f"boundary: {label}", "shape: 33 33"]
    return _constrained(lines, GraphGrid.from_boundary(_UNIT, 33, 33, height), 1e-8, 1e-6, 1e-6)


def _example7_scenario(lines, height, label, domain, force_tol):
    grid = GraphGrid.sample(domain, 65, 65, height).surface_grid()
    lines.append("constraint: example7 (section e1^e2, generator (e1-e2)^e3)")
    lines.append(f"surface: {label}")
    lines.append("shape: 65 65")
    return _check(lines, plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, force_tol)


def _nambu_goto_euclid(lines):
    g = Metric.euclidean(3)
    L = nambu_goto(g)
    x, w = np.array([0.1, -0.2, 0.3]), Bivector([1.0, 0.25, -0.5], 3)
    lines += ["metric: euclidean 3", "lagrangian: nambu-goto"]
    element = _phase_point(lines, L, x, w)
    lines.append(f"area-density: {_f(L.value(x, w))}")
    return _phase(lines, L, element, "1e-10", MorseFamily(g))


def _zero_field(lines):
    lines += ["lagrangian: identically zero", "element: zero phase element, dimension 3"]
    L = CallableBivectorLagrangian(3, lambda x, w: 0.0)
    return _phase(lines, L, PhaseElement2.zero(3), "1e-12")


def _phase_cross_check(lines):
    rng = np.random.default_rng(20260814)
    dim, k = 3, pair_count(3)
    x = rng.standard_normal(dim)
    element = PhaseElement2(
        x,
        MomentumBivector(rng.standard_normal(k), dim),
        Bivector(rng.standard_normal(k), dim),
        rng.standard_normal((dim, k)),
        (lambda a: a - a.T)(rng.standard_normal((k, k))),
    )
    lines += ["lagrangian: plateau", "element: seeded random phase element, dimension 3"]
    return _phase(lines, plateau_lagrangian(dim), element, "1e-14", flip=True)


def _sampled_curve(lines, system, dim, omega, curve, fn, t_end, nodes, tol):
    lines += [f"system: {system}", f"curve: {curve}, {nodes} nodes"]
    grid = CurveGrid.sample(fn, 0.0, t_end, nodes)
    return _curve_residual(lines, quadratic_curve_lagrangian(dim, omega=omega), grid, tol)


def _constrained_line_scenario(lines, fn, label):
    lines += ["system: free particle, dimension 2",
              "constraint: first-axis drift (section e1, generator e1)",
              f"curve: {label}, 101 nodes"]
    grid = CurveGrid.sample(fn, 0.0, 1.0, 101)
    return _check(lines, quadratic_curve_lagrangian(2), grid, first_axis_drift_constraint(),
                  1e-10, 1e-10)


# each builtin scenario: its command, the body that reports it and the body's arguments
_SCENARIOS = {
    "plane": ("plateau-solve", _exact_solve, (
        "z = 2x - y/2 + 1 on [0,1]x[0,1]", _UNIT, 33, _height("affine", 2.0, -0.5, 1.0), 1e-10)),
    "scherk-65": ("plateau-solve", _exact_solve, (
        "z = log(cos y / cos x) boundary on [-0.7,0.7]^2", _SCHERK, 65, _height("scherk"), 1e-3)),
    "constrained-plane": ("plateau-solve", _constrained_scenario, (
        "z = 2(x+y) - 1 on [0,1]^2", _height("diagonal-plane", 2.0, -1.0))),
    "constrained-quadratic": ("plateau-solve", _constrained_scenario, (
        "z = (x+y)^2 on [0,1]^2", _height("diagonal-quadratic"))),
    "example7-plane": ("nonholonomic-check", _example7_scenario, (
        _height("diagonal-plane", 1.0, 1.0), "z = x + y + 1 on [0,1]^2", _UNIT, 1e-6)),
    "example7-quadratic": ("nonholonomic-check", _example7_scenario, (
        _height("diagonal-quadratic"), "z = (x+y)^2 on [0,1]^2", _UNIT, 5e-3)),
    "example7-scherk": ("nonholonomic-check", _example7_scenario, (
        _height("scherk"), "z = log(cos y / cos x) on [-0.7,0.7]^2", _SCHERK, 5e-3)),
    "nambu-goto-euclid": ("phase-check", _nambu_goto_euclid, ()),
    "zero-field": ("phase-check", _zero_field, ()),
    "phase-cross-check": ("phase-check", _phase_cross_check, ()),
    "free-line": ("classical-el", _sampled_curve, (
        "free particle, dimension 2", 2, 0.0, "(0.2 + t, -0.4 + t/2) on [0,1]",
        lambda t: (0.2 + t, -0.4 + 0.5 * t), 1.0, 101, "1e-12")),
    "oscillator-cos": ("classical-el", _sampled_curve, (
        "harmonic oscillator, omega 1, dimension 1", 1, 1.0, "cos t on [0,2pi]",
        lambda t: (np.cos(t),), 2.0 * np.pi, 1001, "0.001")),
    "constrained-line": ("nonholonomic-check", _constrained_line_scenario, (
        lambda t: (t, 0.7), "(t, 0.7) on [0,1]")),
    "constrained-line-violating": ("nonholonomic-check", _constrained_line_scenario, (
        lambda t: (t, t), "(t, t) on [0,1]")),
}


def scenario_names(command: str | None = None) -> list:
    return sorted(n for n, (c, _, _) in _SCENARIOS.items() if command is None or c == command)


def run_scenario(name: str) -> ScenarioOutcome:
    command, body, arguments = _SCENARIOS[name]
    return _report(command, f"scenario: {name}", lambda lines: body(lines, *arguments))


# ---------------------------------------------------------------- specs


def _graph_grid(spec) -> GraphGrid:
    if spec.has("grid"):
        grid = read_grid(spec.get_path("grid"))
        if grid.degree != 2:
            raise SpecError("grid", "plateau problems need a surface grid")
        pts = grid.points
        if pts.shape[-1] != 3:
            raise SpecError("grid", "graph surfaces live in 3 coordinates")
        try:  # the rectangle of the corner nodes, whose nodes must be the file's
            corners = (pts[0, 0, 0], pts[-1, 0, 0], pts[0, 0, 1], pts[0, -1, 1])
            graph = GraphGrid(corners, pts[..., 2])
            nodes = graph.surface_grid().points
        except ValueError as err:  # descending coordinates, or steps too large or small to square
            raise SpecError("grid", str(err)) from err
        # from_graph's tolerance: atol scales with each coordinate's magnitude
        if not np.allclose(nodes, pts, rtol=1e-12, atol=1e-14 * np.abs(pts).max(axis=(0, 1))):
            raise SpecError("grid", "nodes are not a graph over a uniform rectangle")
        return graph
    for field in ("domain", "shape", "boundary"):
        if not spec.has(field):
            raise SpecError(field, "missing (give grid PATH, or domain/shape/boundary)")
    domain = spec.get_floats("domain", 4)
    shape = _parse_counts("shape", spec.tokens("shape"), 2)
    name, *values = spec.tokens("boundary")
    if name not in _BOUNDARIES:
        raise SpecError("boundary", f"unknown boundary family {name!r}")
    count, takes, family = _BOUNDARIES[name]
    if len(values) != count:
        raise SpecError("boundary", f"{name} takes {takes}")
    height = family(*_parse_floats("boundary", values))
    if min(shape) < 5:
        raise SpecError("shape", f"need at least 5 nodes per axis, got {shape[0]} {shape[1]}")
    try:
        with np.errstate(invalid="ignore", divide="ignore"):  # non-finite heights are rejected
            return GraphGrid.from_boundary(tuple(domain), *shape, height)
    except ValueError as err:  # a degenerate rectangle, or heights not finite on it
        raise SpecError("domain", f"{err} (boundary {name})") from err
    except MemoryError as err:
        raise SpecError("shape", f"{shape[0]} x {shape[1]} nodes do not fit in memory") from err


def _constraint(spec, grid):
    """The spec's constraint, checked against the grid it applies to."""
    tokens = spec.tokens("constraint")
    if tokens and tokens[0] == "builtin":
        if len(tokens) != 2:
            raise SpecError("constraint", f"unknown builtin {tokens[1:]}")
        constraint = builtin_constraint(tokens[1], grid.dim)
    else:
        constraint = read_constraint_spec(spec.get_path("constraint"))
    try:
        _require_fit(constraint, grid, "constraint")
    except ValueError as err:
        raise SpecError("constraint", str(err)) from err
    return constraint


def _from_metric(spec, build):
    """``build(metric)`` for the spec's metric; fiber-metric minors that overflow, or a slot
    matrix memory cannot hold, are faults of the metric."""
    metric, tokens = spec.get_metric(), " ".join(spec.tokens("metric"))
    try:
        return build(metric)
    except ValueError as err:  # FiberMetric's "coefficients must be finite"
        raise SpecError("metric", f"{tokens}: fiber metric {err}") from err
    except MemoryError as err:
        raise SpecError("metric", f"{tokens}: its fiber metric does not fit in memory") from err


def _lagrangian(spec, dim: int, against: str):
    """``(name, L)``: the spec's bivector Lagrangian, of the dimension ``dim`` of ``against``."""
    name, *rest = spec.tokens("lagrangian") if spec.has("lagrangian") else ["plateau"]

    def mismatch(other: int) -> SpecError:
        return SpecError("lagrangian", f"{name} has dimension {other}, the {against} has {dim}")

    if name not in ("plateau", "nambu-goto", "custom-table"):
        raise SpecError("lagrangian", f"unknown lagrangian {name!r}")
    if name == "custom-table" and len(rest) != 1:
        raise SpecError("lagrangian", "custom-table takes a path")
    if name != "custom-table" and rest:
        raise SpecError("lagrangian", f"{name} takes no arguments, got {' '.join(rest)!r}")
    if name == "plateau":
        L = plateau_lagrangian(dim)
    elif name == "nambu-goto":
        if (metric_dim := spec.get_metric().dim) != dim:  # refused before any slot matrix
            raise mismatch(metric_dim)
        L = _from_metric(spec, nambu_goto)
    else:
        L = quadratic_area_lagrangian(read_fiber_metric_table(os.path.join(spec.base_dir, rest[0])))
    if L.dim != dim:
        raise mismatch(L.dim)
    return name, L


def _spec_constrained_plateau(spec, lines):
    grid = _graph_grid(spec)
    lines += [f"kind: {spec.kind}", f"shape: {grid.shape[0]} {grid.shape[1]}"]
    return _constrained(lines, grid, spec.get_tol("fit-tol", 1e-8),
                        spec.get_tol("constraint-tol", 1e-6), spec.get_tol("force-tol", 1e-6))


def _spec_plateau(spec, lines):
    grid = _graph_grid(spec)
    lines += [f"kind: {spec.kind}", f"shape: {grid.shape[0]} {grid.shape[1]}"]
    # read before the try, so that only SolveOptions' own ValueError is mapped
    tol, max_iter = spec.get_tol("tol", 1e-10), spec.get_int("max-iter", 25)
    try:
        opts = SolveOptions(tol=tol, max_iter=max_iter)
    except ValueError as err:  # get_tol passed only a positive tol: max_iter is below 1
        raise SpecError("max-iter", str(err)) from err
    result = _solve(lines, grid, opts)
    return result.converged, result.grid


def _spec_nonholonomic(spec, lines):
    grid = read_grid(spec.get_path("grid"))
    for key, number in spec.lines.items():  # the Lagrangian keys of the other degree
        if key in (("lagrangian", "metric"), ("omega", "mass"))[grid.degree - 1]:
            raise SpecError(key, f"line {number}: a nonholonomic-check spec does not read "
                                 f"this key on a degree-{grid.degree} grid")
    constraint = _constraint(spec, grid)
    constraint_tol = spec.get_tol("constraint-tol")
    force_tol = spec.get_tol("force-tol", constraint_tol)
    if grid.degree == 2:
        _, L = _lagrangian(spec, grid.dim, "grid")
    else:
        L = quadratic_curve_lagrangian(grid.dim, omega=spec.get_float("omega", 0.0),
                                       mass=spec.get_float("mass", 1.0))
    lines.append("shape: " + " ".join(str(n) for n in grid.points.shape[:-1]))
    return _check(lines, L, grid, constraint, constraint_tol, force_tol)


def _spec_phase(spec, lines):
    x = spec.get_floats("x", spec.get_metric().dim if spec.has("metric") else 3)
    w = Bivector(spec.get_floats("w", pair_count(x.size)), x.size)
    name, L = _lagrangian(spec, x.size, "point x")
    element = _phase_point(lines, L, x, w)
    tolerance = spec.get_tol("tol", 1e-10)
    family = _from_metric(spec, MorseFamily) if name == "nambu-goto" else None
    return _phase(lines, L, element, _f(tolerance), family)


def _spec_classical(spec, lines):
    grid = read_grid(spec.get_path("curve"))
    if grid.degree != 1:
        raise SpecError("curve", "classical-el needs a curve grid")
    system = " ".join(spec.tokens("system")) if spec.has("system") else "free"
    if system not in ("free", "oscillator"):
        raise SpecError("system", f"expected one of free, oscillator; got {system!r}")
    omega = spec.get_float("omega", 1.0 if system == "oscillator" else 0.0)
    if (system == "free") != (omega == 0.0):
        need = "omega 0" if system == "free" else "a nonzero omega"
        raise SpecError("omega", f"line {spec.lines['omega']}: system {system} needs {need}, got {omega!r}")
    L = quadratic_curve_lagrangian(grid.dim, omega=omega, mass=spec.get_float("mass", 1.0))
    lines += [f"system: {system}", f"shape: {grid.points.shape[0]}"]
    return _curve_residual(lines, L, grid, _f(spec.get_tol("tol", 1e-10)))


# each command's help line
_COMMANDS = {
    "plateau-solve": "solve the (constrained) minimal-graph problem",
    "nonholonomic-check": "membership and force-balance check of a sampled candidate",
    "phase-check": "phase-space residuals at a phase element",
    "classical-el": "curve Euler-Lagrange residuals",
}

# each spec kind: the command and the function that run it, the keys it reads besides ``kind``
_GRAPH = "grid domain shape boundary"
_KINDS = {
    "plateau": ("plateau-solve", _spec_plateau, f"{_GRAPH} tol max-iter"),
    "constrained-plateau": ("plateau-solve", _spec_constrained_plateau,
                            f"{_GRAPH} fit-tol constraint-tol force-tol"),
    "nonholonomic-check": ("nonholonomic-check", _spec_nonholonomic,
                           "grid constraint lagrangian metric omega mass constraint-tol force-tol"),
    "phase-check": ("phase-check", _spec_phase, "metric lagrangian x w tol"),
    "classical-el": ("classical-el", _spec_classical, "curve system omega mass tol"),
}


def run_spec(command: str, path) -> ScenarioOutcome:
    """Run the problem spec file at ``path`` through ``command``.

    A key the spec's kind does not read is refused.  Input faults raise `SpecError`;
    an unreadable file raises `OSError`.
    """
    spec = read_problem_spec(path)
    kinds = [kind for kind, row in _KINDS.items() if row[0] == command]
    if spec.kind not in kinds:
        raise SpecError("kind", f"{spec.kind!r} is not handled by {command}, which runs "
                                f"{', '.join(kinds)}")
    _, run, keys = _KINDS[spec.kind]
    for key, number in spec.lines.items():
        if key not in ("kind", *keys.split()):
            raise SpecError(key, f"line {number}: a {spec.kind} spec does not read this key")
    return _report(command, f"spec: {os.path.basename(path)}", lambda lines: run(spec, lines))

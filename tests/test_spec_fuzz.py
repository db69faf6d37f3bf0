"""Mutated problem specs: `wedgemech` refuses a broken spec with a named
field (exit 1) or runs it (exit 0 or 2), never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_lines
from wedgemech.cli import main
from wedgemech.formats import write_grid
from wedgemech.variational import CurveGrid, SurfaceGrid

# counts and tolerances at and past their limits, not finite (1e400 parses to
# inf), not a number, not an integer, past int64; no large count an array could
# still hold
_REPLACEMENTS = ("-1", "0", "1", "nan", "inf", "-inf", "1e400", "abc", "1.5",
                 "123456789012345678901234567890")

# one spec per problem kind with the command that runs it, named by the kind
# (the plain plateau spec by its command), and the curve check; the
# nonholonomic and classical specs read the grids `spec_grids` writes
_SPECS = {
    "phase-check": ("phase-check", (
        "kind phase-check\nmetric euclidean 3\nlagrangian nambu-goto\n"
        "x 0.1 -0.2 0.3\nw 1.0 0.25 -0.5\ntol 1e-10\n"
    )),
    "plateau-solve": ("plateau-solve", (
        "kind plateau\ndomain -0.5 0.5 -0.5 0.5\nshape 9 9\nboundary affine 0.5 -0.25 1\n"
        "tol 1e-10\nmax-iter 25\ndamping 1\n"
    )),
    "constrained-plateau": ("plateau-solve", (
        "kind constrained-plateau\ndomain 0 1 0 1\nshape 9 9\nboundary diagonal-plane 2 -1\n"
        "fit-tol 1e-9\nconstraint-tol 1e-5\nforce-tol 1e-4\n"
    )),
    "nonholonomic-check": ("nonholonomic-check", (
        "kind nonholonomic-check\ngrid plane.grid\nconstraint builtin example7\n"
        "lagrangian nambu-goto\nmetric euclidean 3\nconstraint-tol 1e-6\nforce-tol 1e-6\n"
    )),
    "nonholonomic-check-curve": ("nonholonomic-check", (
        "kind nonholonomic-check\ngrid line.grid\nconstraint builtin first-axis-drift\n"
        "omega 1\nmass 1\nconstraint-tol 1e-8\nforce-tol 1e-6\n"
    )),
    "classical-el": ("classical-el", (
        "kind classical-el\ncurve line.grid\nsystem oscillator\nomega 1\nmass 1\ntol 1e-8\n"
    )),
}


@pytest.fixture(scope="module")
def spec_grids(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec-grids")
    write_grid(path / "plane.grid",
               SurfaceGrid.sample(lambda t, s: (t, s, 0.5 * (t + s)), (0.0, 1.0, 5), (0.0, 1.0, 5)))
    write_grid(path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    return path


@pytest.mark.parametrize("name", sorted(_SPECS))
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_mutated_spec_exits_with_a_code(spec_grids, name, data):
    command, text = _SPECS[name]
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate_lines(lines, data, _REPLACEMENTS)
    path = spec_grids / f"mutated-{name}.spec"
    path.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--spec", str(path)])
    assert code in (0, 1, 2)


# finite numbers near the ends of the double range: large ones whose squares
# overflow (1e155 is past the square root of the largest double), a tiny one
# whose square underflows, and the smallest subnormal
_EXTREMES = ("1e300", "-1e300", "1e-300", "1e155", "5e-324")

# one spec per command, the surface check with an induced-metric Lagrangian,
# the curve check, and the two commands that build fiber metrics once more
# from an explicit metric; they read the grids `spec_grids` writes
_EXPLICIT = "metric explicit 1 0 0 0 1 0 0 0 1\n"
_EXTREME_SPECS = {
    "plateau-solve": ("plateau-solve", (
        "kind plateau\ndomain -0.5 0.5 -0.5 0.5\nshape 9 9\nboundary affine 0.5 -0.25 1\n"
        "tol 1e-10\nmax-iter 25\ndamping 1\n"
    )),
    "nonholonomic-check": ("nonholonomic-check", (
        "kind nonholonomic-check\ngrid plane.grid\nconstraint builtin example7\n"
        "lagrangian nambu-goto\nmetric euclidean 3\nconstraint-tol 1e-6\nforce-tol 1e-6\n"
    )),
    "nonholonomic-check-curve": ("nonholonomic-check", (
        "kind nonholonomic-check\ngrid line.grid\nconstraint builtin first-axis-drift\n"
        "omega 1\nmass 1\nconstraint-tol 1e-8\nforce-tol 1e-6\n"
    )),
    "nonholonomic-check-explicit-metric": ("nonholonomic-check", (
        "kind nonholonomic-check\ngrid plane.grid\nconstraint builtin example7\n"
        f"lagrangian nambu-goto\n{_EXPLICIT}constraint-tol 1e-6\nforce-tol 1e-6\n"
    )),
    "phase-check": ("phase-check", (
        "kind phase-check\nmetric euclidean 3\nlagrangian nambu-goto\n"
        "x 0.1 -0.2 0.3\nw 1.0 0.25 -0.5\ntol 1e-10\n"
    )),
    "phase-check-explicit-metric": ("phase-check", (
        f"kind phase-check\n{_EXPLICIT}lagrangian nambu-goto\n"
        "x 0.1 -0.2 0.3\nw 1.0 0.25 -0.5\ntol 1e-10\n"
    )),
    "classical-el": ("classical-el", (
        "kind classical-el\ncurve line.grid\nsystem oscillator\nomega 1\nmass 1\ntol 1e-8\n"
    )),
}


@pytest.mark.parametrize("name", sorted(_EXTREME_SPECS))
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(data=st.data())
def test_spec_with_extreme_numbers_exits_with_a_code(spec_grids, name, data):
    command, text = _EXTREME_SPECS[name]
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate_lines(lines, data, _EXTREMES)
    path = spec_grids / f"extreme-{name}.spec"
    path.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--spec", str(path)])
    assert code in (0, 1, 2)

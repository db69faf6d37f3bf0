"""Mutated constraint files and fiber-metric tables: reading one gives its
object or a `SpecError`, and a command that reads it exits 0, 1 or 2,
never with a traceback.  A generator built by `wedge` at every node checks
as the same generator given once, as a constant."""

import contextlib
import io
import re
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_lines
from wedgemech.cli import main
from wedgemech.constraints import AffineConstraint2, RankDecisionError, nonholonomic_check
from wedgemech.fields import plateau_lagrangian
from wedgemech.formats import SpecError, read_constraint_spec, read_fiber_metric_table, write_grid
from wedgemech.geometry import Bivector, wedge
from wedgemech.variational import CurveGrid, SurfaceGrid

# dimensions and indices at and past their limits, not finite, not a number,
# not an integer, past int64
_REPLACEMENTS = ("-1", "0", "nan", "inf", "abc", "1.5", "123456789012345678901234567890")

# (constraint file, command, spec reading it), two per degree
_CASES = {
    "surface-explicit": (
        "kind surface\ndimension 3\nsection 1 3 0.5 2 3 0.5\ngenerator 1 2 1\n"
        "generator 1 3 1 2 3 -1\n",
        "nonholonomic-check",
        "kind nonholonomic-check\ngrid plane.grid\nconstraint mutated.constraint\n"
        "constraint-tol 1e-6\n",
    ),
    "surface-example7": (  # section e1^e2, generator (e1 - e2)^e3
        "kind surface\ndimension 3\nsection 1 2 1\ngenerator 1 3 1 2 3 -1\n",
        "nonholonomic-check",
        "kind nonholonomic-check\ngrid plane.grid\nconstraint mutated.constraint\n"
        "constraint-tol 1e-6\n",
    ),
    "curve-explicit": (
        "kind curve\ndimension 2\nsection 1 1\ngenerator 1 1\n",
        "nonholonomic-check",
        "kind nonholonomic-check\ngrid line.grid\nconstraint mutated.constraint\n"
        "constraint-tol 1e-8\n",
    ),
    "curve-first-axis-drift": (  # every component written out, zeros included
        "kind curve\ndimension 2\nsection 1 1 2 0\ngenerator 1 1 2 0\n",
        "nonholonomic-check",
        "kind nonholonomic-check\ngrid line.grid\nconstraint mutated.constraint\n"
        "constraint-tol 1e-8\n",
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("constraint-fuzz")
    write_grid(path / "plane.grid",
               SurfaceGrid.sample(lambda t, s: (t, s, 0.5 * (t + s)), (0.0, 1.0, 5), (0.0, 1.0, 5)))
    write_grid(path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    return path


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_mutated_constraint_file_is_read_or_refused(workdir, case, data):
    text, command, spec = _CASES[case]
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate_lines(lines, data, _REPLACEMENTS)
    path = workdir / "mutated.constraint"
    path.write_text("\n".join(lines) + "\n")
    try:
        read_constraint_spec(path)
    except SpecError:
        pass
    (workdir / f"{case}.spec").write_text(spec)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--spec", str(workdir / f"{case}.spec")])
    assert code in (0, 1, 2)


# a fiber-metric table read as a custom-table Lagrangian; it has its own
# test because its reader differs, and editing the test above would change
# the examples hypothesis derives from that test's source
_TABLE = "dimension 3\nentry 1 2 1 2 1\nentry 1 3 1 3 1\nentry 2 3 2 3 1\nentry 1 2 1 3 0.25\n"
_TABLE_SPEC = ("kind phase-check\nlagrangian custom-table mutated.table\nx 0.1 -0.2 0.3\n"
               "w 1 0.25 -0.5\ntol 1e-8\n")


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_mutated_fiber_table_is_read_or_refused(workdir, data):
    lines = _TABLE.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate_lines(lines, data, _REPLACEMENTS)
    path = workdir / "mutated.table"
    path.write_text("\n".join(lines) + "\n")
    try:
        read_fiber_metric_table(path)
    except SpecError:
        pass
    (workdir / "table.spec").write_text(_TABLE_SPEC)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["phase-check", "--spec", str(workdir / "table.spec")])
    assert code in (0, 1, 2)


# vector entries at the edges of `wedge`: signed zeros, a subnormal, values whose
# products underflow or overflow, among plain numbers; a non-finite entry is drawn
# on its own, as is a second generator that nearly repeats the first
_ENTRIES = st.one_of(st.floats(0.5, 4.0), st.floats(-4.0, -0.5),
                     st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 1e155, 1e200]))
_PLANE = SurfaceGrid.sample(lambda t, s: (t, s, 0.5 * (t + s)), (0.0, 1.0, 5), (0.0, 1.0, 5))


def _outcome(build):
    """The report of a surface check of ``build()`` on `_PLANE`, as the bytes of its
    arrays and its verdicts, or its error's type and message without the node it names."""
    try:
        report = nonholonomic_check(plateau_lagrangian(), _PLANE, build(), 1e-6)
    except (ValueError, RankDecisionError) as err:
        return type(err).__name__, re.sub(r" at x = \[[^]]*\]", "", str(err))
    return (report.constraint_residuals.tobytes(), report.multipliers.tobytes(),
            report.orthogonal_norms.tobytes(), report.constraint_passed, report.dalembert_passed)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(pairs=st.lists(st.tuples(*[st.lists(_ENTRIES, min_size=3, max_size=3)] * 2),
                      min_size=1, max_size=2),
       nudge=st.sampled_from([None] * 3 + [0.0, 5e-16, 2e-15, 5e-15, 1e-13]),
       poison=st.sampled_from([None] * 5 + [(0, inf), (4, -inf), (2, nan)]))
def test_pointwise_wedge_generator_matches_its_constant(pairs, nudge, poison):
    if nudge is not None:  # (v, u + nudge w) after (v, u): dependent, ambiguous or not
        (v, u), (_, w) = pairs[0], pairs[-1]
        pairs = [pairs[0], (v, [a + nudge * b for a, b in zip(u, w)])]
    if poison is not None:
        k, value = poison
        pairs[0][k // 3][k % 3] = value
    section = Bivector([1.0, 0.0, 0.0], 3)
    pointwise = [lambda x, v=v, u=u: wedge(np.array(v), np.array(u)) for v, u in pairs]
    got = _outcome(lambda: AffineConstraint2(3, section, pointwise))
    want = _outcome(lambda: AffineConstraint2(3, section, [wedge(v, u) for v, u in pairs]))
    assert got == want

"""Mutated grid files: reading one gives a grid or a `SpecError`, and a
check that reads it exits 0, 1 or 2, never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_lines
from wedgemech.cli import main
from wedgemech.formats import SpecError, read_grid, write_grid
from wedgemech.variational import SurfaceGrid

# tokens that break a grid file in different ways: negative, not finite, not
# a number, not an integer, past int64.  Hypothesis draws early entries of a
# choice more often, so the quiet ones (a negative or NaN step) come first.
_REPLACEMENTS = ("-1", "nan", "abc", "1.5", "123456789012345678901234567890")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.5 * (t + s)), (0.0, 1.0, 5), (0.0, 1.0, 5))
    write_grid(path / "valid.grid", grid)
    (path / "check.spec").write_text(
        "kind nonholonomic-check\ngrid mutated.grid\nconstraint builtin example7\n"
        "constraint-tol 1e-6\n"
    )
    return path


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_mutated_grid_file_is_read_or_refused(workdir, data):
    lines = (workdir / "valid.grid").read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate_lines(lines, data, _REPLACEMENTS)
    path = workdir / "mutated.grid"
    path.write_text("\n".join(lines) + "\n")
    try:
        read_grid(path)
    except SpecError:
        pass
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["nonholonomic-check", "--spec", str(workdir / "check.spec")])
    assert code in (0, 1, 2)

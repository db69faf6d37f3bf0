"""Grid tables, constraint files, and problem specs: round trips and rejects."""

import time
import tracemalloc

import numpy as np
import pytest

from conftest import dense_fiber_metric
from wedgemech import formats
from wedgemech.cli import main
from wedgemech.formats import (
    SpecError,
    format_float,
    read_constraint_spec,
    read_fiber_metric_table,
    read_grid,
    read_problem_spec,
    write_grid,
)
from wedgemech.geometry import FiberMetric
from wedgemech.variational import CurveGrid, SurfaceGrid


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.standard_normal(50), 10.0 ** rng.uniform(-300, 300, 50)])
    for v in values:
        assert float(format_float(v)) == v


def test_surface_grid_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = SurfaceGrid.sample(
        lambda t, s: (t, s, np.sin(t) * s + rng.standard_normal()), (0.0, 1.0, 7), (-1.0, 1.0, 5)
    )
    path = tmp_path / "surface.grid"
    write_grid(path, grid)
    back = read_grid(path)
    assert isinstance(back, SurfaceGrid)
    assert back.dt == grid.dt and back.ds == grid.ds
    assert np.array_equal(back.points, grid.points)


def test_curve_grid_round_trip(tmp_path):
    grid = CurveGrid.sample(lambda t: (np.cos(t), np.sin(t), t / 3.0), 0.0, 2.0, 31)
    path = tmp_path / "curve.grid"
    write_grid(path, grid)
    back = read_grid(path)
    assert isinstance(back, CurveGrid)
    assert back.dt == grid.dt
    assert np.array_equal(back.points, grid.points)


def test_write_grid_rejects_other_types(tmp_path):
    with pytest.raises(TypeError, match="ndarray"):
        write_grid(tmp_path / "x.grid", np.zeros((3, 3)))


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda lines: [l for l in lines if not l.startswith("# step")], "step"),
        (lambda lines: lines[:-1], "shape"),
        (lambda lines: lines[:3] + ["k j x1 x2 x3"] + lines[4:], "header"),
        (lambda lines: lines[:-1] + ["9 9 0 0 0"], "rows"),
        pytest.param(lambda lines: lines[:-1] + ["4 1.5 0 0 0"], "rows", id="rows-non-integer"),
        (lambda lines: ["# kind blob"] + lines[1:], "kind"),
        (lambda lines: [lines[0]] + lines, "kind"),
        pytest.param(lambda lines: [l.replace("# step 0.25", "# step -0.25") for l in lines],
                     "step", id="step-negative"),
        pytest.param(lambda lines: [l.replace("# step 0.25", "# step nan") for l in lines],
                     "step", id="step-nan"),
        pytest.param(lambda lines: [l.replace("# shape 5", "# shape 5.5") for l in lines],
                     "shape", id="shape-fraction"),
        pytest.param(lambda lines: [l.replace("# shape 5", "# shape nan") for l in lines],
                     "shape", id="shape-nan"),
    ],
)
def test_read_grid_names_offending_field(tmp_path, mutate, field):
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.0), (0.0, 1.0, 5), (0.0, 1.0, 5))
    write_grid(tmp_path / "ok.grid", grid)
    lines = (tmp_path / "ok.grid").read_text().splitlines()
    bad = _write(tmp_path / "bad.grid", "\n".join(mutate(lines)) + "\n")
    with pytest.raises(SpecError) as err:
        read_grid(bad)
    assert err.value.field == field
    assert str(err.value).startswith(field + ":")


def test_read_grid_detects_missing_node(tmp_path):
    # row count matches the declared shape but one node is written twice
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 1.0), (0.0, 1.0, 5), (0.0, 1.0, 5))
    write_grid(tmp_path / "ok.grid", grid)
    lines = (tmp_path / "ok.grid").read_text().splitlines()
    lines[-1] = lines[-2]
    with pytest.raises(SpecError, match=r"^rows: node \(4, 4\) is missing$"):
        read_grid(_write(tmp_path / "dup.grid", "\n".join(lines) + "\n"))


def _grid_9x9_lines(tmp_path):
    """The lines of a 9 x 9 surface grid file; row (i, j) is line 5 + 9 i + j."""
    grid = SurfaceGrid.sample(lambda t, s: (t, s, t * s), (0.0, 1.0, 9), (0.0, 1.0, 9))
    write_grid(tmp_path / "ok.grid", grid)
    return (tmp_path / "ok.grid").read_text().splitlines()


def test_read_grid_skips_a_bare_comment_line(tmp_path):
    lines = _grid_9x9_lines(tmp_path)
    lines[1:1] = ["#", "#   "]  # among the metadata lines, and another before the rows
    lines.insert(8, "#")
    back = read_grid(_write(tmp_path / "bare.grid", "\n".join(lines) + "\n"))
    assert np.array_equal(back.points, read_grid(tmp_path / "ok.grid").points)


def test_read_grid_names_the_row_of_a_non_finite_node(tmp_path):
    lines = _grid_9x9_lines(tmp_path)
    number = 5 + 9 * 3 + 4
    tokens = lines[number - 1].split()
    assert tokens[:2] == ["3", "4"]
    lines[number - 1] = " ".join(tokens[:4] + ["nan"])
    with pytest.raises(SpecError) as err:
        read_grid(_write(tmp_path / "nan.grid", "\n".join(lines) + "\n"))
    assert str(err.value) == (f"rows: line {number}: expected finite numbers, "
                              f"got {tokens[2:4] + ['nan']}")


def test_read_grid_names_the_node_a_duplicated_index_leaves_missing(tmp_path):
    # row (3, 4) is written with the index of row (3, 3): node (3, 4) has no row
    lines = _grid_9x9_lines(tmp_path)
    number = 5 + 9 * 3 + 4
    lines[number - 1] = " ".join(["3", "3"] + lines[number - 1].split()[2:])
    with pytest.raises(SpecError) as err:
        read_grid(_write(tmp_path / "dup.grid", "\n".join(lines) + "\n"))
    assert str(err.value) == "rows: node (3, 4) is missing"


def test_read_curve_grid_names_its_missing_node(tmp_path):
    write_grid(tmp_path / "ok.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 9))
    lines = (tmp_path / "ok.grid").read_text().splitlines()
    lines[5] = "0" + lines[5][1:]  # the row of node 1 repeats index 0
    with pytest.raises(SpecError) as err:
        read_grid(_write(tmp_path / "dup.grid", "\n".join(lines) + "\n"))
    assert str(err.value) == "rows: node 1 is missing"


def test_read_grid_curve_header_check(tmp_path):
    text = "# kind curve\n# shape 2\n# step 0.5\nj x1\n0 1.0\n1 2.0\n"
    with pytest.raises(SpecError, match="header"):
        read_grid(_write(tmp_path / "c.grid", text))


def test_read_grid_curve_index_must_be_integer(tmp_path):
    text = "# kind curve\n# shape 2\n# step 0.5\ni x1\n0 1.0\n1.5 2.0\n"
    with pytest.raises(SpecError, match="rows: line 6: indices must be integers"):
        read_grid(_write(tmp_path / "c.grid", text))


def _node_by_node(kind, shape, steps, points):
    """A grid file rendered one node and one `format_float` value at a time."""
    names = ["i", "j"][: len(shape)] + [f"x{k + 1}" for k in range(points.shape[-1])]
    lines = [
        f"# kind {kind}",
        "# shape " + " ".join(str(n) for n in shape),
        "# step " + " ".join(format_float(h) for h in steps),
        " ".join(names),
    ]
    for index in np.ndindex(*shape):
        lines.append(" ".join([str(i) for i in index] + [format_float(v) for v in points[index]]))
    return "\n".join(lines) + "\n"


# the last two span several write blocks, the last of them only in part
@pytest.mark.parametrize("kind, shape", [("surface", (6, 5)), ("curve", (7,)), ("surface", (45, 47)),
                                         ("curve", (2 * formats._WRITE_BLOCK + 3,))],
                         ids=["surface", "curve", "surface-blocks", "curve-blocks"])
def test_write_grid_matches_node_by_node_formatting(tmp_path, kind, shape):
    rng = np.random.default_rng(17)
    points = rng.standard_normal(shape + (3,)) * 10.0 ** rng.integers(-300, 300, shape + (3,))
    points.flat[:5] = [-0.0, 5e-324, 1e308, -1e308, 0.1]
    steps = (0.1, 1.0 / 3.0) if kind == "surface" else (1.0 / 3.0,)
    grid = SurfaceGrid(*steps, points) if kind == "surface" else CurveGrid(*steps, points)
    path = tmp_path / "g.grid"
    write_grid(path, grid)
    assert path.read_bytes() == _node_by_node(kind, shape, steps, points).encode("ascii")
    assert np.array_equal(read_grid(path).points, points)


def _case(lines, number, edit):
    """``lines`` with file line ``number`` (1-based) replaced by ``edit`` of its tokens."""
    return [" ".join(edit(line.split())) if n == number else line
            for n, line in enumerate(lines, start=1)]


# each file's exit code and message are those of the line-by-line reader the bulk parse
# stands in for; "same" marks a file that reads as the grid it was written from
_READER_CASES = {
    "metadata-after-table": (lambda L: L[:2] + L[3:] + [L[2]], 0, "same"),
    "comment-among-rows": (lambda L: L[:30] + ["# note written mid-table"] + L[30:], 0, "same"),
    "bare-comments-among-rows": (lambda L: L[:30] + ["#", "  #  "] + L[30:], 0, "same"),
    "metadata-repeated-among-rows": (lambda L: L[:30] + ["# kind surface"] + L[30:], 1,
                                     "kind: duplicate metadata line"),
    "blank-lines": (lambda L: L[:2] + [""] + L[2:4] + ["   ", "\t"] + L[4:40] + [""] + L[40:],
                    0, "same"),
    "blank-lines-then-fault": (lambda L: [""] + L[:40] + ["  "] + _case(L, 60, lambda t: t[:-1])[40:],
                               1, "rows: line 62: expected 5 columns"),
    "duplicate-node": (lambda L: _case(L, 36, lambda t: ["3", "3"] + t[2:]), 1,
                       "rows: node (3, 4) is missing"),
    "missing-node": (lambda L: L[:49] + L[50:], 1, "shape: declares 81 rows, table has 80"),
    "index-out-of-range": (lambda L: _case(L, 30, lambda t: ["9"] + t[1:]), 1,
                           "rows: line 30: index (9, 7) outside shape"),
    "index-1.5": (lambda L: _case(L, 30, lambda t: ["1.5"] + t[1:]), 1,
                  "rows: line 30: indices must be integers, got ['1.5', '7']"),
    "column-count": (lambda L: _case(L, 60, lambda t: t[:-1]), 1,
                     "rows: line 60: expected 5 columns"),
    "empty-table": (lambda L: L[:4], 1, "shape: declares 81 rows, table has 0"),
}


@pytest.mark.parametrize("name", sorted(_READER_CASES) + ["crlf", "non-ascii"])
def test_read_grid_refuses_or_accepts_each_layout_as_the_line_reader(tmp_path, capsys, name):
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.5 * (t + s)), (0.0, 1.0, 9), (0.0, 1.0, 9))
    write_grid(tmp_path / "ok.grid", grid)
    lines = (tmp_path / "ok.grid").read_text().splitlines()  # node (i, j) is on line 5 + 9 i + j
    if name == "crlf":
        data, code, want = ("\r\n".join(lines) + "\r\n").encode("ascii"), 0, "same"
    elif name == "non-ascii":
        lines[20] = lines[20].replace(" ", " \xe9", 1)
        data, code, want = ("\n".join(lines) + "\n").encode("latin-1"), 1, (
            "encoding: case.grid is not ASCII text (byte 0xe9)")
    else:
        edit, code, want = _READER_CASES[name]
        data = ("\n".join(edit(lines)) + "\n").encode("ascii")
    (tmp_path / "case.grid").write_bytes(data)
    spec = _write(tmp_path / "check.spec", "kind nonholonomic-check\ngrid case.grid\n"
                                           "constraint builtin example7\nconstraint-tol 1e-6\n")
    assert main(["nonholonomic-check", "--spec", str(spec)]) == code
    err = capsys.readouterr().err
    if want == "same":
        assert err == ""
        assert np.array_equal(read_grid(tmp_path / "case.grid").points, grid.points)
    else:
        assert err == f"wedgemech: spec error: {want}\n"


def _surface_129():
    t = np.linspace(0.0, 1.0, 129)
    return SurfaceGrid.from_graph(t, t - 0.5, np.add.outer(t * t, np.sin(3.0 * t)))


def test_write_grid_memory_is_one_block(tmp_path):
    grid = _surface_129()
    tracemalloc.start()
    try:
        write_grid(tmp_path / "g.grid", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the text alone is 4.4 MB, the points 0.4 MB


def test_read_grid_memory_is_its_table_and_points(tmp_path):
    write_grid(tmp_path / "g.grid", _surface_129())
    tracemalloc.start()
    try:
        grid = read_grid(tmp_path / "g.grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(grid.points, _surface_129().points)
    assert peak <= 3 * grid.points.nbytes


@pytest.mark.parametrize(
    "row, message",
    [
        ("0 2 0 0", "line 7: expected 5 columns"),
        ("0 2 0 abc 0", "line 7: expected numbers"),
        ("1.0 2 0 0 0", "line 7: indices must be integers"),
        ("100000000000000000000000000000 2 0 0 0",
         "line 7: index (100000000000000000000000000000, 2) outside shape"),
        ("5 2 0 0 0", "line 7: index (5, 2) outside shape"),
        ("0 -1 0 0 0", "line 7: index (0, -1) outside shape"),
    ],
    ids=["columns", "coordinate", "float-index", "index-past-int64", "outside", "negative"],
)
def test_read_grid_row_rejection_names_the_line(tmp_path, row, message):
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.0), (0.0, 1.0, 5), (0.0, 1.0, 5))
    write_grid(tmp_path / "ok.grid", grid)
    lines = (tmp_path / "ok.grid").read_text().splitlines()
    lines[6] = row  # the third row, file line 7
    with pytest.raises(SpecError) as err:
        read_grid(_write(tmp_path / "bad.grid", "\n".join(lines) + "\n"))
    assert err.value.field == "rows"
    assert str(err.value).startswith("rows: " + message)


def test_read_grid_rows_that_only_the_bulk_parser_refuses(tmp_path):
    # float() reads "1_0" but the table parser does not: the row walk finds
    # no fault, and the table is still refused
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.0), (0.0, 1.0, 5), (0.0, 1.0, 5))
    write_grid(tmp_path / "ok.grid", grid)
    lines = (tmp_path / "ok.grid").read_text().splitlines()
    lines[6] = "0 2 1_0 0 0"
    with pytest.raises(SpecError, match="rows: table does not parse"):
        read_grid(_write(tmp_path / "bad.grid", "\n".join(lines) + "\n"))


@pytest.mark.parametrize(
    "kind, shape",
    [("surface", (3, 3)), ("surface", (5, 4)), ("curve", (4,)), ("curve", (1,)),
     ("surface", (0, 5))],
)
def test_read_grid_below_minimum_size_is_a_shape_error(tmp_path, kind, shape):
    steps = (0.5,) * len(shape)
    text = _node_by_node(kind, shape, steps, np.zeros(shape + (3,)))
    with pytest.raises(SpecError) as err:
        read_grid(_write(tmp_path / "small.grid", text))
    assert err.value.field == "shape"
    assert "need at least 5 nodes per axis" in str(err.value)


def test_read_grid_surface_needs_two_coordinates(tmp_path):
    text = _node_by_node("surface", (5, 5), (0.25, 0.25), np.zeros((5, 5, 1)))
    with pytest.raises(SpecError, match="header"):
        read_grid(_write(tmp_path / "flat.grid", text))


def test_constraint_spec_explicit_components_either_order(tmp_path):
    text = (
        "dimension 3\n"
        "section 1 2 0.5 3 1 -0.25\n"  # (3, 1) flips sign onto the (1, 3) slot
        "generator 2 1 1.0\n"
    )
    constraint = read_constraint_spec(_write(tmp_path / "c.spec", text))
    a, gens = constraint.at(np.zeros(3))
    assert np.array_equal(a.slots, [0.5, 0.25, 0.0])
    assert np.array_equal(gens[0].slots, [-1.0, 0.0, 0.0])


def test_constraint_spec_consistent_duplicate_ok(tmp_path):
    text = "dimension 3\nsection 1 2 0.5 2 1 -0.5\n"
    constraint = read_constraint_spec(_write(tmp_path / "c.spec", text))
    a, _ = constraint.at(np.zeros(3))
    assert a.slots[0] == 0.5


def test_high_dimension_constraint_file_reads_fast(tmp_path):
    # one component of a 3000-dimensional section: its slot is computed, not looked up
    # in a table of all 4,498,500 index pairs
    path = _write(tmp_path / "c.spec", "dimension 3000\nsection 1 2 1\n")
    start = time.perf_counter()
    constraint = read_constraint_spec(path)
    assert time.perf_counter() - start < 1.0
    assert constraint.dim == 3000


@pytest.mark.parametrize(
    "text, field",
    [
        ("dimension 3\nsection 1 2 0.5 2 1 0.5\n", "section"),  # antisymmetry conflict
        ("dimension 3\nsection 1 1 0.3\n", "section"),  # diagonal component
        ("dimension 3\nsection 1 4 0.3\n", "section"),  # index out of range
        ("dimension 3\nsection 1 2\n", "section"),  # ragged triple
        ("section 1 2 0.5\n", "dimension"),  # dimension missing
        ("dimension 3\n", "section"),  # section missing
        # a builtin constraint is named on the problem spec's line; in a file it is no field
        ("dimension 3\nsection 1 2 1.0\nbuiltin example7\n", "builtin"),
        ("builtin nope\n", "builtin"),
        ("builtin example7\nbuiltin first-axis-drift\n", "builtin"),
        ("dimension 4\nbuiltin example7\n", "builtin"),
        ("kind ribbon\n", "kind"),
        ("dimension nan\nsection 1 2 0.5\n", "dimension"),
        ("dimension 3\nsection 1 2 1.0\nwhatever 3\n", "whatever"),
        # duplicate generators are dependent, caught at load time
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 1.0\ngenerator 1 3 1.0\n", "generator"),
        # non-finite components and dimensions no constraint can have
        ("dimension 3\nsection 1 2 nan\n", "section"),
        ("dimension 3\nsection 1 2 inf\n", "section"),
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 -inf\n", "generator"),
        ("kind curve\ndimension 2\nsection 1 inf\n", "section"),
        ("kind curve\ndimension -1\nsection 1 1\n", "dimension"),
        ("kind curve\ndimension 0\nbuiltin first-axis-drift\n", "dimension"),
        # single-valued fields appear once; a repeat is not "the last one wins"
        ("kind curve\ndimension 4\ndimension 2\nsection 1 1\n", "dimension"),
        ("kind curve\nkind surface\ndimension 3\nsection 1 2 1.0\n", "kind"),
        ("dimension 3\nsection 1 2 1.0\nsection 1 3 1.0\n", "section"),
        # slot arrays no array can index, or no address space can hold (2.4e18 bytes and more)
        ("dimension 10000000000\nsection 1 2 1\n", "dimension"),
        ("dimension 1000000000\nsection 1 2 1\n", "dimension"),
        ("kind curve\ndimension 300000000000000000\nsection 1 1\n", "dimension"),
    ],
)
def test_constraint_spec_rejects(tmp_path, text, field):
    with pytest.raises(SpecError) as err:
        read_constraint_spec(_write(tmp_path / "c.spec", text))
    assert err.value.field == field


def test_fiber_metric_table_fills_symmetry_images(tmp_path):
    text = "dimension 3\nentry 1 2 1 2 3.0\nentry 1 2 1 3 0.5\n"
    metric = read_fiber_metric_table(_write(tmp_path / "h.tbl", text))
    assert isinstance(metric, FiberMetric)
    h = dense_fiber_metric(metric)
    assert h[0, 1, 0, 1] == 3.0
    assert h[1, 0, 0, 1] == -3.0
    assert h[1, 0, 1, 0] == 3.0
    assert h[0, 2, 0, 1] == 0.5  # pair symmetry h_{IJ} = h_{JI}
    assert h[2, 0, 1, 0] == 0.5
    # slot matrix restricted to independent pairs
    assert np.array_equal(metric.slot_matrix[0], [3.0, 0.5, 0.0])


@pytest.mark.parametrize(
    "text, field",
    [
        ("entry 1 2 1 2 1.0\n", "dimension"),
        ("dimension 2\nentry 1 1 1 2 1.0\n", "entry"),
        ("dimension 2\nentry 1 2 1 3 1.0\n", "entry"),
        ("dimension 2\nentry 1 2 1 2 1.0\nentry 2 1 1 2 1.0\n", "entry"),
        ("dimension 2\nentry 1 2 1 2\n", "entry"),
        ("dimension 2\nentry 1 2 1.5 2 1.0\n", "entry"),
        ("dimension 2\nrow 1 2 1 2 1.0\n", "row"),
        ("dimension nan\nentry 1 2 1 2 1.0\n", "dimension"),
        # no bivectors below dimension 2; no array indexes 100000**4 coefficients,
        # and no address space holds 10000**4 (the allocation fails at once)
        ("dimension 0\n", "dimension"),
        ("dimension 1\n", "dimension"),
        ("dimension -1\nentry 1 2 1 2 1.0\n", "dimension"),
        ("dimension 100000\nentry 1 2 1 2 1.0\n", "dimension"),
        ("dimension 10000\n", "dimension"),
        ("dimension 3\nentry 1 2 1 2 inf\n", "entry"),
        ("dimension 3\nentry 1 2 1 2 nan\n", "entry"),
        ("dimension 4\ndimension 3\nentry 1 2 1 2 1\n", "dimension"),
        ("# no dimension, no entries\n", "dimension"),
    ],
)
def test_fiber_metric_table_rejects(tmp_path, text, field):
    with pytest.raises(SpecError) as err:
        read_fiber_metric_table(_write(tmp_path / "h.tbl", text))
    assert err.value.field == field


@pytest.mark.parametrize(
    "text, line",
    [
        ("dimension 3\nentry 1 2 1 2 1.0\nentry 2 2 1 3 1.0\n", "line 3: diagonal"),
        ("dimension 3\n# note\nentry 1 3 1 3 1.0\nentry 1 3 3 1 1.0\n", "line 4: conflicting"),
        ("dimension 3\nentry 1 2 1 3 0.5\nentry 3 1 2 1 -0.5\n", "line 3: conflicting"),
    ],
)
def test_fiber_metric_table_errors_name_the_line(tmp_path, text, line):
    with pytest.raises(SpecError, match=f"^entry: {line}"):
        read_fiber_metric_table(_write(tmp_path / "h.tbl", text))


@pytest.mark.parametrize(
    "text, field, line",
    [
        ("dimension 3\nsection 1 2 1.0 1 3\n", "section", "line 2: expected groups"),
        ("dimension 3\nsection 1 2 1.0 1 4 1.0\n", "section", "line 2: index out of range"),
        ("dimension 3\nsection 2 2 1.0\n", "section", "line 2: diagonal"),
        ("dimension 3\nsection 1 2 nan\n", "section", "line 2: expected finite numbers"),
        ("dimension 3\nsection 1 2 1.0 2 1 1.0\n", "section", "line 2: conflicting"),
        ("kind curve\ndimension 2\nsection 1 1 3\n", "section", "line 3: expected groups"),
        ("kind curve\ndimension 2\nsection 1 1 1 2\n", "section", "line 3: conflicting"),
        ("dimension 3\nsection 1 2 1.0\n# note\ngenerator 1 3 1.0\ngenerator 2 3\n",
         "generator", "line 5: expected groups"),
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 1.0\ngenerator 0 3 1.0\n",
         "generator", "line 4: index out of range"),
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 1.0\ngenerator 3 3 1.0\n",
         "generator", "line 4: diagonal"),
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 1.0\ngenerator 2 3 -inf\n",
         "generator", "line 4: expected finite numbers"),
        ("dimension 3\nsection 1 2 1.0\ngenerator 1 3 1.0\ngenerator 2 3 1 3 2 -2\n",
         "generator", "line 4: conflicting"),
        ("kind curve\ndimension 2\nsection 1 1\ngenerator 3 1\n", "generator",
         "line 4: index out of range"),
        ("kind surface\ndimension 3\nbuiltin example7\n", "builtin", "line 3: unknown field"),
    ],
)
def test_constraint_spec_errors_name_the_line(tmp_path, text, field, line):
    with pytest.raises(SpecError, match=f"^{field}: {line}"):
        read_constraint_spec(_write(tmp_path / "c.spec", text))


def eight_image_table(text):
    """Slot matrix of a table as read before fiber metrics kept only their
    slot matrix: every entry set all eight symmetry images of a dense ``h``."""
    dim, components = None, {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "dimension":
            dim = int(tokens[1])
            continue
        mu, nu, ka, la = (int(t) - 1 for t in tokens[1:5])
        value = float(tokens[5])
        for a, b, sign1 in ((mu, nu, 1.0), (nu, mu, -1.0)):
            for c, d, sign2 in ((ka, la, 1.0), (la, ka, -1.0)):
                for index in ((a, b, c, d), (c, d, a, b)):
                    v = sign1 * sign2 * value
                    assert components.get(index, v) == v
                    components[index] = v
    h = np.zeros((dim,) * 4)
    h[tuple(np.array(list(components)).T)] = list(components.values())
    pairs = np.array([(a, b) for a in range(dim) for b in range(a + 1, dim)])
    return h[pairs[:, 0, None], pairs[:, 1, None], pairs[None, :, 0], pairs[None, :, 1]]


@pytest.mark.parametrize(
    "text",
    [
        "dimension 3\nentry 1 2 1 2 3.0\nentry 1 2 1 3 0.5\n",
        # swapped indices within a pair
        "dimension 3\nentry 2 1 1 3 0.5\nentry 1 3 3 2 -2.0\nentry 3 2 3 2 4.0\n",
        # pair-swapped: the (J, I) entry of an (I, J) entry
        "dimension 4\nentry 1 4 2 3 0.25\nentry 2 3 1 4 0.25\nentry 3 4 1 2 -1.5\n",
        # repeated equal entries, also in other index orders, and a signed zero
        "dimension 4\nentry 1 2 3 4 7.0\nentry 1 2 3 4 7.0\nentry 2 1 4 3 7.0\n"
        "entry 4 3 1 2 -7.0\nentry 1 3 1 3 0.0\nentry 3 1 1 3 -0.0\n",
        "dimension 5\n" + "".join(f"entry {a} {b} {a} {b} {a + b}\n"
                                   for a in range(1, 6) for b in range(a + 1, 6)),
    ],
)
def test_fiber_metric_table_equals_eight_image_reference(tmp_path, text):
    metric = read_fiber_metric_table(_write(tmp_path / "h.tbl", text))
    assert metric.slot_matrix.tobytes() == eight_image_table(text).tobytes()  # signed zeros too


def test_fiber_metric_table_memory_is_its_slot_matrix(tmp_path):
    # dimension 30: 435 slots, a 1.5 MB slot matrix; a dense h is 6.5 MB a copy
    text = "dimension 30\n" + "".join(f"entry {a} {b} {a} {b} 1\n"
                                      for a in range(1, 31) for b in range(a + 1, 31))
    path = _write(tmp_path / "h.tbl", text)
    tracemalloc.start()
    try:
        metric = read_fiber_metric_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(metric.slot_matrix, np.eye(435))
    assert peak < 4e6


def test_problem_spec_accessors(tmp_path):
    text = (
        "# a comment line\n"
        "kind plateau\n"
        "grid surface.grid\n"
        "tol 1e-9\n"
        "max-iter 12\n"
        "metric euclidean 3\n"
        "domain -1 1 -1 1\n"
    )
    spec = read_problem_spec(_write(tmp_path / "p.spec", text))
    assert spec.kind == "plateau"
    assert spec.lines == {"kind": 2, "grid": 3, "tol": 4, "max-iter": 5, "metric": 6, "domain": 7}
    assert spec.has("tol") and not spec.has("damping")
    assert spec.get_float("tol") == 1e-9
    assert spec.get_float("fit-tol", default=1e-8) == 1e-8
    assert spec.get_int("max-iter") == 12
    assert np.array_equal(spec.get_floats("domain", 4), [-1, 1, -1, 1])
    assert spec.get_path("grid") == str(tmp_path / "surface.grid")
    assert spec.get_metric().dim == 3


def test_problem_spec_metric_families(tmp_path):
    for line, trace in [
        ("metric euclidean 2", 2.0),
        ("metric minkowski 2", 0.0),
        ("metric explicit 2 0 0 3", 5.0),
    ]:
        spec = read_problem_spec(_write(tmp_path / "p.spec", f"kind phase-check\n{line}\n"))
        assert np.trace(spec.get_metric().matrix) == trace


@pytest.mark.parametrize(
    "text, field",
    [
        ("grid g.grid\n", "kind"),
        ("kind plateau\ntol 1e-9\ntol 1e-9\n", "tol"),
        ("kind plateau\nmetric explicit 1 2 3\n", "metric"),
        ("kind plateau\nmetric conformal 3\n", "metric"),
        ("kind plateau\nmetric euclidean nan\n", "metric"),
        ("kind plateau\nmax-iter 2.5\n", "max-iter"),
        ("kind plateau\ntol fast\n", "tol"),
        ("kind plateau\ngrid a b\n", "grid"),
        ("kind plateau\nmax-iter nan\n", "max-iter"),
        ("kind plateau\nmax-iter inf\n", "max-iter"),
        ("kind plateau\n# caf\u00e9\n", "encoding"),
    ],
)
def test_problem_spec_rejects(tmp_path, text, field):
    with pytest.raises(SpecError) as err:
        spec = read_problem_spec(_write(tmp_path / "p.spec", text))
        if field == "metric":
            spec.get_metric()
        elif field == "max-iter":
            spec.get_int("max-iter")
        elif field == "tol":
            spec.get_float("tol")
        elif field == "grid":
            spec.get_path("grid")
    assert err.value.field == field


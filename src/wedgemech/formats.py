"""Line-oriented text formats: sampled grids, constraint specs, problem specs.

Everything is plain ASCII so inputs and golden outputs stay diffable.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Malformed input raises `SpecError`, whose message
always starts with the offending field name; a number that is nan, inf
or past the double range (``1e400``) is malformed wherever it stands.

Grid files carry ``# key value`` metadata (kind, shape, step), a header
row naming the index and coordinate columns, then one row per node::

    # kind surface
    # shape 5 5
    # step 0.25 0.25
    i j x1 x2 x3
    0 0 0 0 1
    ...

Grid I/O holds no Python object per row of a file in `write_grid`'s
layout: `write_grid` formats a block of rows at a time, and `read_grid`
hands the rows after the head, straight from the open file, to one
`np.loadtxt`.  Any other file (metadata among or after the rows, or a
fault) is read whole and its rows go to that same table parse and
checks; only a table they refuse is walked row by row, to name the
first fault and its line.

Constraint spec files list the dimension, then the section and each
linear generator as 1-based ``mu nu value`` component triples (``mu
value`` pairs for curve constraints); a packaged constraint is named on
a problem spec's ``constraint builtin NAME`` line instead.  Components
may be given in either index order; conflicting duplicates are rejected.
Only ``generator`` lines repeat; a second ``kind``, ``dimension`` or
``section`` line is an error, as is a second ``dimension`` line in a
fiber-metric table.  An error in a component or table entry names its line.

Problem spec files are ``key value...`` lines; `ProblemSpec` only
tokenizes, type-checks and keeps each key's line number; which keys a
kind reads is its row of the kind table in `scenarios`, which runs specs.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .constraints import (
    AffineConstraint1,
    AffineConstraint2,
    first_axis_drift_constraint,
    symmetric_slope_constraint,
)
from .geometry import Bivector, FiberMetric, Metric, pair_count, pair_slot
from .variational import CurveGrid, SurfaceGrid

__all__ = [
    "ProblemSpec",
    "SpecError",
    "builtin_constraint",
    "format_float",
    "read_constraint_spec",
    "read_fiber_metric_table",
    "read_grid",
    "read_problem_spec",
    "write_grid",
]

class SpecError(ValueError):
    """Input file problem; the message leads with the field at fault."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# the grid class of each file kind; its table opens with one index column per degree
_GRID_KINDS = {"surface": SurfaceGrid, "curve": CurveGrid}
_INDEX_COLUMNS = ("i", "j")


def format_float(value) -> str:
    return format(float(value), ".17g")


def _stripped(handle):
    """``(number, line)`` of each line of an open file that is not blank, stripped."""
    for number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if line:
            yield number, line


def _content_lines(path):
    with open(path, "r", encoding="ascii") as handle:
        try:
            yield from _stripped(handle)
        except UnicodeDecodeError as err:
            raise SpecError("encoding", f"{os.path.basename(path)} is not ASCII text "
                                        f"(byte {err.object[err.start]:#04x})") from err


# rows per write in `write_grid`: a block's text and values stay far below a large grid's array
_WRITE_BLOCK = 1024


def write_grid(path, grid) -> None:
    """Write a surface or curve sample table, `_WRITE_BLOCK` rows at a time."""
    kind = next((k for k, cls in _GRID_KINDS.items() if type(grid) is cls), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(grid).__name__} as a grid file")
    shape, m = grid.points.shape[:-1], grid.points.shape[-1]
    head = [
        f"# kind {kind}",
        "# shape " + " ".join(str(n) for n in shape),
        "# step " + " ".join(format_float(h) for h in grid.steps),
        " ".join(_INDEX_COLUMNS[:grid.degree] + tuple(f"x{k + 1}" for k in range(m))),
    ]
    # one %-format per block: "%.17g" renders a double exactly as format_float does, and
    # "%d" a whole float as its integer; indices and coordinates share one float array
    row = " ".join(["%d"] * len(shape) + ["%.17g"] * m) + "\n"
    points = grid.points.reshape(-1, m)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(head) + "\n")
        for start in range(0, len(points), _WRITE_BLOCK):
            block = points[start:start + _WRITE_BLOCK]
            values = np.empty((len(block), len(shape) + m))
            values[:, :len(shape)] = np.transpose(np.unravel_index(
                np.arange(start, start + len(block)), shape))
            values[:, len(shape):] = block
            handle.write(row * len(block) % tuple(values.ravel().tolist()))


def _number(kind, token: str):
    """``kind(token)``, ``kind`` float or int, without the digit grouping (``1_0``) that
    Python reads and the table parse of a grid file does not."""
    if "_" in token:
        raise ValueError(f"digit grouping in {token!r}")
    return kind(token)


def _parse_floats(field: str, tokens, count: int | None = None,
                  number: int | None = None) -> np.ndarray:
    where = "" if number is None else f"line {number}: "
    try:
        values = np.array([_number(float, t) for t in tokens])
    except ValueError as err:
        raise SpecError(field, f"{where}expected numbers, got {tokens}") from err
    if not np.isfinite(values).all():  # nan, inf, and literals past the double range
        raise SpecError(field, f"{where}expected finite numbers, got {tokens}")
    if count is not None and values.size != count:
        raise SpecError(field, f"{where}expected {count} values, got {values.size}")
    return values


# nodes of three float64 coordinates whose array numpy can still index
_MAX_NODES = np.iinfo(np.intp).max // 24
# float64 coefficients of a slot array (a vector, bivector or slot matrix) numpy can still index
_MAX_COEFFICIENTS = np.iinfo(np.intp).max // 8


def _parse_counts(field: str, tokens, count: int) -> tuple:
    """Whole numbers such as node counts; ``5`` and ``5.0`` read alike, ``5.5`` fails.

    Counts whose product no array can index are refused before anything
    is allocated from them.
    """
    values = _parse_floats(field, tokens, count)
    if not all(float(v).is_integer() for v in values):
        raise SpecError(field, f"expected integers, got {tokens}")
    counts = tuple(int(v) for v in values)
    if math.prod(abs(n) for n in counts) > _MAX_NODES:
        raise SpecError(field, f"{' x '.join(tokens)} is more than an array can index")
    return counts


def _parse_indices(field: str, tokens, number: int) -> list:
    try:
        return [_number(int, t) for t in tokens]
    except ValueError as err:
        raise SpecError(field, f"line {number}: indices must be integers, got {tokens}") from err


def _node(index) -> str:
    return f"({', '.join(map(str, index))})" if len(index) > 1 else str(index[0])


def _table_points(rows, shape: tuple, m: int):
    """Node coordinates, ``shape + (m,)``, of table rows of ``len(shape)`` indices and ``m``
    numbers in one `np.loadtxt`; None unless each axis has at least 5 nodes, the rows are
    as many as the nodes, and each node is given once, inside the shape, by finite numbers."""
    if min(shape) < 5:  # the grid classes need 5 samples per axis
        return None
    dtype = np.dtype([("index", np.int64, (len(shape),)), ("values", float, (m,))])
    try:  # ndmin: a one-row table is still a table; comments: a "#" row is a fault here
        table = np.loadtxt(rows, dtype, comments=None, ndmin=1)
    except ValueError:  # UnicodeDecodeError too
        return None
    index = table["index"]
    if (len(table) != math.prod(shape) or ((index < 0) | (index >= shape)).any()
            or not np.isfinite(table["values"]).all()):
        return None
    points = np.full(shape + (m,), np.nan)
    points[tuple(index.T)] = table["values"]
    del table, index  # the grid copies the points: not while the table is held too
    return None if np.isnan(points[..., 0]).any() else points


def _table_fault(numbers, lines, shape: tuple, m: int) -> SpecError:
    """The first fault of table rows that `_table_points` refuses, walking them one by one."""
    k = len(shape)
    if len(lines) != math.prod(shape):
        return SpecError("shape", f"declares {math.prod(shape)} rows, table has {len(lines)}")
    nodes = set()
    for number, line in zip(numbers, lines):
        tokens = line.split()
        if len(tokens) != k + m:
            return SpecError("rows", f"line {number}: expected {k + m} columns")
        index = tuple(_parse_indices("rows", tokens[:k], number))
        if not all(0 <= i < n for i, n in zip(index, shape)):
            return SpecError("rows", f"line {number}: index {_node(index)} outside shape")
        _parse_floats("rows", tokens[k:], m, number)
        nodes.add(index)
    if min(shape) < 5:
        return SpecError("shape", f"need at least 5 nodes per axis, got {' '.join(map(str, shape))}")
    missing = next((node for node in np.ndindex(*shape) if node not in nodes), None)
    if missing is not None:  # some other node is written twice
        return SpecError("rows", f"node {_node(missing)} is missing")
    return SpecError("rows", f"table does not parse as {k} integer and {m} number columns")


def _sort_lines(content, meta: dict, header: list):
    """Yield the table rows ``(number, line)`` among numbered content lines.

    A ``# key values`` line goes into ``meta`` (a second one of a key is an
    error, a bare ``#`` is skipped); the first other line is the header,
    whose tokens go into ``header``.
    """
    for number, line in content:
        if line.startswith("#"):
            tokens = line[1:].split()
            if not tokens:
                continue
            if tokens[0] in meta:
                raise SpecError(tokens[0], "duplicate metadata line")
            meta[tokens[0]] = tokens[1:]
        elif not header:
            header.extend(line.split())
        else:
            yield number, line


def _layout(meta: dict, header: list):
    """The grid class, shape, steps and coordinate count a file's metadata and header declare."""
    for key in ("kind", "shape", "step"):
        if key not in meta:
            raise SpecError(key, "missing metadata line")
    kind = " ".join(meta["kind"])
    if kind not in _GRID_KINDS:
        raise SpecError("kind", f"unknown grid kind {kind!r}")
    cls = _GRID_KINDS[kind]
    k = cls.degree
    names = list(_INDEX_COLUMNS[:k])
    shape = _parse_counts("shape", meta["shape"], k)
    steps = _parse_floats("step", meta["step"], k)
    if not (steps > 0.0).all():
        raise SpecError("step", f"grid steps must be positive, got {meta['step']}")
    # a grid spans at least as many coordinates as its degree
    if header[:k] != names or len(header) < 2 * k:
        raise SpecError("header", f"{kind} tables start with columns {' '.join(names)!r}, "
                                  f"then at least {k} coordinate(s)")
    return cls, shape, steps, len(header) - k


def read_grid(path):
    """Read a grid file back into a `SurfaceGrid` or `CurveGrid`.

    A file laid out as `write_grid` writes it goes, after its head, from
    the open file to one table parse.  Any other file is read whole, so
    metadata may stand anywhere, and its rows go to the same parse; only
    a table that parse refuses is walked row by row, to name the fault by
    its field and, in the table, by its line.
    """
    meta, header = {}, []
    with open(path, "r", encoding="ascii") as handle:
        try:
            first = next(_sort_lines(_stripped(handle), meta, header), None)
            cls, shape, steps, m = _layout(meta, header)
        except (SpecError, UnicodeDecodeError):
            first = None
        points = None if first is None else _table_points(
            itertools.chain([first[1]], handle), shape, m)
    if points is None:
        meta, header = {}, []
        numbers, lines = [], []
        for number, line in _sort_lines(_content_lines(path), meta, header):
            numbers.append(number)
            lines.append(line)
        cls, shape, steps, m = _layout(meta, header)
        points = _table_points(lines, shape, m) if lines else None  # loadtxt warns on no rows
        if points is None:
            raise _table_fault(numbers, lines, shape, m)
    return cls(*steps.tolist(), points)


def builtin_constraint(name: str, dim: int):
    """A builtin constraint by its spec name: ``example7`` (dimension 3)
    or ``first-axis-drift`` (any dimension)."""
    if name == "example7" and dim == 3:
        return symmetric_slope_constraint()
    if name == "first-axis-drift":
        return first_axis_drift_constraint(dim)
    if name == "example7":
        raise SpecError("constraint", f"example7 is a constraint in dimension 3, not {dim}")
    raise SpecError("constraint", f"unknown builtin {name!r}; known: example7, first-axis-drift")


def _keyed_lines(path, fields=None, repeated=()):
    """``(number, key, values)`` of each ``key values...`` line, ``#`` lines skipped; a key not
    in ``fields`` (if given), or a second line of one not in ``repeated``, is refused there."""
    seen = set()
    for number, line in _content_lines(path):
        if line.startswith("#"):
            continue
        key, *values = line.split()
        if fields is not None and key not in fields:
            raise SpecError(key, f"line {number}: unknown field")
        if key in seen and key not in repeated:
            raise SpecError(key, f"line {number}: duplicate field")
        seen.add(key)
        yield number, key, values


def _component(field: str, number: int, tokens, dim: int) -> tuple:
    """Slot index and signed value of 1-based indices and a number: one index is a vector
    slot, a pair of distinct indices a bivector slot, two pairs a slot-matrix entry; each
    pair that runs downward negates the value."""
    index = [k - 1 for k in _parse_indices(field, tokens[:-1], number)]
    if any(not 0 <= k < dim for k in index):
        raise SpecError(field, f"line {number}: index out of range for dimension {dim}")
    value = _parse_floats(field, tokens[-1:], 1, number)[0]
    if len(index) == 1:
        return tuple(index), value
    slots = []
    for mu, nu in zip(index[::2], index[1::2]):
        if mu == nu:
            raise SpecError(field, f"line {number}: diagonal component ({mu + 1}, {nu + 1}) "
                                   "must vanish")
        slots.append(pair_slot(dim, min(mu, nu), max(mu, nu)))
        value = value if mu < nu else -value
    return tuple(slots), value


def _slot_arrays(shape: tuple, number: int):
    """Zero coefficients of ``shape`` and an all-false mask of those set, for the dimension
    on line ``number``; a size no array can index or memory hold is refused there."""
    count = math.prod(shape)
    if count > _MAX_COEFFICIENTS:
        raise SpecError("dimension", f"line {number}: {count} coefficients are more than an "
                                     "array can index")
    try:
        return np.zeros(shape), np.zeros(shape, dtype=bool)
    except MemoryError as err:
        raise SpecError("dimension", f"line {number}: {count} coefficients do not fit in "
                                     "memory") from err


def _set_once(field: str, number: int, array, seen, index, value) -> None:
    """``array[index] = value``, refusing an entry already set to another value."""
    if (seen[index] & (array[index] != value)).any():
        raise SpecError(field, f"line {number}: conflicting duplicate component")
    seen[index] = True
    array[index] = value


def _slot_components(field: str, number: int, tokens, dim: int, arity: int, dim_line: int):
    """The vector (arity 1) or `Bivector` (arity 2) of a line of groups of
    ``arity`` 1-based indices and a value; ``dimension`` is on line ``dim_line``."""
    if len(tokens) % (arity + 1) != 0 or not tokens:
        raise SpecError(field, f"line {number}: expected groups of {arity + 1} tokens")
    slots, seen = _slot_arrays((pair_count(dim) if arity == 2 else dim,), dim_line)
    for g in range(0, len(tokens), arity + 1):
        index, value = _component(field, number, tokens[g : g + arity + 1], dim)
        _set_once(field, number, slots, seen, index, value)
    return Bivector(slots, dim) if arity == 2 else slots


def read_constraint_spec(path):
    """Read an affine constraint file; returns the surface or curve variant."""
    kind = dim = dim_line = None  # surface unless the file says otherwise
    components = []  # (field, line number, tokens) of the section and each generator
    fields = ("kind", "dimension", "section", "generator")
    for number, key, values in _keyed_lines(path, fields, repeated=("generator",)):
        if key == "kind":
            if values not in (["surface"], ["curve"]):
                raise SpecError("kind", f"line {number}: expected surface or curve")
            kind = values[0]
        elif key == "dimension":
            dim, dim_line = _parse_counts("dimension", values, 1)[0], number
            if dim < 1:
                raise SpecError("dimension", f"line {number}: must be at least 1, got {dim}")
        else:
            components.append((key, number, values))
    if dim is None:
        raise SpecError("dimension", "missing required field")
    components.sort(key=lambda c: c[0] != "section")  # the section first, generators in order
    if not components or components[0][0] != "section":
        raise SpecError("section", "missing required field")
    arity = 1 if kind == "curve" else 2
    section, *generators = [_slot_components(*c, dim, arity, dim_line) for c in components]
    constraint = (AffineConstraint2 if arity == 2 else AffineConstraint1)(dim, section, generators)
    try:
        constraint.at(np.zeros(dim))  # independence is a load-time invariant
    except ValueError as err:
        raise SpecError("generator", str(err)) from err
    return constraint


def read_fiber_metric_table(path) -> FiberMetric:
    """Read a coefficient table h_{mu nu kappa lambda} (1-based ``entry`` rows) as its slot
    matrix; an entry sets its antisymmetric and pair-exchange images, the rest are zero."""
    dim = None
    for number, key, values in _keyed_lines(path, ("dimension", "entry"), repeated=("entry",)):
        if key == "dimension":
            dim = _parse_counts("dimension", values, 1)[0]
            if dim < 2:
                raise SpecError("dimension", f"line {number}: bivectors need at least 2, got {dim}")
            slots, seen = _slot_arrays((pair_count(dim),) * 2, number)
        elif dim is None:
            raise SpecError("dimension", "must precede entry rows")
        elif len(values) != 5:
            raise SpecError("entry", f"line {number}: expected 4 indices and a value")
        else:
            (i, j), value = _component("entry", number, values, dim)
            _set_once("entry", number, slots, seen, ((i, j), (j, i)), value)  # (i, j) and (j, i)
    if dim is None:
        raise SpecError("dimension", "missing required field")
    slots.flags.writeable = False  # handed over, not copied
    return FiberMetric(slots, dim)


class ProblemSpec:
    """Tokenized ``key value...`` problem description.

    Field access is typed; every failure is a `SpecError` naming the
    field so the command line can point straight at the input problem.
    Relative paths resolve against the spec file's own directory.
    """

    def __init__(self, entries: dict, lines: dict, base_dir: str = "."):
        self.entries = entries
        self.lines = lines  # the line number of each key
        self.base_dir = base_dir
        if "kind" not in entries:
            raise SpecError("kind", "missing required field")
        self.kind = " ".join(entries["kind"])

    def has(self, field: str) -> bool:
        return field in self.entries

    def tokens(self, field: str) -> list:
        if field not in self.entries:
            raise SpecError(field, "missing required field")
        return self.entries[field]

    def get_float(self, field: str, default=None) -> float:
        if field not in self.entries and default is not None:
            return float(default)
        return float(_parse_floats(field, self.tokens(field), 1)[0])

    def get_tol(self, field: str, default=None) -> float:
        """A tolerance, which must be positive (``nan`` is not)."""
        value = self.get_float(field, default)
        if not value > 0.0:
            raise SpecError(field, f"tolerance must be positive, got {value!r}")
        return value

    def get_int(self, field: str, default=None) -> int:
        if field not in self.entries and default is not None:
            return int(default)
        return _parse_counts(field, self.tokens(field), 1)[0]

    def get_floats(self, field: str, count: int | None = None) -> np.ndarray:
        return _parse_floats(field, self.tokens(field), count)

    def get_path(self, field: str) -> str:
        tokens = self.tokens(field)
        if len(tokens) != 1:
            raise SpecError(field, "expected a single path")
        return os.path.join(self.base_dir, tokens[0])

    def get_metric(self, field: str = "metric") -> Metric:
        tokens = self.tokens(field)
        family = tokens[0]
        try:
            if family in ("euclidean", "minkowski"):
                (dim,) = _parse_counts(field, tokens[1:], 1)
                return getattr(Metric, family)(dim)
            if family == "explicit":
                values = _parse_floats(field, tokens[1:])
                m = int(round(np.sqrt(values.size)))
                if m * m != values.size:
                    raise SpecError(field, f"explicit metric needs m*m entries, got {values.size}")
                return Metric(values.reshape(m, m))
        except SpecError:
            raise
        except ValueError as err:  # too small, asymmetric, degenerate, or 2+ negative eigenvalues
            raise SpecError(field, f"{' '.join(tokens)}: {err}") from err
        except MemoryError as err:
            raise SpecError(field, f"{' '.join(tokens)}: too large to allocate") from err
        raise SpecError(field, f"unknown metric family {family!r}")


def read_problem_spec(path) -> ProblemSpec:
    entries, lines = {}, {}
    for number, key, values in _keyed_lines(path):
        if not values:
            raise SpecError(key, f"line {number}: missing value")
        entries[key], lines[key] = values, number
    return ProblemSpec(entries, lines, base_dir=os.path.dirname(os.path.abspath(path)))

"""Line-oriented text formats: sampled grids, constraint specs, problem specs.

Everything is plain ASCII so inputs and golden outputs stay diffable.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Malformed input raises `SpecError`, whose message
always starts with the offending field name.

Grid files carry ``# key value`` metadata (kind, shape, step), a header
row naming the index and coordinate columns, then one row per node::

    # kind surface
    # shape 5 5
    # step 0.25 0.25
    i j x1 x2 x3
    0 0 0 0 1
    ...

Constraint spec files list the dimension, then the section and each
linear generator as 1-based ``mu nu value`` component triples (``mu
value`` pairs for curve constraints).  Components may be given in either
index order; conflicting duplicates are rejected.  ``builtin NAME``
selects a packaged constraint instead.

Problem spec files are ``key value...`` lines consumed by the command
line; `ProblemSpec` only tokenizes and type-checks, the per-kind field
requirements live with the commands.
"""

from __future__ import annotations

import os

import numpy as np

from .constraints import (
    AffineConstraint1,
    AffineConstraint2,
    first_axis_drift_constraint,
    symmetric_slope_constraint,
)
from .geometry import Bivector, FiberMetric, Metric, index_pairs, pair_count, pair_slot
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

PROBLEM_KINDS = (
    "plateau",
    "constrained-plateau",
    "nonholonomic-check",
    "phase-check",
    "classical-el",
)

# every key any problem kind understands; unknown keys are typos, not extensions
_PROBLEM_KEYS = frozenset(
    [
        "kind", "metric", "lagrangian", "constraint", "grid", "curve",
        "domain", "shape", "boundary", "system",
        "tol", "max-iter", "damping", "fit-tol", "constraint-tol", "force-tol",
        "x", "w", "r", "omega", "mass",
    ]
)


class SpecError(ValueError):
    """Input file problem; the message leads with the field at fault."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def format_float(value) -> str:
    return format(float(value), ".17g")


def _content_lines(path):
    with open(path, "r", encoding="ascii") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line:
                yield number, line


def write_grid(path, grid) -> None:
    """Write a surface or curve sample table."""
    lines = []
    if isinstance(grid, SurfaceGrid):
        nt, ns, m = grid.points.shape
        lines.append("# kind surface")
        lines.append(f"# shape {nt} {ns}")
        lines.append(f"# step {format_float(grid.dt)} {format_float(grid.ds)}")
        lines.append("i j " + " ".join(f"x{k + 1}" for k in range(m)))
        for i in range(nt):
            for j in range(ns):
                coords = " ".join(format_float(v) for v in grid.points[i, j])
                lines.append(f"{i} {j} {coords}")
    elif isinstance(grid, CurveGrid):
        n, m = grid.points.shape
        lines.append("# kind curve")
        lines.append(f"# shape {n}")
        lines.append(f"# step {format_float(grid.dt)}")
        lines.append("i " + " ".join(f"x{k + 1}" for k in range(m)))
        for i in range(n):
            coords = " ".join(format_float(v) for v in grid.points[i])
            lines.append(f"{i} {coords}")
    else:
        raise TypeError(f"cannot serialize {type(grid).__name__} as a grid file")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_floats(field: str, tokens, count: int | None = None) -> np.ndarray:
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as err:
        raise SpecError(field, f"expected numbers, got {tokens}") from err
    if count is not None and values.size != count:
        raise SpecError(field, f"expected {count} values, got {values.size}")
    return values


def read_grid(path):
    """Read a grid file back into a `SurfaceGrid` or `CurveGrid`."""
    meta = {}
    header = None
    rows = []
    for number, line in _content_lines(path):
        if line.startswith("#"):
            tokens = line[1:].split()
            if not tokens:
                continue
            if tokens[0] in meta:
                raise SpecError(tokens[0], "duplicate metadata line")
            meta[tokens[0]] = tokens[1:]
        elif header is None:
            header = line.split()
        else:
            rows.append((number, line.split()))
    for key in ("kind", "shape", "step"):
        if key not in meta:
            raise SpecError(key, "missing metadata line")
    kind = " ".join(meta["kind"])
    if kind == "surface":
        shape = _parse_floats("shape", meta["shape"], 2).astype(int)
        nt, ns = int(shape[0]), int(shape[1])
        steps = _parse_floats("step", meta["step"], 2)
        if header is None or len(header) < 3 or header[:2] != ["i", "j"]:
            raise SpecError("header", "surface tables start with columns 'i j'")
        m = len(header) - 2
        if len(rows) != nt * ns:
            raise SpecError("shape", f"declares {nt * ns} rows, table has {len(rows)}")
        points = np.full((nt, ns, m), np.nan)
        for number, tokens in rows:
            if len(tokens) != m + 2:
                raise SpecError("rows", f"line {number}: expected {m + 2} columns")
            i, j = int(tokens[0]), int(tokens[1])
            if not (0 <= i < nt and 0 <= j < ns):
                raise SpecError("rows", f"line {number}: index ({i}, {j}) outside shape")
            points[i, j] = _parse_floats("rows", tokens[2:], m)
        if not np.isfinite(points).all():
            raise SpecError("rows", "some nodes are missing or non-finite")
        return SurfaceGrid(float(steps[0]), float(steps[1]), points)
    if kind == "curve":
        n = int(_parse_floats("shape", meta["shape"], 1)[0])
        step = float(_parse_floats("step", meta["step"], 1)[0])
        if header is None or len(header) < 2 or header[0] != "i":
            raise SpecError("header", "curve tables start with column 'i'")
        m = len(header) - 1
        if len(rows) != n:
            raise SpecError("shape", f"declares {n} rows, table has {len(rows)}")
        points = np.full((n, m), np.nan)
        for number, tokens in rows:
            if len(tokens) != m + 1:
                raise SpecError("rows", f"line {number}: expected {m + 1} columns")
            i = int(tokens[0])
            if not 0 <= i < n:
                raise SpecError("rows", f"line {number}: index {i} outside shape")
            points[i] = _parse_floats("rows", tokens[1:], m)
        if not np.isfinite(points).all():
            raise SpecError("rows", "some nodes are missing or non-finite")
        return CurveGrid(step, points)
    raise SpecError("kind", f"unknown grid kind {kind!r}")


def builtin_constraint(name: str, dim: int | None):
    """A builtin constraint by its spec name: ``example7`` (dimension 3)
    or ``first-axis-drift`` (any dimension, 2 when ``dim`` is None)."""
    if name == "example7" and dim in (None, 3):
        return symmetric_slope_constraint()
    if name == "first-axis-drift":
        return first_axis_drift_constraint(2 if dim is None else dim)
    if name == "example7":
        raise SpecError("builtin", f"example7 is a constraint in dimension 3, not {dim}")
    raise SpecError("builtin", f"unknown name {name!r}; known: example7, first-axis-drift")


def _slot_components(field: str, tokens, dim: int, arity: int) -> np.ndarray:
    """Assemble slot storage from 1-based indexed component groups."""
    if len(tokens) % (arity + 1) != 0 or not tokens:
        raise SpecError(field, f"expected groups of {arity + 1} tokens")
    size = pair_count(dim) if arity == 2 else dim
    slots = np.zeros(size)
    seen = np.zeros(size, dtype=bool)
    for g in range(0, len(tokens), arity + 1):
        idx = tokens[g : g + arity]
        value = _parse_floats(field, tokens[g + arity : g + arity + 1], 1)[0]
        try:
            idx = [int(t) - 1 for t in idx]
        except ValueError as err:
            raise SpecError(field, f"indices must be integers, got {idx}") from err
        if any(not 0 <= k < dim for k in idx):
            raise SpecError(field, f"index out of range for dimension {dim}")
        if arity == 2:
            mu, nu = idx
            if mu == nu:
                raise SpecError(field, f"diagonal component ({mu + 1}, {nu + 1}) must vanish")
            sign = 1.0
            if mu > nu:
                mu, nu, sign = nu, mu, -1.0
            slot = pair_slot(dim, mu, nu)
            value = sign * value
        else:
            slot = idx[0]
        if seen[slot] and slots[slot] != value:
            raise SpecError(field, "conflicting duplicate component (antisymmetry violated)")
        seen[slot] = True
        slots[slot] = value
    return slots


def read_constraint_spec(path):
    """Read an affine constraint file; returns the surface or curve variant."""
    kind = "surface"
    dim = None
    builtin = None
    section_tokens = None
    generator_tokens = []
    for number, line in _content_lines(path):
        if line.startswith("#"):
            continue
        tokens = line.split()
        key, rest = tokens[0], tokens[1:]
        if key == "kind":
            if rest not in (["surface"], ["curve"]):
                raise SpecError("kind", f"line {number}: expected surface or curve")
            kind = rest[0]
        elif key == "dimension":
            dim = int(_parse_floats("dimension", rest, 1)[0])
        elif key == "builtin":
            if len(rest) != 1:
                raise SpecError("builtin", f"line {number}: expected one name, got {rest}")
            builtin = rest[0]
        elif key == "section":
            if section_tokens is not None:
                raise SpecError("section", f"line {number}: duplicate section")
            section_tokens = rest
        elif key == "generator":
            generator_tokens.append(rest)
        else:
            raise SpecError(key, f"line {number}: unknown constraint field")
    if builtin is not None:
        if section_tokens is not None or generator_tokens:
            raise SpecError("builtin", "builtin constraints take no explicit components")
        return builtin_constraint(builtin, dim)
    if dim is None:
        raise SpecError("dimension", "missing required field")
    if section_tokens is None:
        raise SpecError("section", "missing required field")
    if kind == "surface":
        section = Bivector(_slot_components("section", section_tokens, dim, 2), dim)
        generators = [
            Bivector(_slot_components("generator", toks, dim, 2), dim)
            for toks in generator_tokens
        ]
        constraint = AffineConstraint2(dim, section, generators)
    else:
        section = _slot_components("section", section_tokens, dim, 1)
        generators = [_slot_components("generator", toks, dim, 1) for toks in generator_tokens]
        constraint = AffineConstraint1(dim, section, generators)
    try:
        constraint.at(np.zeros(dim))  # independence is a load-time invariant
    except ValueError as err:
        raise SpecError("generator", str(err)) from err
    return constraint


def read_fiber_metric_table(path) -> FiberMetric:
    """Read a coefficient table h_{mu nu kappa lambda} (1-based ``entry`` rows)."""
    dim = None
    entries = []
    for number, line in _content_lines(path):
        if line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "dimension":
            dim = int(_parse_floats("dimension", tokens[1:], 1)[0])
        elif tokens[0] == "entry":
            if dim is None:
                raise SpecError("dimension", "must precede entry rows")
            if len(tokens) != 6:
                raise SpecError("entry", f"line {number}: expected 4 indices and a value")
            idx = [int(t) - 1 for t in tokens[1:5]]
            if any(not 0 <= k < dim for k in idx):
                raise SpecError("entry", f"line {number}: index out of range")
            value = _parse_floats("entry", tokens[5:], 1)[0]
            entries.append((idx, value))
        else:
            raise SpecError(tokens[0], f"line {number}: unknown table field")
    if dim is None:
        raise SpecError("dimension", "missing required field")
    h = np.zeros((dim, dim, dim, dim))
    filled = np.zeros(h.shape, dtype=bool)
    for (mu, nu, ka, la), value in entries:
        if mu == nu or ka == la:
            raise SpecError("entry", "diagonal components must vanish")
        for a, b, sign1 in ((mu, nu, 1.0), (nu, mu, -1.0)):
            for c, d, sign2 in ((ka, la, 1.0), (la, ka, -1.0)):
                for (i, j, k, l) in ((a, b, c, d), (c, d, a, b)):
                    v = sign1 * sign2 * value
                    if filled[i, j, k, l] and h[i, j, k, l] != v:
                        raise SpecError("entry", "conflicting duplicate component")
                    h[i, j, k, l] = v
                    filled[i, j, k, l] = True
    return FiberMetric(h)


class ProblemSpec:
    """Tokenized ``key value...`` problem description.

    Field access is typed; every failure is a `SpecError` naming the
    field so the command line can point straight at the input problem.
    Relative paths resolve against the spec file's own directory.
    """

    def __init__(self, entries: dict, base_dir: str = "."):
        self.entries = entries
        self.base_dir = base_dir
        if "kind" not in entries:
            raise SpecError("kind", "missing required field")
        self.kind = " ".join(entries["kind"])
        if self.kind not in PROBLEM_KINDS:
            raise SpecError("kind", f"unknown kind {self.kind!r}; known: {', '.join(PROBLEM_KINDS)}")

    def has(self, field: str) -> bool:
        return field in self.entries

    def tokens(self, field: str) -> list:
        if field not in self.entries:
            raise SpecError(field, "missing required field")
        return self.entries[field]

    def get_str(self, field: str, choices=None, default=None) -> str:
        if field not in self.entries and default is not None:
            return default
        value = " ".join(self.tokens(field))
        if choices is not None and value.split()[0] not in choices:
            raise SpecError(field, f"expected one of {', '.join(choices)}; got {value!r}")
        return value

    def get_float(self, field: str, default=None) -> float:
        if field not in self.entries and default is not None:
            return float(default)
        return float(_parse_floats(field, self.tokens(field), 1)[0])

    def get_int(self, field: str, default=None) -> int:
        value = self.get_float(field, default)
        if value != int(value):
            raise SpecError(field, f"expected an integer, got {value}")
        return int(value)

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
        if family == "euclidean":
            return Metric.euclidean(int(_parse_floats(field, tokens[1:], 1)[0]))
        if family == "minkowski":
            return Metric.minkowski(int(_parse_floats(field, tokens[1:], 1)[0]))
        if family == "explicit":
            values = _parse_floats(field, tokens[1:])
            m = int(round(np.sqrt(values.size)))
            if m * m != values.size:
                raise SpecError(field, f"explicit metric needs m*m entries, got {values.size}")
            return Metric.from_matrix(values.reshape(m, m))
        raise SpecError(field, f"unknown metric family {family!r}")


def read_problem_spec(path) -> ProblemSpec:
    entries = {}
    for number, line in _content_lines(path):
        if line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0]
        if key not in _PROBLEM_KEYS:
            raise SpecError(key, f"line {number}: unknown field")
        if key in entries:
            raise SpecError(key, f"line {number}: duplicate field")
        entries[key] = tokens[1:]
    return ProblemSpec(entries, base_dir=os.path.dirname(os.path.abspath(path)))

"""Affine velocity constraints and d'Alembert-type force decompositions.

A constraint assigns to each base point an affine subspace ``a(x) + V(x)``
of the velocity fiber, with ``V`` spanned by a list of generators.  Curves
(degree 1, velocity vectors) and surfaces (degree 2, velocity bivectors)
share one constraint type, `AffineConstraint`, and one check,
`nonholonomic_check`, because each velocity element is read as a linear
map on one-forms: ``eta -> eta . v`` for a vector, the contraction
``eta -> eta_mu u^{mu nu}`` for a bivector.  `AffineConstraint1`,
`AffineConstraint2` and `nonholonomic_check_curve` are spellings of them
with the degree fixed.

The check asks two independent questions of a sampled candidate:

* membership: every annihilator one-form of ``V`` maps ``w - a`` to zero
  (the span is tested, not the section, hence ``w - a``);
* force balance: the Euler-Lagrange defect lies in the span of the
  annihilator (a constraint force doing no virtual work), i.e. its
  orthogonal component vanishes.  Generators that span the whole fiber
  leave no annihilator: membership is vacuous and the whole defect is
  orthogonal.

All steps work on stacks of nodes.  A point-dependent constraint is
evaluated in one flat pass per field: the base points are flattened to
rows once, a constant field is broadcast to every node, and a callable
field (a function of one base point) is called once per row; its values
are checked and stacked in one pass, so a value that is not a velocity
element of the constraint raises `ValueError` naming the field and the
node.  The generator stacks of all nodes are then grouped by their bytes,
once per check, and each distinct stack is decomposed once: one batched
singular value decomposition for the annihilator, whose rows are gathered
back to the nodes and whose singular values decide a degree-1 stack's
linear independence (a degree-2 stack's is a batched rank test of its
slots).  A generator that depends on one coordinate repeats down a grid
column, and a constant-returning callable gives a single stack; a constant
constraint is the one-stack case of the same code, without node axes.  A
singular value kept by the rank cutoff but within a factor of ten of it
makes the kernel dimension ill-determined; that, like an annihilator
dimension that changes between nodes, raises `RankDecisionError` instead
of being silently resolved.  Values at or below the cutoff are already
indistinguishable from zero at working precision (an exact kernel's
computed singular value lands there), so no gradation below the cutoff is
meaningful.

A check streams over blocks of rows along parameter axis 0, about
`_BLOCK_NODES` nodes each, so that besides the points it holds its
per-node outputs and one block's working arrays, not whole-grid ones.
Each block is a grid of its own rows with a halo, handed to the same
`constraint_residual` and `delta_L_surface` / `delta_L_curve` a whole grid
would go to: membership takes one halo row on each side, so its interior
is exactly the block's rows and each callable still runs once per interior
node; the defect takes two, clipped at the grid's ends, so every row it
keeps sees the differences the whole grid would.  Results are the whole
grid's bit for bit.  A block that raises, or whose annihilator dimension
differs from the first block's, sends the whole grid through that step
instead, which raises the whole grid's first fault, as a check without
blocks would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Bivector, antisymmetric_from_slots, contract_slots, pair_count, wedge
from .variational import (CurveGrid, _interior, _require_fit, delta_L_curve, delta_L_surface,
                          velocity_prolongation, worst_node)

__all__ = [
    "AffineConstraint",
    "AffineConstraint1",
    "AffineConstraint2",
    "ConstraintCheckReport",
    "RankDecisionError",
    "constraint_residual",
    "dalembert_decompose",
    "first_axis_drift_constraint",
    "nonholonomic_check",
    "nonholonomic_check_curve",
    "symmetric_slope_constraint",
]

class RankDecisionError(RuntimeError):
    """The annihilator dimension is numerically ambiguous."""


def _maps(elements: np.ndarray, degree: int, dim: int) -> np.ndarray:
    """Matrices (..., k, dim) of the maps velocity elements induce on one-forms.

    ``elements`` holds vectors (..., dim) for degree 1, giving
    ``eta -> eta . v`` (k = 1), or bivector slots (..., K) for degree 2,
    giving the contraction ``eta -> eta_mu u^{mu nu}`` (k = dim).
    """
    if degree == 1:
        return elements[..., None, :]
    return np.swapaxes(antisymmetric_from_slots(elements, dim), -1, -2)


def _distinct(stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of the first of each distinct stack among N stacks (N, ...), and the
    inverse (N,) mapping each row to its distinct stack.

    Stacks are compared by their bytes, so -0.0 and +0.0 stay apart and each
    distinct stack is exactly the input of every node it stands for.
    """
    rows = np.ascontiguousarray(stacks).reshape(len(stacks), -1)
    if not rows.shape[1]:  # no generators: every node holds the empty stack
        return np.zeros(min(len(rows), 1), dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _require_independent(rank: np.ndarray, generators: np.ndarray, inverse: np.ndarray,
                         points: np.ndarray):
    """Refuse distinct generator stacks (U, g, s) of ``rank`` (U,) below g, naming
    the first node (in C order) of ``points`` (..., dim) whose stack that is."""
    dependent = (rank < generators.shape[-2])[inverse]
    if np.any(dependent):
        point = points.reshape(-1, points.shape[-1])[np.argmax(dependent)]
        raise ValueError(f"constraint generators are linearly dependent at x = {point.tolist()}")


def _annihilator(generators: np.ndarray, inverse: np.ndarray, degree: int, dim: int,
                 points: np.ndarray) -> np.ndarray:
    """Orthonormal annihilator rows (..., r, dim) at nodes (...) whose generator
    stacks are ``generators[inverse]``, given distinct stacks (U, g, s).

    Each distinct stack is decomposed once, in one batched SVD, and its rows
    are gathered back to the nodes through ``inverse``.  Rank is decided per
    contraction matrix by the usual cutoff ``max(shape) * eps * sigma_max``,
    which for a degree-1 stack, its own contraction matrix, is its independence
    test too.  Singular values kept by the cutoff but within a factor 10 of it
    raise instead of guessing, and so does a rank that differs between nodes;
    ``points`` (..., dim) name the first such node, in C order, in those errors.
    """
    nodes = inverse.shape
    if generators.shape[-2] == 0:
        return np.broadcast_to(np.eye(dim), nodes + (dim, dim))
    mats = _maps(generators, degree, dim).reshape(len(generators), -1, dim)
    _, s, vh = np.linalg.svd(mats, full_matrices=True)
    cutoff = max(mats.shape[-2:]) * np.finfo(float).eps * s[:, :1]
    rank = np.sum(s > cutoff, axis=-1)
    _require_independent(rank if degree == 1 else np.linalg.matrix_rank(generators),
                         generators, inverse, points)
    ambiguous = (s > cutoff) & (s < cutoff * 10.0)
    flagged = ambiguous.any(axis=-1)[inverse]
    if flagged.any():
        node = np.unravel_index(np.argmax(flagged), nodes)
        stack = inverse[node]
        where = f" at x = {points[node].tolist()}" if nodes else ""
        k = int(np.argmax(ambiguous[stack]))
        element = ("vector", "bivector")[degree - 1]
        raise RankDecisionError(
            f"{element} annihilator{where}: singular value {s[stack][k]:.3e} sits within a "
            f"factor 10 of the rank cutoff {cutoff[stack][0]:.3e}; refine the generators or rescale"
        )
    rank = rank[inverse]
    first = int(rank.flat[0])
    if np.any(rank != first):
        node = np.unravel_index(np.argmax(rank != first), nodes)
        raise RankDecisionError(
            f"annihilator dimension changes from {dim - first} to {dim - rank[node]} "
            f"at x = {points[node].tolist()}"
        )
    return vh[:, first:, :][inverse]


def _field_name(k: int) -> str:
    """Name of the k-th constraint field: the section, then the generators."""
    return f"generator {k - 1}" if k else "section"


class AffineConstraint:
    """Affine constraint ``a(x) + span{u_k(x)}`` on velocity elements of
    ``degree`` 1 (vectors) or 2 (bivectors), which the spellings
    `AffineConstraint1` and `AffineConstraint2` fix.  ``section`` and each
    generator may be constants or callables of the base point.  Generators
    must stay linearly independent wherever the constraint is queried.
    """

    degree: int

    def __init__(self, dim: int, section, generators: Sequence):
        self.dim = int(dim)
        self._fields = [section, *generators]
        self.constant = not any(callable(f) for f in self._fields)
        for k, field in enumerate(self._fields):
            if not callable(field) and (problem := self._invalid(field)):
                raise ValueError(f"{_field_name(k)} must be {problem}")

    def _invalid(self, value) -> str | None:
        """What a field value fails to be, or None for a velocity element:
        a `Bivector` of dimension ``dim`` (degree 2) or a finite vector of
        length ``dim`` (degree 1)."""
        if self.degree == 2:
            if not isinstance(value, Bivector):
                return f"a Bivector of dimension {self.dim}, not {type(value).__name__}"
            if value.slots.shape != (pair_count(self.dim),):
                return (f"a Bivector of dimension {self.dim}, not one of dimension "
                        f"{value.dim} with slots of shape {value.slots.shape}")
            return None
        try:
            vector = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            return f"a vector of length {self.dim}, not {type(value).__name__}"
        if vector.shape != (self.dim,):
            return f"a vector of length {self.dim}, not of shape {vector.shape}"
        return None if np.isfinite(vector).all() else f"finite, not {vector.tolist()}"

    def _stacked(self, values: list, size: int) -> np.ndarray | None:
        """Callable values at N nodes as one (N, size) array, or None unless
        every one is a velocity element of this constraint.  Each value is
        converted and checked once: a `Bivector`'s slots are finite already."""
        try:
            if self.degree == 2:
                rows = [u.slots for u in values if isinstance(u, Bivector)]
                stacked, valid = np.array(rows), len(rows) == len(values)
            else:
                stacked = np.array(values, dtype=float)
                valid = np.isfinite(stacked).all()
        except (TypeError, ValueError):
            return None
        return stacked if valid and stacked.shape == (len(values), size) else None

    def _fields_at(self, x: np.ndarray):
        """Section (..., s) at base points (..., dim), as vectors or bivector
        slots, the distinct generator stacks (U, g, s) and the index (...) of
        each node's stack; a constant constraint without node axes.

        Base points (..., dim), checked first, are flattened to rows once.  A constant field is
        written to every node by one broadcast; a callable is called once
        per row and its values are checked and stacked in one pass, and a
        callable serving as more than one field reuses that stack.  The
        generator stacks are grouped by their bytes, so that each distinct
        one is tested for linear independence once, by `at` or `_annihilator`.
        """
        x = np.asarray(x, dtype=float)
        if not x.size or x.shape[-1:] != (self.dim,):
            raise ValueError(f"no base point of dimension {self.dim} to evaluate the constraint at: "
                             f"shape {x.shape}")
        if self.constant:
            x = x.reshape(-1, self.dim)[0]
        nodes = x.shape[:-1]
        points = x.reshape(-1, self.dim)
        size = self.dim if self.degree == 1 else pair_count(self.dim)
        values = np.empty((len(points), len(self._fields), size))
        for k, field in enumerate(self._fields):
            if not callable(field):
                values[:, k] = field.slots if self.degree == 2 else field
                continue
            first = next(j for j, f in enumerate(self._fields) if f is field)
            if first < k:
                values[:, k] = values[:, first]
                continue
            column = [field(point) for point in points]
            stacked = self._stacked(column, size)
            if stacked is None:
                node, problem = next((i, p) for i, p in enumerate(map(self._invalid, column)) if p)
                raise ValueError(f"{_field_name(k)} at x = {points[node].tolist()} must be {problem}")
            values[:, k] = stacked
        first, inverse = _distinct(values[:, 1:])
        return values[:, 0].reshape(nodes + (size,)), values[first, 1:], inverse.reshape(nodes)

    def at(self, x):
        """Section and generators at a base point, with independence checked."""
        section, generators, inverse = self._fields_at(x)
        _require_independent(np.linalg.matrix_rank(generators), generators, inverse,
                             np.asarray(x, dtype=float))
        element = (lambda s: Bivector(s, self.dim)) if self.degree == 2 else (lambda s: s)
        return element(section), [element(u) for u in generators[inverse]]

    def annihilator_at(self, x) -> np.ndarray:
        """Orthonormal annihilator rows (r, dim) at a base point, or (..., r, dim)
        at a stack of them."""
        _, generators, inverse = self._fields_at(x)
        return _annihilator(generators, inverse, self.degree, self.dim, np.asarray(x, dtype=float))


class AffineConstraint1(AffineConstraint):
    """`AffineConstraint` on velocity vectors (degree 1)."""

    degree = 1


class AffineConstraint2(AffineConstraint):
    """`AffineConstraint` on velocity bivectors (degree 2)."""

    degree = 2


def symmetric_slope_constraint() -> AffineConstraint2:
    """Built-in constraint on graph surfaces in 3-space (file keyword
    ``example7``): section e1 ^ e2 with the single generator
    (e1 - e2) ^ e3.  Its annihilator is spanned by dx^1 + dx^2, so
    membership of a graph prolongation reduces to equality of the two
    slopes z_x = z_y."""
    e = np.eye(3)
    section = Bivector([1.0, 0.0, 0.0], 3)  # e1 ^ e2
    generator = wedge(e[0] - e[1], e[2])
    return AffineConstraint2(3, section, [generator])


def first_axis_drift_constraint(dim: int = 2) -> AffineConstraint1:
    """Built-in curve constraint: drift along the first axis with free speed."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    return AffineConstraint1(dim, e1, [e1])


def dalembert_decompose(delta: np.ndarray, basis: np.ndarray):
    """Split covectors into annihilator-parallel and orthogonal parts.

    ``delta`` is (..., dim) and ``basis`` holds orthonormal rows
    (..., r, dim); leading axes broadcast, so one basis may serve every
    node.  Returns ``(multipliers, orthogonal)`` with
    ``delta = multipliers @ basis + orthogonal`` exactly (one rounding
    step per component).
    """
    delta = np.asarray(delta, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim < 2 or basis.shape[-1] != delta.shape[-1]:
        raise ValueError(f"basis shape {basis.shape} does not match covector {delta.shape}")
    rows = np.swapaxes(basis, -1, -2)
    if not np.allclose(basis @ rows, np.eye(basis.shape[-2]), atol=1e-10):
        raise ValueError("basis rows must be orthonormal")
    multipliers = (delta[..., None, :] @ rows)[..., 0, :]
    orthogonal = delta - (multipliers[..., None, :] @ basis)[..., 0, :]
    return multipliers, orthogonal


@dataclass(frozen=True)
class ConstraintCheckReport:
    """Joint membership / force-balance verdict along a sampled candidate.

    Residual arrays live on interior nodes: ``constraint_residuals`` has
    one sup-norm per node and annihilator element, ``multipliers`` the
    force decomposition coefficients, and ``orthogonal_norms`` the sup-norm
    of the force component no constraint force can account for.
    """

    constraint_tol: float
    force_tol: float
    constraint_residuals: np.ndarray
    multipliers: np.ndarray
    orthogonal_norms: np.ndarray
    constraint_max: float
    constraint_worst: tuple
    dalembert_max: float
    dalembert_worst: tuple
    constraint_passed: bool
    dalembert_passed: bool

    @property
    def passed(self) -> bool:
        return self.constraint_passed and self.dalembert_passed

    def multiplier_stats(self) -> np.ndarray:
        """(r, 2) array of per-generator multiplier min/max across nodes."""
        m = self.multipliers
        nodes = tuple(range(m.ndim - 1))
        return np.stack([m.min(axis=nodes), m.max(axis=nodes)], axis=1)


def constraint_residual(grid, constraint: AffineConstraint):
    """Per-node membership defects of a sampled curve or surface.

    Returns ``(residuals, annihilator)``: for each interior node and
    annihilator row ``eta``, the sup-norm of ``eta`` applied to ``w - a``
    (``eta . (v - a)`` on curves, ``eta_mu (w - a)^{mu nu}`` on surfaces),
    and the rows themselves, (r, dim) for a constant constraint and
    (..., r, dim) per node otherwise, once `variational`'s fit rule accepts the constraint.
    """
    _require_fit(constraint, grid, "constraint")
    x, w = grid.points[_interior(grid)], velocity_prolongation(grid)[_interior(grid)]
    section, generators, inverse = constraint._fields_at(x)
    ann = _annihilator(generators, inverse, grid.degree, grid.dim, x)
    if grid.degree == 1:
        defect = np.einsum("...rm,...km->...rk", ann, _maps(w - section, 1, grid.dim))
    else:  # on the slots: no (dim, dim) map per node
        defect = contract_slots(ann, (w - section)[..., None, :])
    return np.abs(defect).max(axis=-1), ann


# perfbench/tracing.py times membership under this earlier name
constraint_residual_curve = constraint_residual


# nodes per block of rows that a check streams over (about 0.2 MB of points in 3-space)
_BLOCK_NODES = 8192


def _row_blocks(grid) -> list:
    """Interior rows ``[a, b)`` along parameter axis 0 of each block of a check: about
    `_BLOCK_NODES` nodes and at least 3 rows each (5 with a membership halo, the fewest a
    grid takes), the rows left over spread across the blocks."""
    n = len(grid.points)
    rows = max(3, _BLOCK_NODES // (grid.points[0].size // grid.dim))
    count = max(1, (n - 2) // rows)
    edges = [1 + (n - 2) * k // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _by_blocks(grid, blocks, halo: int, compute, cut):
    """``cut(compute(sub), rows)`` for each block of rows, in order: ``sub`` is the grid of
    the block's rows with ``halo`` more on each side, clipped at the grid's ends, and
    ``rows`` picks the block's rows among ``sub``'s interior ones.

    A grid of more than one block goes to ``compute`` whole once a block raises, or once the
    leading part of a block differs in shape past its rows from the first block's.  That
    raises the fault the whole grid meets first; only a fault of a halo row's one-sided
    difference, which the whole grid does not take, lets it return, and the blocks left
    are then cut from its result.
    """
    n, first = len(grid.points), None
    for k, (a, b) in enumerate(blocks):
        lo, hi = max(a - halo, 0), min(b + halo, n)
        try:
            sub = grid if hi - lo == n else type(grid)(*grid.steps, grid.points[lo:hi])
            part = cut(compute(sub), slice(a - lo - 1, b - lo - 1))
            agrees = first in (None, part[0].shape[1:])
        except Exception:  # any fault, a callable's own too: the whole grid names it
            if len(blocks) == 1:
                raise
            agrees = False
        if not agrees:
            whole = compute(grid)
            yield from (cut(whole, slice(a - 1, b - 1)) for a, b in blocks[k:])
            return
        first = part[0].shape[1:]
        yield part


def _check(L, grid, constraint, constraint_tol, force_tol):
    """Body of both check spellings, which call it rather than each other so
    that one call is one check (perfbench/tracing.py wraps both names).

    It streams over blocks of rows (`_row_blocks`, `_by_blocks`): first
    membership on each block with one halo row a side, then the defect and
    its d'Alembert split on each block with two, so that only the reported
    per-node arrays and a point-dependent annihilator span the whole grid.
    A fault sends the whole grid through the step that met it, which names
    the fault a check without blocks names.
    """
    if force_tol is None:
        force_tol = constraint_tol
    if not (constraint_tol > 0.0 and force_tol > 0.0):
        raise ValueError("tolerances must be positive")

    def kept(result, rows):  # a constant constraint's annihilator has no node axes
        residuals, ann = result
        return residuals[rows], ann if constraint.constant else ann[rows]

    blocks = _row_blocks(grid)
    membership = list(_by_blocks(grid, blocks, 1, lambda g: constraint_residual(g, constraint),
                                 kept))
    delta_L = delta_L_surface if grid.degree == 2 else delta_L_curve
    multipliers, orth_norms = [], []
    for (_, ann), (delta,) in zip(membership, _by_blocks(
            grid, blocks, 2, lambda g: (delta_L(L, g).values,), lambda result, rows: (result[0][rows],))):
        block_multipliers, orthogonal = dalembert_decompose(delta, ann)
        multipliers.append(block_multipliers)
        orth_norms.append(np.abs(orthogonal).max(axis=-1))
    residuals = np.concatenate([r for r, _ in membership])
    del membership
    multipliers, orth_norms = np.concatenate(multipliers), np.concatenate(orth_norms)
    node_residuals = residuals.max(axis=-1, initial=0.0)  # vacuous with no annihilator
    cmax = float(node_residuals.max())
    dmax = float(orth_norms.max())
    return ConstraintCheckReport(
        constraint_tol=float(constraint_tol),
        force_tol=float(force_tol),
        constraint_residuals=residuals,
        multipliers=multipliers,
        orthogonal_norms=orth_norms,
        constraint_max=cmax,
        constraint_worst=worst_node(node_residuals),
        dalembert_max=dmax,
        dalembert_worst=worst_node(orth_norms),
        constraint_passed=bool(cmax <= constraint_tol),
        dalembert_passed=bool(dmax <= force_tol),
    )


def nonholonomic_check(
    L,
    grid,
    constraint: AffineConstraint,
    constraint_tol: float,
    force_tol: float | None = None,
) -> ConstraintCheckReport:
    """Membership and force-balance check of a sampled curve or surface.

    ``grid`` is a `CurveGrid` with a degree-1 constraint or a
    `SurfaceGrid` with a degree-2 one.  The two defects carry different
    units and discretization error, so they get separate tolerances;
    ``force_tol`` defaults to the membership one.  Multipliers are the
    coefficients of the defect in the orthonormal annihilator basis, the
    rows `constraint_residual` returns.
    """
    return _check(L, grid, constraint, constraint_tol, force_tol)


def nonholonomic_check_curve(
    L,
    grid: CurveGrid,
    constraint: AffineConstraint1,
    constraint_tol: float,
    force_tol: float | None = None,
) -> ConstraintCheckReport:
    """`nonholonomic_check` with the degree fixed to 1 (curves)."""
    if grid.degree != 1:
        raise ValueError("nonholonomic_check_curve needs a CurveGrid")
    return _check(L, grid, constraint, constraint_tol, force_tol)

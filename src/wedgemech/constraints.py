"""Affine velocity constraints and d'Alembert-type force decompositions.

A constraint assigns to each base point an affine subspace ``a(x) + V(x)``
of the velocity fiber, with ``V`` spanned by a list of generators.  Curves
(degree 1, velocity vectors) and surfaces (degree 2, velocity bivectors)
share one constraint type, `AffineConstraint`, and one check,
`nonholonomic_check`, because each velocity element is read as a linear
map on one-forms: ``eta -> eta . v`` for a vector, ``eta -> contract(eta,
u)`` for a bivector.  `AffineConstraint1`, `AffineConstraint2` and
`nonholonomic_check_curve` are spellings of them with the degree fixed.

The check asks two independent questions of a sampled candidate:

* membership: every annihilator one-form of ``V`` maps ``w - a`` to zero
  (the span is tested, not the section, hence ``w - a``);
* force balance: the Euler-Lagrange defect lies in the span of the
  annihilator (a constraint force doing no virtual work), i.e. its
  orthogonal component vanishes.  Generators that span the whole fiber
  leave no annihilator: membership is vacuous and the whole defect is
  orthogonal.

All steps work on stacks of nodes.  A point-dependent constraint is
evaluated node by node (its fields are user callables), then all its
annihilators come from one batched singular value decomposition; a
constant constraint runs the same code without node axes.  A singular
value kept by the rank cutoff but within a factor of ten of it makes the
kernel dimension ill-determined; that, like an annihilator dimension that
changes between nodes, raises `RankDecisionError` instead of being
silently resolved.  Values at or below the cutoff are already
indistinguishable from zero at working precision (an exact kernel's
computed singular value lands there), so no gradation below the cutoff
is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Bivector, antisymmetric_from_slots, pair_count, wedge
from .variational import CurveGrid, SurfaceGrid, delta_L_curve, delta_L_surface, wedge_prolongation, velocity_prolongation

__all__ = [
    "AffineConstraint",
    "AffineConstraint1",
    "AffineConstraint2",
    "ConstraintCheckReport",
    "RankDecisionError",
    "annihilator_basis",
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
    giving ``eta -> contract(eta, u)`` (k = dim).
    """
    if degree == 1:
        return elements[..., None, :]
    return np.swapaxes(antisymmetric_from_slots(elements, dim), -1, -2)


def _annihilator(generators: np.ndarray, degree: int, dim: int, points=None) -> np.ndarray:
    """Orthonormal annihilator rows (..., r, dim) of generator stacks (..., g, s).

    Rank is decided per stacked contraction matrix by the usual cutoff
    ``max(shape) * eps * sigma_max``; singular values kept by the cutoff
    but within a factor 10 of it raise instead of guessing, and so does a
    rank that differs between nodes.  ``points`` (..., dim) name the node
    in those errors.
    """
    nodes = generators.shape[:-2]
    if generators.shape[-2] == 0:
        return np.broadcast_to(np.eye(dim), nodes + (dim, dim))
    mats = _maps(generators, degree, dim).reshape(nodes + (-1, dim))
    _, s, vh = np.linalg.svd(mats, full_matrices=True)
    cutoff = max(mats.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    ambiguous = (s > cutoff) & (s < cutoff * 10.0)
    if ambiguous.any():
        node = np.unravel_index(np.argmax(ambiguous.any(axis=-1)), nodes)
        where = f" at x = {points[node].tolist()}" if nodes else ""
        k = int(np.argmax(ambiguous[node]))
        element = ("vector", "bivector")[degree - 1]
        raise RankDecisionError(
            f"{element} annihilator{where}: singular value {s[node][k]:.3e} sits within a "
            f"factor 10 of the rank cutoff {cutoff[node][0]:.3e}; refine the generators or rescale"
        )
    rank = np.sum(s > cutoff, axis=-1)
    first = int(rank.flat[0])
    if np.any(rank != first):
        node = np.unravel_index(np.argmax(rank != first), nodes)
        raise RankDecisionError(
            f"annihilator dimension changes from {dim - first} to {dim - rank[node]} "
            f"at x = {points[node].tolist()}"
        )
    return vh[..., first:, :]


def annihilator_basis(generators: Sequence, dim: int | None = None) -> np.ndarray:
    """Orthonormal one-forms (rows) annihilating every generator.

    Generators are all `Bivector` (``contract(eta, u) = 0``) or all
    vectors (``eta . u = 0``).  With no generators the annihilator is the
    whole dual space, so ``dim`` must be supplied in that case.
    """
    generators = list(generators)
    if not generators:
        if dim is None:
            raise ValueError("dim is required when there are no generators")
        return np.eye(dim)
    if isinstance(generators[0], Bivector):
        if any(u.dim != generators[0].dim for u in generators):
            raise ValueError("generators have mixed dimensions")
        return _annihilator(np.stack([u.slots for u in generators]), 2, generators[0].dim)
    stacked = np.vstack([np.asarray(u, dtype=float) for u in generators])
    return _annihilator(stacked, 1, stacked.shape[1])


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
            name = f"generator {k - 1}" if k else "section"
            if callable(field):
                continue
            if self.degree == 2 and not (isinstance(field, Bivector) and field.dim == self.dim):
                raise ValueError(f"{name} must be a Bivector of dimension {self.dim}")
            if self.degree == 1 and np.shape(field) != (self.dim,):
                raise ValueError(f"{name} must be a vector of length {self.dim}")

    def _fields_at(self, x: np.ndarray):
        """Section (..., s) and generators (..., g, s), as vectors or bivector
        slots, at base points (..., dim); a constant constraint without node axes."""
        x = np.asarray(x, dtype=float)
        if self.constant:
            x = x.reshape(-1, self.dim)[0]
        nodes = x.shape[:-1]
        size = self.dim if self.degree == 1 else pair_count(self.dim)
        values = np.empty(nodes + (len(self._fields), size))
        for node in np.ndindex(nodes):
            for k, field in enumerate(self._fields):
                value = field(x[node]) if callable(field) else field
                values[node + (k,)] = value.slots if self.degree == 2 else value
        section, generators = values[..., 0, :], values[..., 1:, :]
        if generators.shape[-2]:
            dependent = np.linalg.matrix_rank(generators) < generators.shape[-2]
            if np.any(dependent):
                point = x[np.unravel_index(np.argmax(dependent), nodes)]
                raise ValueError(
                    f"constraint generators are linearly dependent at x = {point.tolist()}"
                )
        return section, generators

    def at(self, x):
        """Section and generators at a base point, with independence checked."""
        section, generators = self._fields_at(x)
        element = (lambda s: Bivector(s, self.dim)) if self.degree == 2 else (lambda s: s)
        return element(section), [element(u) for u in generators]

    def annihilator_at(self, x) -> np.ndarray:
        _, generators = self._fields_at(x)
        return _annihilator(generators, self.degree, self.dim)


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
    (``eta . (v - a)`` on curves, ``contract(eta, w - a)`` on surfaces),
    and the rows themselves, (r, dim) for a constant constraint and
    (..., r, dim) per node otherwise.
    """
    if constraint.dim != grid.dim:
        raise ValueError(f"constraint dimension {constraint.dim} does not match grid ({grid.dim})")
    if isinstance(grid, SurfaceGrid):
        degree, x, w = 2, grid.points[1:-1, 1:-1], wedge_prolongation(grid)[1:-1, 1:-1]
    else:
        degree, x, w = 1, grid.points[1:-1], velocity_prolongation(grid)[1:-1]
    if constraint.degree != degree:
        raise ValueError(f"a degree-{constraint.degree} constraint does not apply to a "
                         f"degree-{degree} grid")
    section, generators = constraint._fields_at(x)
    ann = _annihilator(generators, degree, grid.dim, x)
    defect = np.einsum("...rm,...km->...rk", ann, _maps(w - section, degree, grid.dim))
    return np.abs(defect).max(axis=-1), ann


# perfbench/tracing.py times membership under this earlier name
constraint_residual_curve = constraint_residual


def _in_user_basis(delta: np.ndarray, ann: np.ndarray, generators) -> np.ndarray:
    """Coefficients of the annihilator-parallel part of ``delta`` in a
    caller-supplied basis of the constant annihilator ``ann``."""
    user = np.vstack([np.asarray(u, dtype=float) for u in generators])
    if user.shape[1] != ann.shape[1]:
        raise ValueError("user annihilator generators have the wrong dimension")
    if user.shape[0] != ann.shape[0] or np.linalg.matrix_rank(user) != ann.shape[0]:
        raise ValueError("user annihilator generators do not form a basis of the annihilator")
    back = np.abs(user - (user @ ann.T) @ ann).max()
    if back > 1e-10 * max(1.0, float(np.abs(user).max())):
        raise ValueError("user annihilator generators leave the computed annihilator span")
    return (delta @ user.T) @ np.linalg.inv(user @ user.T)


def _worst(values: np.ndarray) -> tuple:
    """Grid index of the largest per-node value."""
    return tuple(int(i) + 1 for i in np.unravel_index(int(np.argmax(values)), values.shape))


def _check(L, grid, constraint, constraint_tol, force_tol, annihilator_generators):
    """Body of both check spellings, which call it rather than each other so
    that one call is one check (perfbench/tracing.py wraps both names)."""
    if force_tol is None:
        force_tol = constraint_tol
    if not (constraint_tol > 0.0 and force_tol > 0.0):
        raise ValueError("tolerances must be positive")
    if annihilator_generators is not None and not constraint.constant:
        raise ValueError("explicit annihilator generators require a constant constraint")
    residuals, ann = constraint_residual(grid, constraint)
    delta_L = delta_L_surface if isinstance(grid, SurfaceGrid) else delta_L_curve
    delta = delta_L(L, grid).values
    multipliers, orthogonal = dalembert_decompose(delta, ann)
    if annihilator_generators is not None:
        multipliers = _in_user_basis(delta, ann, annihilator_generators)
    node_residuals = residuals.max(axis=-1, initial=0.0)  # vacuous with no annihilator
    orth_norms = np.abs(orthogonal).max(axis=-1)
    cmax = float(node_residuals.max())
    dmax = float(orth_norms.max())
    return ConstraintCheckReport(
        constraint_tol=float(constraint_tol),
        force_tol=float(force_tol),
        constraint_residuals=residuals,
        multipliers=multipliers,
        orthogonal_norms=orth_norms,
        constraint_max=cmax,
        constraint_worst=_worst(node_residuals),
        dalembert_max=dmax,
        dalembert_worst=_worst(orth_norms),
        constraint_passed=bool(cmax <= constraint_tol),
        dalembert_passed=bool(dmax <= force_tol),
    )


def nonholonomic_check(
    L,
    grid,
    constraint: AffineConstraint,
    constraint_tol: float,
    force_tol: float | None = None,
    annihilator_generators: Sequence[np.ndarray] | None = None,
) -> ConstraintCheckReport:
    """Membership and force-balance check of a sampled curve or surface.

    ``grid`` is a `CurveGrid` with a degree-1 constraint or a
    `SurfaceGrid` with a degree-2 one.  The two defects carry different
    units and discretization error, so they get separate tolerances;
    ``force_tol`` defaults to the membership one.  When
    ``annihilator_generators`` are supplied (a basis of the same
    annihilator of a constant constraint), multipliers are reported in
    that basis via a change-of-basis solve.
    """
    return _check(L, grid, constraint, constraint_tol, force_tol, annihilator_generators)


def nonholonomic_check_curve(
    L,
    grid: CurveGrid,
    constraint: AffineConstraint1,
    constraint_tol: float,
    force_tol: float | None = None,
    annihilator_generators: Sequence[np.ndarray] | None = None,
) -> ConstraintCheckReport:
    """`nonholonomic_check` with the degree fixed to 1 (curves)."""
    if not isinstance(grid, CurveGrid):
        raise ValueError("nonholonomic_check_curve needs a CurveGrid")
    return _check(L, grid, constraint, constraint_tol, force_tol, annihilator_generators)

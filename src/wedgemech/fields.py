"""Lagrangian fields on vector and bivector bundles, and the Morse family
that generates the Hamiltonian side of the area dynamics.

Curves (n = 1) and surfaces (n = 2) share one derivative protocol: a field
declares its ``degree`` n and is a scalar ``F(x, e)`` of a base point and a
fiber element of ``wedge^n`` stored by independent slots (a vector's
components, a bivector's ordered index pairs).  Fiber derivatives are
antisymmetrized, with the 1/n! factor that follows from the degree,

    p_I = (1/n!) dL/d(slot I),

so a curve momentum is the plain partial and a bivector momentum is half
the slot derivative; that makes the Legendre map of the area Lagrangian
come out as ``p = h(w, .) / L`` with no stray factors of two.  The Morse
family ``H(p, r)`` has no base point; its velocities use the same
convention, ``xdot^I = (1/2) dH/dp_I``.  Derivatives in the base point
are plain partials.  Both phase residuals are pairs: (force, momentum)
on the Lagrangian side, (force, velocity) on the Hamiltonian side, with
the force the element's own (`tulczyjew`), so one Lagrangian residual
serves a curve element and a surface element alike.

Subclasses provide `value_slots` (vectorized over leading axes); the
gradient methods fall back to central finite differences with step
``cbrt(eps) * max(1, |coordinate|)`` and are overridden with closed forms
by the built-in fields.  All fields are stateless and safe to share.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Bivector,
    FiberMetric,
    Metric,
    MomentumBivector,
    dual_fiber_metric,
    induced_fiber_metric,
    pair_count,
)
from .tulczyjew import PhaseElement1, PhaseElement2

__all__ = [
    "BivectorLagrangian",
    "CallableBivectorLagrangian",
    "CurveLagrangian",
    "FieldDomainError",
    "MorseFamily",
    "hamiltonian_phase_residual",
    "lagrangian_phase_residual",
    "nambu_goto",
    "plateau_lagrangian",
    "quadratic_area_lagrangian",
    "quadratic_curve_lagrangian",
]

_FD_STEP = float(np.cbrt(np.finfo(float).eps))


class FieldDomainError(ValueError):
    """Evaluation or derivative requested outside a field's domain."""


def _fd_gradient(fn, base, *, scale=1.0):
    """Central differences of ``fn`` in the last axis of ``base``.

    ``fn`` maps (..., n) -> (...); the result has shape (..., n).  The
    perturbation is applied one coordinate at a time, so ``fn`` may be an
    arbitrary vectorized field.
    """
    base = np.asarray(base, dtype=float)
    out = np.empty(base.shape)
    for i in range(base.shape[-1]):
        h = _FD_STEP * np.maximum(1.0, np.abs(base[..., i]))
        up = base.copy()
        up[..., i] += h
        down = base.copy()
        down[..., i] -= h
        out[..., i] = (fn(up) - fn(down)) / (2.0 * h) * scale
    return out


def _arrays(x, e):
    """Float arrays of a base point and of a fiber element's slots."""
    return np.asarray(x, dtype=float), np.asarray(getattr(e, "slots", e), dtype=float)


class _SlotField:
    """Scalar field ``F(x, e)`` of points (..., dim) and slots (..., s) of a degree-n element; a
    subclass declares ``degree``, names its element type and wraps `momentum_slots` in `momentum`."""

    degree: int

    def __init__(self, dim: int):
        self.dim = int(dim)

    # --- required override -------------------------------------------------
    def value_slots(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Evaluate on arrays of points (..., dim) and slots (..., s)."""
        raise NotImplementedError

    # --- derivative access, overridden with closed forms where available ---
    def gradient_x_slots(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        return _fd_gradient(lambda xs: self.value_slots(xs, e), x)

    def momentum_slots(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        return _fd_gradient(lambda es: self.value_slots(x, es), e, scale=1 / math.factorial(self.degree))

    def derivative_mask(self, x: np.ndarray, e: np.ndarray):
        """Boolean array marking nodes where derivative access is defined,
        or None when the field is everywhere differentiable."""
        return None

    # --- scalar wrappers ----------------------------------------------------
    def value(self, x, e) -> float:
        return float(self.value_slots(*_arrays(x, e)))

    def gradient_x(self, x, e) -> np.ndarray:
        return self.gradient_x_slots(*_arrays(x, e))


class BivectorLagrangian(_SlotField):
    """Scalar field ``L(x, w)`` on the velocity bivector bundle."""

    degree = 2

    def momentum(self, x, w: Bivector) -> MomentumBivector:
        return MomentumBivector(self.momentum_slots(*_arrays(x, w)), self.dim)


class CallableBivectorLagrangian(BivectorLagrangian):
    """Adapter for a plain python function ``fn(x, w: Bivector) -> float``."""

    def __init__(self, dim: int, fn):
        super().__init__(dim)
        self._fn = fn

    def value_slots(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        lead = np.broadcast_shapes(x.shape[:-1], w.shape[:-1])
        xb = np.broadcast_to(x, lead + x.shape[-1:])
        wb = np.broadcast_to(w, lead + w.shape[-1:])
        out = np.empty(lead)
        for idx in np.ndindex(lead):
            out[idx] = self._fn(xb[idx], Bivector(wb[idx], self.dim))
        return out if lead else float(out)


class _SqrtQuadraticLagrangian(BivectorLagrangian):
    """``L = sqrt(scale * w^T H w)`` over slots, H the slot matrix of a fiber metric.

    The area Lagrangians take scale 4, which makes the form the
    unrestricted four-index sum ``(w|w)``; the Morse family's root
    ``sqrt((p|p)*)`` takes scale 1 on the dual metric.  H is the metric's
    own matrix, not a scaled copy; a power-of-two scale commutes with
    rounding away from overflow and subnormals, so the form is bit for bit
    that of the scaled matrix.  The factory sets ``strict``, whatever H is:
    the area Lagrangians and the Morse root are strict, so undefined
    wherever the form is nonpositive, even for a positive-definite H (the
    Euclidean ``nambu_goto`` at w = 0); the plateau integrand is lenient,
    evaluating everywhere but losing derivative access on the zero set.
    """

    def __init__(self, fiber_metric: FiberMetric, scale: float, strict: bool):
        super().__init__(fiber_metric.dim)
        self.fiber_metric = fiber_metric
        self.scale = float(scale)
        self.strict = bool(strict)

    def _form(self, w):
        with np.errstate(over="ignore"):  # an overflowed form is refused below
            q = self.scale * np.einsum("...i,ij,...j->...", w, self.fiber_metric.slot_matrix, w)
        if not np.isfinite(q).all():  # no value, and no momentum to divide out
            raise FieldDomainError("quadratic form is not finite at some requested point")
        return q

    def value_slots(self, x, w):
        q = self._form(np.asarray(w, dtype=float))
        if self.strict and np.any(q <= 0.0):
            raise FieldDomainError(
                f"outside the positivity domain: quadratic form is {float(np.min(q))!r} <= 0"
            )
        return np.sqrt(np.maximum(q, 0.0))

    def gradient_x_slots(self, x, w):  # no dependence on the base point
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return np.zeros(np.broadcast_shapes(x.shape[:-1], w.shape[:-1]) + x.shape[-1:])

    def momentum_slots(self, x, w):
        return self._half_gradient(w, self.scale)

    def _half_gradient(self, w, factor: float):
        """``factor H w / (2 sqrt(w^T H w))``: the momentum at the scale, a Morse velocity at r."""
        w = np.asarray(w, dtype=float)
        q = self._form(w)
        if np.any(q <= 0.0):
            raise FieldDomainError(f"derivative undefined: quadratic form is {float(np.min(q))!r} "
                                   "<= 0 at some requested point")
        with np.errstate(over="ignore"):  # a finite form can still have an infinite gradient
            p = factor * (w @ self.fiber_metric.slot_matrix) / (2.0 * np.sqrt(q))[..., None]
        if not np.isfinite(p).all():
            raise FieldDomainError("gradient is not finite at some requested point")
        return p

    def derivative_mask(self, x, w):
        return self._form(np.asarray(w, dtype=float)) > 0.0


def nambu_goto(g: Metric) -> BivectorLagrangian:
    """Area Lagrangian of the fiber metric induced by a point metric.

    Defined on the positive cone ``(w|w) > 0``; for the Euclidean plane
    bivector ``e1 ^ e2`` its value is 2 (the unrestricted-sum convention),
    and the Legendre image has unit momentum norm under the dual pairing.
    """
    return quadratic_area_lagrangian(induced_fiber_metric(g))


def quadratic_area_lagrangian(h: FiberMetric) -> BivectorLagrangian:
    """Area Lagrangian ``L(w) = sqrt((w|w))`` for an explicitly supplied fiber metric."""
    return _SqrtQuadraticLagrangian(h, 4.0, strict=True)


def plateau_lagrangian(dim: int = 3) -> BivectorLagrangian:
    """Unnormalized graph-area integrand ``L(w) = sqrt(sum_{mu,nu} (w^{mu nu})^2)``.

    The sum runs over all ordered and unordered pairs, i.e. twice the
    slot-wise sum of squares, so the unit plane bivector has L = sqrt(2).
    Defined everywhere; derivative access is lost only at w = 0.
    """
    return _SqrtQuadraticLagrangian(FiberMetric(np.eye(pair_count(dim)), dim), 2.0, strict=False)


class MorseFamily:
    """Generating family ``H(p, r) = r (sqrt((p|p)*) - 1)`` of the area dynamics.

    ``(p|p)*`` is the dual momentum pairing (slot-restricted sum with the
    inverse-metric fiber coefficients), and its root is the scale-1 area
    field of the dual metric: the same domain (``(p|p)*`` positive and
    finite) and the same half-gradient, times r.  Criticality in the
    auxiliary parameter r carves out exactly the unit momentum sphere, and
    the p-gradient at a Legendre image ``p = dL/dw`` recovers the velocity
    ray: at r = L(w) it returns w itself.
    """

    def __init__(self, g: Metric):
        self.metric = g
        self.dim = g.dim
        self.dual = dual_fiber_metric(g)
        self._root = _SqrtQuadraticLagrangian(self.dual, 1.0, strict=True)

    def value_slots(self, p, r):
        return r * (self._root.value_slots(None, p) - 1.0)

    def value(self, p: MomentumBivector, r: float) -> float:
        return float(self.value_slots(p.slots, float(r)))

    def d_r(self, p: MomentumBivector) -> float:
        """Partial in the family parameter; zero exactly on the unit sphere."""
        return float(self._root.value_slots(None, p.slots) - 1.0)

    def velocity_slots(self, p, r):
        return self._root._half_gradient(p, float(r))

    def velocity(self, p: MomentumBivector, r: float) -> Bivector:
        """Half-gradient in p; at ``p = dL/dw`` and ``r = L(w)`` equals w."""
        return Bivector(self.velocity_slots(p.slots, r), self.dim)


def lagrangian_phase_residual(L: _SlotField, e: PhaseElement1 | PhaseElement2):
    """Defect of ``force = dL/dx`` and ``p = dL/dxdot`` at a phase element of
    either degree (the force is ``pdot`` for a curve, ``ybar`` for a surface).

    Returns the pair (force defect, momentum defect).
    """
    return e.force - L.gradient_x(e.x, e.xdot), e.p - L.momentum(e.x, e.xdot)


def hamiltonian_phase_residual(family: MorseFamily, e: PhaseElement2, r: float):
    """Defect of ``ybar = -dH/dx`` and ``w = (1/2) dH/dp`` at a phase element, for the
    Morse family at ``r``; H has no base point, so the force defect is the force itself.

    Returns the pair (force defect, velocity defect).
    """
    return e.force, e.xdot - family.velocity(e.p, r)


class CurveLagrangian(_SlotField):
    """Scalar field ``L(x, v)`` on the tangent bundle, for curve problems;
    the slots of a velocity vector are its components."""

    degree = 1

    def momentum(self, x, v) -> np.ndarray:
        return self.momentum_slots(*_arrays(x, v))


class _QuadraticCurveLagrangian(CurveLagrangian):
    def __init__(self, dim: int, omega: float, mass: float):
        super().__init__(dim)
        self.omega = float(omega)
        self.mass = float(mass)

    @property
    def _omega_squared(self) -> float:
        try:  # a Python float power raises where numpy would give inf
            squared = self.omega**2
        except OverflowError:
            squared = np.inf
        if not np.isfinite(self.mass * squared):
            raise FieldDomainError(f"mass * omega**2 is not finite: {self.mass!r} * {self.omega!r}**2")
        return squared

    def value_slots(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        kinetic = 0.5 * self.mass * np.einsum("...i,...i->...", v, v)
        potential = 0.5 * self.mass * self._omega_squared * np.einsum("...i,...i->...", x, x)
        return kinetic - potential

    def gradient_x_slots(self, x, v):
        return -self.mass * self._omega_squared * np.asarray(x, dtype=float) * np.ones_like(np.asarray(v, dtype=float))

    def momentum_slots(self, x, v):
        return self.mass * np.asarray(v, dtype=float) * np.ones_like(np.asarray(x, dtype=float))


def quadratic_curve_lagrangian(dim: int, omega: float = 0.0, mass: float = 1.0) -> CurveLagrangian:
    """``L = (m/2)|v|^2 - (m omega^2/2)|x|^2``; omega = 0 is the free particle."""
    return _QuadraticCurveLagrangian(dim, omega, mass)

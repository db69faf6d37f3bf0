"""Sampled curves and surfaces, and discrete Euler-Lagrange residuals.

Curves (n = 1) and surfaces (n = 2) share one pipeline: a grid declares
its ``degree`` n and one parameter step per axis, one prolongation forms
the tangents and the velocity element (a curve's tangent, the wedge of a
surface's two), and one residual body takes the momentum ``P`` (the 1/n!
of `fields`) and keeps the interior nodes.  Only the transport term
depends on n:

    delta_nu = dL/dx^nu - d_t P_nu                                 (n = 1)
    delta_nu = dL/dx^nu - d_t S^mu d_s P_{mu nu} + d_s S^mu d_t P_{mu nu}

The transport term contracts each tangent into the momentum's derivative
on the slots themselves (`geometry.contract_slots`), one axis at a time,
so a residual forms no (dim, dim) array per node and holds at most one
momentum derivative.

Parameter derivatives are second-order central differences in the
interior and second-order one-sided on the boundary rows (`numpy.gradient`
with ``edge_order=2``); residuals are reported on interior nodes only,
where the outer derivative of the momentum field is itself central.  A
tangent or residual that overflows raises `NodeDomainError` at its node.

`delta_L_surface_via_maps` assembles the same surface covector from the
phase elements of the momentum surface, stacked over the interior nodes,
through one call of the velocity-side canonical map `tulczyjew.alpha`
(named ``alpha2`` here); the routes agree to rounding because the force
it carries, the trace of the mixed block, reproduces the expanded sum.
Keeping both is deliberate: their agreement is a standing cross-check of
the canonical maps.

Assembly is deterministic: every reduction runs in a fixed order, so
repeated runs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Bivector, MomentumBivector, contract_slots, wedge_slots
from .tulczyjew import PhaseElement2
from .tulczyjew import alpha as alpha2  # perfbench/tracing.py counts calls under this name

__all__ = [
    "CovectorField",
    "CurveGrid",
    "NodeDomainError",
    "SurfaceGrid",
    "delta_L_curve",
    "delta_L_surface",
    "delta_L_surface_via_maps",
    "velocity_prolongation",
    "wedge_prolongation",
]


class NodeDomainError(ValueError):
    """A field was undefined at a grid node; carries the node index."""

    def __init__(self, message: str, node: tuple):
        super().__init__(f"{message} at node {node}")
        self.node = node


class _Grid:
    """A sampled curve or surface: its ``degree`` of parameter axes, a positive step and at
    least 5 finite samples per axis, read-only points and ``dim`` >= ``degree`` coordinates."""

    degree: int

    def __post_init__(self):
        name = type(self).__name__
        if not all(h > 0.0 for h in self.steps):
            raise ValueError("grid steps must be positive")
        pts = np.array(self.points, dtype=float)
        if pts.ndim != self.degree + 1:
            raise ValueError(f"{name}: expected {self.degree + 1}-d sample array, got shape {pts.shape}")
        for axis, count in enumerate(pts.shape[:-1]):
            if count < 5:
                raise ValueError(f"{name}: need at least 5 samples along axis {axis}, got {count}")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"{name}: sample coordinates must be finite")
        if pts.shape[-1] < self.degree:
            raise ValueError(f"{name}: ambient dimension must be at least {self.degree}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class SurfaceGrid(_Grid):
    """Uniformly sampled parameterized surface (degree 2): points (nt, ns, m)."""

    dt: float
    ds: float
    points: np.ndarray
    degree = 2

    @property
    def shape(self) -> tuple:
        return self.points.shape[:2]

    @property
    def steps(self) -> tuple:
        return (self.dt, self.ds)

    @classmethod
    def sample(cls, fn, t_axis, s_axis) -> "SurfaceGrid":
        """Sample ``fn(t, s) -> point`` on [t0, t1] x [s0, s1] with nt x ns nodes."""
        t0, t1, nt = t_axis
        s0, s1, ns = s_axis
        ts = np.linspace(t0, t1, nt)
        ss = np.linspace(s0, s1, ns)
        pts = np.array([[fn(t, s) for s in ss] for t in ts], dtype=float)
        return cls(ts[1] - ts[0], ss[1] - ss[0], pts)

    @classmethod
    def from_graph(cls, xs, ys, z) -> "SurfaceGrid":
        """Embed height samples z (len(xs), len(ys)) as (x, y, z(x, y))."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        z = np.asarray(z, dtype=float)
        if z.shape != (xs.size, ys.size):
            raise ValueError(f"height samples {z.shape} do not match axes ({xs.size}, {ys.size})")
        for name, axis in (("xs", xs), ("ys", ys)):  # atol scales with the coordinates
            steps = np.diff(axis)
            if axis.size < 2 or not np.allclose(steps, steps[0], rtol=1e-12,
                                                atol=1e-14 * np.abs(axis).max()):
                raise ValueError(f"{name} must be uniformly spaced")
        pts = np.empty(z.shape + (3,))
        pts[..., 0] = xs[:, None]
        pts[..., 1] = ys[None, :]
        pts[..., 2] = z
        return cls(float(xs[1] - xs[0]), float(ys[1] - ys[0]), pts)


@dataclass(frozen=True)
class CurveGrid(_Grid):
    """Uniformly sampled parameterized curve (degree 1): points (n, m)."""

    dt: float
    points: np.ndarray
    degree = 1

    @property
    def steps(self) -> tuple:
        return (self.dt,)

    @classmethod
    def sample(cls, fn, t0: float, t1: float, num: int) -> "CurveGrid":
        ts = np.linspace(t0, t1, num)
        pts = np.array([np.atleast_1d(fn(t)) for t in ts], dtype=float)
        return cls(ts[1] - ts[0], pts)


def _along_axis(values: np.ndarray, grid, k: int) -> np.ndarray:
    """Derivative of node samples along parameter axis ``k`` of ``grid``."""
    return np.gradient(values, grid.steps[k], axis=k, edge_order=2)


def _along_axes(values: np.ndarray, grid) -> list:
    """Derivative of node samples along each parameter axis of ``grid``."""
    return [_along_axis(values, grid, k) for k in range(grid.degree)]


def _interior(grid) -> tuple:
    """Index of the interior nodes of ``grid``: all but the first and last along each axis."""
    return (slice(1, -1),) * grid.degree


def _require_finite(finite: np.ndarray, message: str, offset: int = 0):
    """`NodeDomainError` at the first node, in C order, where ``finite`` is false, numbered
    from ``offset`` (1 for the nodes of an interior block)."""
    if not finite.all():
        node = np.unravel_index(finite.argmin(), finite.shape)
        raise NodeDomainError(message, tuple(int(k) + offset for k in node))


@np.errstate(over="ignore", invalid="ignore")  # differences past the range are refused below
def _prolongation(grid):
    """Tangents along each axis, and the velocity element: a curve's tangent,
    the wedge slots of a surface's two tangents."""
    tangents = _along_axes(grid.points, grid)
    w = tangents[0] if grid.degree == 1 else wedge_slots(*tangents)
    # a tangent that is not finite makes a slot of its wedge not finite too (dim >= 2)
    _require_finite(np.isfinite(w).all(axis=-1), "tangent or velocity element not finite")
    return tangents, w


def velocity_prolongation(grid) -> np.ndarray:
    """Sampled velocity element of a grid: vectors (n, m) along a curve,
    tangent bivector slots (nt, ns, K) over a surface."""
    return _prolongation(grid)[1]


wedge_prolongation = velocity_prolongation  # the surface spelling


def worst_node(values: np.ndarray) -> tuple:
    """Grid index of the largest of per-interior-node ``values``, the first in C order on ties."""
    return tuple(int(i) + 1 for i in np.unravel_index(int(np.argmax(values)), values.shape))


@dataclass(frozen=True)
class CovectorField:
    """Covector samples over the interior nodes of a parameter grid.

    ``values[i - 1, ..., :]`` belongs to global node ``i, ...``.
    """

    values: np.ndarray

    def max_norm(self) -> float:
        return float(np.abs(self.values).max())


def _require_fit(item, grid, kind: str):
    """Refuse a field or a constraint (``kind``) whose dimension, then degree, is not the grid's."""
    if item.dim != grid.dim:
        raise ValueError(f"{kind} dimension {item.dim} does not match grid ({grid.dim})")
    if item.degree != grid.degree:
        raise ValueError(f"a degree-{item.degree} {kind} does not apply to a degree-{grid.degree} grid")


def _prolonged_momentum(L, grid):
    """Points, tangents, velocity element and momentum slots of ``L`` along
    a grid, once `_require_fit` accepts ``L`` and the derivative domain is checked."""
    _require_fit(L, grid, "field")
    x = grid.points
    tangents, w = _prolongation(grid)
    mask = L.derivative_mask(x, w)
    if mask is not None and not np.all(mask):
        node = tuple(int(v) for v in np.argwhere(~mask)[0])
        raise NodeDomainError("Lagrangian derivative undefined", node)
    return x, tangents, w, L.momentum_slots(x, w)


@np.errstate(over="ignore", invalid="ignore")  # a residual past the range is refused below
def _delta_L(L, grid) -> CovectorField:
    """First-variation defect along a curve or a surface; only the
    transport term differs between the degrees.

    A surface check's peak memory is here, so each whole-grid array is
    dropped once it is used and the transport term is taken one axis at a
    time: at most one momentum derivative is held.
    """
    inner = _interior(grid)
    x, tangents, w, p = _prolonged_momentum(L, grid)
    gradient = L.gradient_x_slots(x, w)[inner]
    del w
    if grid.degree == 1:
        delta = gradient - _along_axis(p, grid, 0)[inner]
    else:
        # (gradient - tt . d_s p) + ts . d_t p: each tangent contracts, on the slots,
        # into the momentum's derivative along the other axis
        tt, ts = tangents
        del tangents
        delta = contract_slots(tt[inner], _along_axis(p, grid, 1)[inner])
        np.subtract(gradient, delta, out=delta)
        del tt, gradient
        dpt = _along_axis(p, grid, 0)[inner]
        del p
        delta += contract_slots(ts[inner], dpt)
    _require_finite(np.isfinite(delta).all(axis=-1), "Euler-Lagrange residual not finite", 1)
    return CovectorField(delta)


# two functions, not one under two names: perfbench/tracing.py wraps each name
def delta_L_surface(L, grid: SurfaceGrid) -> CovectorField:
    """First-variation defect of a bivector Lagrangian along a sampled surface."""
    return _delta_L(L, grid)


def delta_L_curve(L, grid: CurveGrid) -> CovectorField:
    """First-variation defect of a curve Lagrangian along a sampled curve."""
    return _delta_L(L, grid)


@np.errstate(over="ignore", invalid="ignore")  # a residual past the range is refused below
def delta_L_surface_via_maps(L, grid: SurfaceGrid):
    """Same defect, assembled through phase elements and the canonical map.

    Returns ``(field, momentum_defect)``: the second entry is the largest
    deviation between the stored momentum block and its recomputation,
    which is zero up to rounding by construction and kept as a guard.
    """
    if grid.degree != 2:
        raise ValueError(f"delta_L_surface_via_maps needs a degree-2 grid, "
                         f"got a degree-{grid.degree} grid")
    x, (tt, ts), w, p = _prolonged_momentum(L, grid)
    dpt, dps = _along_axes(p, grid)
    x, tt, ts, w, p, dpt, dps = (a[_interior(grid)] for a in (x, tt, ts, w, p, dpt, dps))
    # holonomic blocks of the prolonged momentum surface, one per interior node
    y = tt[..., :, None] * dps[..., None, :] - ts[..., :, None] * dpt[..., None, :]
    pdot = dpt[..., :, None] * dps[..., None, :] - dps[..., :, None] * dpt[..., None, :]
    _require_finite(np.isfinite(y).all(axis=(-2, -1)) & np.isfinite(pdot).all(axis=(-2, -1)),
                    "holonomic block not finite", 1)
    element = PhaseElement2(x, MomentumBivector(p, grid.dim), Bivector(w, grid.dim), y, pdot)
    x, xdot, force, p = alpha2(element)
    field = L.gradient_x(x, xdot) - force
    _require_finite(np.isfinite(field).all(axis=-1), "Euler-Lagrange residual not finite", 1)
    defect = L.momentum(x, xdot) - p
    return CovectorField(field), float(np.abs(defect.slots).max())

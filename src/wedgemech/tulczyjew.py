"""Canonical maps of the Tulczyjew triple: one triple for curves and surfaces.

An element of the middle space carries, over a base point ``x``, a
momentum ``p``, a velocity ``xdot`` and a force block:

    degree 1 (curves)     `PhaseElement1`: blocks (x, p, xdot, pdot)
    degree 2 (surfaces)   `PhaseElement2`: blocks (x, p, xdot, y, pdot)

In degree 2, ``p`` is a momentum bivector (slots p_{lambda kappa},
lambda < kappa), ``xdot`` a velocity bivector, ``y`` the mixed block
y^eta_{theta rho} stored as a (dim, K) array over slots theta < rho of the
lower pair, and ``pdot`` the block p-dot_{(gamma delta)(epsilon zeta)},
stored as an antisymmetric (K, K) matrix over slot pairs.

The degrees differ only in which block the maps carry as the force, and
each element says it as ``e.force``: ``pdot`` in degree 1, and in degree 2
the trace ``ybar_rho = y^eta_{eta rho}`` of the mixed block (the degree-2
``pdot`` drops out identically, which is pinned by tests).  With it, each
leg is one formula for both degrees, a plain 4-tuple:

    beta:  e -> (x, p, -force, xdot)      on the momentum side
    alpha: e -> (x, xdot, +force, p)      on the velocity side

``beta`` is contraction with the canonical (multi)symplectic form
(convention ``i_{v^w} omega (z) = omega(v, w, z)`` in degree 2); its sign
is fixed by requiring that matching ``beta`` against dH reproduce
Hamilton's equations ``xdot = dH/dp``, ``pdot = -dH/dx`` in degree 1.
``alpha`` is ``beta`` followed by the cotangent flip
``(x, p, a, b) -> (x, b, -a, p)``; both identities are exact component
permutations (with one negation), never arithmetic.

Every degree-2 block may carry the same leading node axes, (..., dim),
(..., K), (..., dim, K) and (..., K, K): a `PhaseElement2` is then a stack
of elements, validated once, and each map applies its one formula to the
whole stack, with the same values node for node as one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Bivector, MomentumBivector, index_pairs, pair_count

__all__ = [
    "PhaseElement1",
    "PhaseElement2",
    "alpha",
    "beta",
    "cotangent_flip",
    "trace_y",
]


def _block(arr, shape: tuple, name: str) -> np.ndarray:
    """Read-only float copy of ``arr``, which must have ``shape`` and finite entries."""
    out = np.array(arr, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: entries must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhaseElement1:
    """Tangent element of the cotangent bundle: blocks (x, p, xdot, pdot)."""

    x: np.ndarray
    p: np.ndarray
    xdot: np.ndarray
    pdot: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        dim = x.shape[0] if x.ndim == 1 else 0
        if dim < 1:
            raise ValueError("x must be a nonempty vector")
        for name in ("x", "p", "xdot", "pdot"):
            object.__setattr__(self, name, _block(getattr(self, name), (dim,), name))

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    @property
    def force(self) -> np.ndarray:
        """The block the maps carry as the force: ``pdot``."""
        return self.pdot


@dataclass(frozen=True)
class PhaseElement2:
    """Element of the middle space of the degree-2 triple, or a stack of them.

    ``y`` has shape (..., dim, K) with the last index running over ordered
    slots; ``pdot`` is an exactly antisymmetric (..., K, K) matrix over
    slots.  The leading node axes of all five blocks must agree.
    """

    x: np.ndarray
    p: MomentumBivector
    xdot: Bivector
    y: np.ndarray
    pdot: np.ndarray

    def __post_init__(self):
        if not isinstance(self.p, MomentumBivector):
            raise TypeError("p must be a MomentumBivector")
        if not isinstance(self.xdot, Bivector):
            raise TypeError("xdot must be a Bivector")
        dim = self.p.dim
        k = pair_count(dim)
        nodes = self.p.slots.shape[:-1]
        if self.xdot.dim != dim:
            raise ValueError(f"xdot dimension {self.xdot.dim} does not match p ({dim})")
        if self.xdot.slots.shape[:-1] != nodes:
            raise ValueError(f"xdot node axes {self.xdot.slots.shape[:-1]} do not match p {nodes}")
        object.__setattr__(self, "x", _block(self.x, nodes + (dim,), "x"))
        object.__setattr__(self, "y", _block(self.y, nodes + (dim, k), "y"))
        pdot = _block(self.pdot, nodes + (k, k), "pdot")
        if not np.array_equal(pdot, -np.swapaxes(pdot, -1, -2)):
            raise ValueError("pdot must be antisymmetric under slot exchange")
        object.__setattr__(self, "pdot", pdot)

    @property
    def dim(self) -> int:
        return self.p.dim

    @property
    def force(self) -> np.ndarray:
        """The block the maps carry as the force: the trace ``ybar`` of ``y``."""
        return trace_y(self.y, self.dim)

    @classmethod
    def zero(cls, dim: int) -> "PhaseElement2":
        k = pair_count(dim)
        return cls(
            np.zeros(dim),
            MomentumBivector(np.zeros(k), dim),
            Bivector(np.zeros(k), dim),
            np.zeros((dim, k)),
            np.zeros((k, k)),
        )


def trace_y(y: np.ndarray, dim: int) -> np.ndarray:
    """Trace ``ybar_rho = y^eta_{eta rho}`` of mixed blocks (..., dim, K) stored by slots.

    Slot (theta, rho) adds its ``y^theta`` entry to ``ybar_rho`` and subtracts
    its ``y^rho`` entry from ``ybar_theta``, the signs of the antisymmetric
    lower pair.  Taken in slot order, each ``ybar_rho`` sums its terms by
    ascending ``eta`` from +0.0, as the expanded trace does, so a block with
    a single stored entry traces exactly and no (..., dim, dim, dim) array
    is built.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-2:] != (dim, pair_count(dim)) or y.ndim < 2:
        raise ValueError(f"y: expected shape (..., {dim}, {pair_count(dim)}), got {y.shape}")
    ybar = np.zeros(y.shape[:-2] + (dim,))
    for slot, (theta, rho) in enumerate(index_pairs(dim)):
        ybar[..., rho] += y[..., theta, slot]
        ybar[..., theta] -= y[..., rho, slot]
    return ybar


def beta(e: PhaseElement1 | PhaseElement2) -> tuple:
    """Momentum-side leg: ``e -> (x, p, -force, xdot)``."""
    return (e.x, e.p, -e.force, e.xdot)


def alpha(e: PhaseElement1 | PhaseElement2) -> tuple:
    """Velocity-side leg: ``e -> (x, xdot, force, p)``."""
    return (e.x, e.xdot, e.force, e.p)


def cotangent_flip(cov: tuple) -> tuple:
    """Flip T*(T*M) -> T*(TM): ``(x, p, a, b) -> (x, b, -a, p)``."""
    x, p, a, b = cov
    return (x, b, -a, p)

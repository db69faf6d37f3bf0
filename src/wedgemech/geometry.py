"""Exterior-algebra primitives in a fixed coordinate chart.

Conventions used throughout the package:

* Vectors and one-forms are plain 1-d float arrays.  There is no wrapper
  class for rank-1 objects; index position (up or down) is tracked by the
  operation, not the type.

* A bivector stores only its independent components ``u^{mu nu}`` with
  ``mu < nu``, ordered lexicographically: (0,1), (0,2), ..., (0,m-1),
  (1,2), ...  `antisymmetric_from_slots` derives the full antisymmetric
  matrix from the slots, so ``u^{nu mu} = -u^{mu nu}`` holds exactly,
  never only up to rounding.  Covariant bivectors (momenta ``p_{mu nu}``)
  use the same storage with lower indices.

* A bivector acts on one-forms by the contraction ``eta -> eta_mu
  u^{mu nu}``.  `contract_slots` takes it on the slots themselves, with
  the sums of the expanded matrix product in the same order, so stacks of
  nodes are contracted without a dense (dim, dim) array per node.

* A `FiberMetric` is the slot matrix ``H`` of ``h_{mu nu kappa lambda}``.
  The scalar product of two bivectors sums over all four indices without
  restriction, ``(u|w) = h_{mu nu kappa lambda} u^{mu nu} w^{kappa lambda}
  = 4 u.H.w`` over slots, so a simple Euclidean ``v ^ u`` has ``(v^u|v^u) =
  4 * area(v, u)**2``: the area field takes the form at scale 4 (`fields`).
  Momenta pair slot by slot, so the dual product ``(p|p)* = p.H.p`` is one
  quarter of the unrestricted sum, the Morse root's scale 1; under it the
  Legendre images of area-type Lagrangians land on the unit sphere.

Every object is immutable after construction and every function is pure,
so values can be shared freely between threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, cached_property
from math import isfinite

import numpy as np

__all__ = [
    "Bivector",
    "FiberMetric",
    "Metric",
    "MomentumBivector",
    "antisymmetric_from_slots",
    "contract_slots",
    "dual_fiber_metric",
    "exterior_square",
    "index_pairs",
    "induced_fiber_metric",
    "pair_count",
    "wedge",
    "wedge_slots",
]

_DEGENERACY_TOL = 1e-12


def pair_count(dim: int) -> int:
    """Number of independent bivector components in dimension ``dim``."""
    return dim * (dim - 1) // 2


@lru_cache(maxsize=None)
def index_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Ordered index pairs (mu, nu), mu < nu, in lexicographic order."""
    if dim < 2:
        raise ValueError(f"need dimension >= 2 for bivectors, got {dim}")
    return tuple((a, b) for a in range(dim) for b in range(a + 1, dim))


@lru_cache(maxsize=None)
def _pair_columns(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second indices of `index_pairs` as two read-only (K,) arrays."""
    first, second = np.array(index_pairs(dim)).T
    first.flags.writeable = second.flags.writeable = False
    return first, second


def pair_slot(dim: int, mu: int, nu: int) -> int:
    """Slot index of the ordered pair (mu, nu) with 0 <= mu < nu < dim: its
    position in `index_pairs`, after the dim - 1 + ... + dim - mu pairs that
    start below mu.  Any other pair is a `KeyError`."""
    if not 0 <= mu < nu < dim:
        raise KeyError((mu, nu))
    return mu * (2 * dim - mu - 1) // 2 + nu - mu - 1


def antisymmetric_from_slots(slots: np.ndarray, dim: int) -> np.ndarray:
    """Expand slot components (..., K) to full antisymmetric arrays (..., dim, dim).

    The lower triangle is written as the exact negation of the upper one,
    so antisymmetry of the result is a structural fact.
    """
    slots = np.asarray(slots, dtype=float)
    a, b = _pair_columns(dim)
    full = np.zeros(slots.shape[:-1] + (dim, dim))
    full[..., a, b] = slots
    full[..., b, a] = -slots
    return full


def _validated_slots(slots, dim: int) -> np.ndarray:
    """A float copy of ``slots``, checked for dimension and shape."""
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
    arr = np.array(slots, dtype=float)
    if arr.shape[-1:] != (pair_count(dim),):
        raise ValueError(
            f"expected {pair_count(dim)} independent components for dimension "
            f"{dim}, got shape {arr.shape}"
        )
    return arr


class _SlotStored:
    """Shared machinery for slot-stored antisymmetric rank-2 tensors.

    ``slots`` has shape (..., K): one tensor, or a stack of them over
    leading node axes that every elementwise operation carries along.
    Every instance, however it was built, ends in `_seal`.
    """

    __slots__ = ("slots", "dim")

    def __init__(self, slots, dim: int):
        dim = int(dim)
        slots = _validated_slots(slots, dim)
        _seal(self, slots, dim, np.isfinite(slots).all())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, slots):
        return type(self)(slots, self.dim)

    def _check_same(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check_same(other)
        return self._like(self.slots + other.slots)

    def __sub__(self, other):
        self._check_same(other)
        return self._like(self.slots - other.slots)

    def __neg__(self):
        return self._like(-self.slots)

    def __mul__(self, scale):
        return self._like(self.slots * float(scale))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.dim == self.dim
            and np.array_equal(other.slots, self.slots)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.dim, self.slots.shape, self.slots.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, slots={self.slots.tolist()})"


_SET_SLOTS, _SET_DIM = _SlotStored.slots.__set__, _SlotStored.dim.__set__  # faster than setattr


def _seal(tensor: _SlotStored, slots: np.ndarray, dim: int, finite) -> _SlotStored:
    """``tensor`` over ``slots``, made read-only, and ``dim``, once the slots are
    known to be ``finite``: the one finiteness rule of every slot array."""
    if not finite:
        raise ValueError("components must be finite")
    slots.setflags(write=False)
    _SET_SLOTS(tensor, slots)
    _SET_DIM(tensor, dim)
    return tensor


class Bivector(_SlotStored):
    """Contravariant bivector ``u^{mu nu}`` stored by independent slots mu < nu."""


class MomentumBivector(_SlotStored):
    """Covariant bivector ``p_{mu nu}`` (a momentum) stored by independent slots."""


def wedge_slots(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slot components of ``v ^ u`` for arrays of vectors (..., m) -> (..., K).

    Each slot is the 2x2 minor ``v^mu u^nu - v^nu u^mu``; no factor 1/2.
    The slots of one ``mu`` are contiguous, so each such run is taken from
    basic slices of ``v`` and ``u``, not from gathered copies.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != u.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {u.shape}")
    m = v.shape[-1]
    slots = np.empty(v.shape[:-1] + (len(index_pairs(m)),))  # refuses m < 2
    start = 0
    for mu in range(m - 1):  # slots (mu, mu + 1) ... (mu, m - 1)
        stop = start + m - 1 - mu
        head, tail = slice(mu, mu + 1), slice(mu + 1, None)
        slots[..., start:stop] = v[..., head] * u[..., tail] - v[..., tail] * u[..., head]
        start = stop
    return slots


def contract_slots(eta: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """One-forms (..., dim) contracted into bivector slots (..., K): ``eta_mu u^{mu nu}``.

    Leading axes broadcast.  Each sum starts from zero and runs over ascending
    ``mu``, as ``einsum`` sums the product with `antisymmetric_from_slots`, so
    for finite ``eta`` the result is that product bit for bit, signed zeros
    included; but no (dim, dim) array is formed.
    """
    eta = np.asarray(eta, dtype=float)
    slots = np.asarray(slots, dtype=float)
    dim = eta.shape[-1]
    if slots.shape[-1:] != (pair_count(dim),):
        raise ValueError(f"expected {pair_count(dim)} slots for dimension {dim}, "
                         f"got shape {slots.shape}")
    out = np.zeros(np.broadcast_shapes(eta.shape[:-1], slots.shape[:-1]) + (dim,))
    # lexicographic pairs reach each out[nu] in ascending mu: first (mu, nu), mu < nu,
    # then (nu, mu), mu > nu, whose u^{mu nu} is the negated slot
    for k, (a, b) in enumerate(index_pairs(dim)):
        out[..., b] += eta[..., a] * slots[..., k]
        out[..., a] -= eta[..., b] * slots[..., k]
    return out


def exterior_square(A: np.ndarray) -> np.ndarray:
    """The (K, K) matrix of 2x2 minors of a square matrix: ``wedge^2 A`` on slots.

    Entry (I, J), I = (i, j), J = (a, b), is ``A[i, a] A[j, b] - A[i, b] A[j, a]``,
    so ``exterior_square(A) @ wedge_slots(u, v) == wedge_slots(A u, A v)``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    a, b = _pair_columns(A.shape[0])
    i, j = a[:, None], b[:, None]
    # + 0.0 turns -0.0 into 0.0: no minor is a negative zero
    return A[i, a] * A[j, b] - A[i, b] * A[j, a] + 0.0


def wedge(v: np.ndarray, u: np.ndarray) -> Bivector:
    """Wedge product of two vectors, as one `Bivector`.

    The slots are the minors of `wedge_slots`, bit for bit: the same IEEE
    products and differences, taken on Python floats.  This is the per-node
    path of point-dependent constraint generators, where numpy's per-call
    overhead would cost most of a call, so the `Bivector` is built over the
    fresh minors with one finiteness test and no second copy.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.ndim != 1 or u.ndim != 1:
        raise ValueError("wedge expects rank-1 arrays")
    vs, us = v.tolist(), u.tolist()
    if len(vs) != len(us):
        raise ValueError(f"dimension mismatch: {v.shape} vs {u.shape}")
    minors = [vs[i] * us[j] - vs[j] * us[i] for i, j in index_pairs(len(vs))]
    return _seal(object.__new__(Bivector), np.array(minors), len(vs), all(map(isfinite, minors)))


@dataclass(frozen=True, eq=False)
class Metric:
    """Constant symmetric nondegenerate metric on the model space.

    ``signature`` is read from the matrix: "euclidean" (positive definite)
    or "lorentz" (exactly one negative eigenvalue).  A matrix with two or
    more negative eigenvalues is out of scope here and rejected at
    construction.
    """

    matrix: np.ndarray
    signature: str = field(init=False)

    def __post_init__(self):
        g = np.array(self.matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"metric must be a square matrix, got shape {g.shape}")
        if g.shape[0] < 2:
            raise ValueError("metric dimension must be at least 2")
        if not np.isfinite(g).all():
            raise ValueError("metric entries must be finite")
        # relative to the largest entry, so rescaling a metric keeps its verdict
        if float(np.abs(g - g.T).max()) > 1e-12 * float(np.abs(g).max()):
            raise ValueError("metric matrix is not symmetric")
        g = (g + g.T) / 2.0
        eig = np.linalg.eigvalsh(g)
        # relative to the largest eigenvalue, so rescaling a metric keeps its verdict
        if np.abs(eig).min() <= _DEGENERACY_TOL * np.abs(eig).max():
            raise ValueError("metric is degenerate (min |eigenvalue| <= 1e-12 max |eigenvalue|)")
        negatives = int(np.sum(eig < 0.0))
        if negatives > 1:
            raise ValueError(f"matrix has {negatives} negative eigenvalues; only euclidean (0) "
                             f"and lorentz (1) signatures are supported")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "signature", ("euclidean", "lorentz")[negatives])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.linalg.inv(self.matrix)
        inv = (inv + inv.T) / 2.0
        inv.flags.writeable = False
        return inv

    @classmethod
    def euclidean(cls, dim: int) -> "Metric":
        return cls(np.eye(dim))

    @classmethod
    def minkowski(cls, dim: int) -> "Metric":
        """Signature (-, +, ..., +) with the time direction first."""
        g = np.eye(dim)
        g[0, 0] = -1.0
        return cls(g)


@dataclass(frozen=True, eq=False)
class FiberMetric:
    """Symmetric pairing of bivectors, stored as its (K, K) slot matrix.

    ``slot_matrix[I, J] = h_{mu nu kappa lambda}`` over ordered pairs I = (mu, nu),
    J = (kappa, lambda): the antisymmetry of ``h`` in each pair holds by construction,
    its symmetry under exchange of the pairs is the exact symmetry of the matrix.
    """

    slot_matrix: np.ndarray
    dim: int

    def __post_init__(self):
        dim, m = int(self.dim), np.asarray(self.slot_matrix, dtype=float)
        if m.flags.writeable or not m.flags.owndata:  # a frozen array of its own is kept
            m = m.copy()
        k = pair_count(dim)
        if dim < 2 or m.shape != (k, k):
            raise ValueError(f"need dimension >= 2 and slot matrix shape ({k}, {k}), "
                             f"got dimension {dim} and shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("coefficients must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("slot matrix is not symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "slot_matrix", m)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def from_point_metric(cls, g: np.ndarray) -> "FiberMetric":
        """The fiber metric of a point metric ``g``: its `exterior_square`."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
            minors = exterior_square(g)
        return cls(minors, np.shape(g)[0])


def induced_fiber_metric(g: Metric) -> FiberMetric:
    """Fiber metric ``h = g (x) g - swap`` induced by a point metric."""
    return FiberMetric.from_point_metric(g.matrix)


def dual_fiber_metric(g: Metric) -> FiberMetric:
    """Fiber metric on momenta, built from the inverse point metric.

    By the Cauchy-Binet identity its slot matrix is the inverse of the
    slot matrix of `induced_fiber_metric`, which is what makes the
    Legendre image of the area Lagrangian a unit momentum under the dual
    product ``(p|p)* = p.H.p``.
    """
    return FiberMetric.from_point_metric(g.inverse)

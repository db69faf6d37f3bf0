"""Covariance of the area field and of the Morse sphere under a linear change of coordinates.

A point metric g pulled back by x = A x' is g' = A^T g A, and a velocity
bivector w' in the new coordinates is w = E w' in the old ones, E = wedge^2 A
the matrix of 2x2 minors of A.  The area Lagrangian is a scalar, so
L_{g'}(w') = L_g(E w'); its momenta are covectors, p' = E^T p; the Legendre
image stays on the unit sphere of the Morse family of g', and the family's
velocity at r = L_{g'}(w') gives w' back.  None of these needs a golden:
each side is computed on its own and the two must agree to roundoff.

Tolerances are multiples of eps * cond(A).  Each quantity passes through a
bounded number of roundings (the 2x2 minors of g', a quadratic form over at
most 10 slots, a square root and a division; the Hamiltonian side also the
inverse of g'), each amplified by at most the conditioning of the change of
coordinates.  With cond(A) <= 4 and the SPD metrics below, the largest
relative defect seen over 400 draws per dimension was 13 eps cond(A), for
the velocity, and at most 3.3 eps cond(A) for the others, so a factor of 64
leaves a margin of about 5 for the velocity and 20 for the rest.
"""

import numpy as np
import pytest

from wedgemech.fields import (
    MorseFamily,
    euler_pairing,
    hamiltonian_phase_residual,
    nambu_goto,
)
from wedgemech.geometry import Bivector, Metric, index_pairs, pair_count, wedge_slots
from wedgemech.tulczyjew import PhaseElement2

_EPS = np.finfo(float).eps
_FACTOR = 64.0


def _change_of_coordinates(rng, dim):
    """A with singular values in [0.5, 2] (cond(A) <= 4) and its exterior square E."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    A = q1 @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q2
    a, b = np.array(index_pairs(dim)).T
    E = wedge_slots(A[:, a].T, A[:, b].T).T  # column J: the slots of A e_a ^ A e_b
    return A, E


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_area_field_and_morse_sphere_are_covariant(dim):
    rng = np.random.default_rng(700 + dim)
    k = pair_count(dim)
    for _ in range(100):
        A, E = _change_of_coordinates(rng, dim)
        tol = _FACTOR * _EPS * np.linalg.cond(A)
        a = rng.normal(size=(dim, dim))
        g = Metric.from_matrix(a @ a.T + dim * np.eye(dim))
        pulled = A.T @ g.matrix @ A
        g_new = Metric.from_matrix((pulled + pulled.T) / 2.0)
        L, L_new = nambu_goto(g), nambu_goto(g_new)
        x_new = rng.normal(size=dim)
        w_new = Bivector(rng.normal(size=k), dim)  # g is SPD, so every w' is in the cone
        w = Bivector(E @ w_new.slots, dim)

        value, value_new = L.value(A @ x_new, w), L_new.value(x_new, w_new)
        assert abs(value_new - value) <= tol * value

        p, p_new = L.momentum(A @ x_new, w), L_new.momentum(x_new, w_new)
        pulled_p = E.T @ p.slots
        assert np.abs(p_new.slots - pulled_p).max() <= tol * np.abs(pulled_p).max()
        # and they are the Legendre images: degree-1 homogeneity pairs p' with w' to L'
        assert abs(euler_pairing(p_new, w_new) - value_new) <= tol * value_new

        family = MorseFamily(g_new)
        assert abs(family.d_r(p_new)) <= tol
        element = PhaseElement2(x_new, p_new, w_new, np.zeros((dim, k)), np.zeros((k, k)))
        force, velocity = hamiltonian_phase_residual(family, element, value_new)
        assert np.array_equal(force, np.zeros(dim))
        assert np.abs(velocity.slots).max() <= tol * np.abs(w_new.slots).max()

"""Canonical phase maps, degree 1 and degree 2.

The degree-2 momentum-side map is checked against an oracle that builds
the canonical 3-form by brute-force permutation extension and contracts
it with the element's full coordinate bivector.  The degree-1 signs are
checked behaviorally: a harmonic-oscillator trajectory must satisfy
Hamilton's equations through `beta` and the Euler-Lagrange matching
through `alpha`.
"""

from itertools import permutations

import numpy as np
import pytest

from conftest import random_bivector, random_momentum, random_phase_element2
from wedgemech.geometry import (
    Bivector,
    MomentumBivector,
    antisymmetric_from_slots,
    index_pairs,
    pair_count,
)
from wedgemech.fields import lagrangian_phase_residual, quadratic_curve_lagrangian
from wedgemech.tulczyjew import (
    PhaseElement1,
    PhaseElement2,
    alpha,
    beta,
    cotangent_flip,
    trace_y,
)


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def contraction_oracle(e):
    """Contract the canonical 3-form with the element's coordinate bivector.

    Coordinates on the momentum bundle are ordered (x^0..x^{m-1}, p_0..p_{K-1})
    with p-slots over ordered index pairs.  The 3-form has component +1 on
    (p_I, x^theta, x^rho) for I = (theta < rho), extended antisymmetrically;
    the insertion convention is i_{v^w} omega (z) = omega(v, w, z), extended
    bilinearly, i.e. (1/2) U^{AB} omega_{ABC}.
    """
    dim, k = e.dim, pair_count(e.dim)
    n = dim + k
    omega = np.zeros((n, n, n))
    for i, (t, r) in enumerate(index_pairs(dim)):
        idx = (dim + i, t, r)
        for perm in permutations(range(3)):
            omega[idx[perm[0]], idx[perm[1]], idx[perm[2]]] = _perm_sign(perm)
    big = np.zeros((n, n))
    big[:dim, :dim] = antisymmetric_from_slots(e.xdot.slots, dim)
    big[:dim, dim:] = e.y
    big[dim:, :dim] = -e.y.T
    big[dim:, dim:] = e.pdot
    cov = 0.5 * np.einsum("ab,abc->c", big, omega)
    return cov[:dim], cov[dim:]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_beta2_matches_form_contraction(dim, seed):
    rng = np.random.default_rng(1000 * dim + seed)
    e = random_phase_element2(rng, dim)
    a_oracle, b_oracle = contraction_oracle(e)
    x, p, a, b = beta(e)
    np.testing.assert_allclose(a, a_oracle, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(b.slots, b_oracle, rtol=1e-13, atol=1e-13)
    assert np.array_equal(x, e.x) and p == e.p


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_alpha2_is_flip_of_beta2_exactly(dim):
    rng = np.random.default_rng(77 + dim)
    for _ in range(25):
        e = random_phase_element2(rng, dim)
        via_flip = cotangent_flip(beta(e))
        direct = alpha(e)
        # pure repacking plus one negation: bitwise agreement, not approximate
        assert np.array_equal(via_flip[2], direct[2])
        assert via_flip[1] == direct[1]
        assert via_flip[3] == direct[3]
        assert np.array_equal(via_flip[0], direct[0])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_maps_ignore_pdot_exactly(dim):
    rng = np.random.default_rng(99 + dim)
    e = random_phase_element2(rng, dim)
    a = rng.normal(size=(pair_count(dim),) * 2)
    other = PhaseElement2(e.x, e.p, e.xdot, e.y, a - a.T)
    for f in (alpha, beta):
        assert np.array_equal(f(e)[2], f(other)[2])
    assert beta(e)[3] == beta(other)[3]
    assert alpha(e)[3] == alpha(other)[3]


def test_trace_y_frozen_example():
    # dim 2, single entry y^0_{01} = c: trace picks it up in the rho = 1
    # component and nothing else, exactly.
    c = 0.8125
    y = np.array([[c], [0.0]])
    np.testing.assert_array_equal(trace_y(y, 2), [0.0, c])


def test_trace_y_single_entries_are_exact():
    # each stored entry lands in the trace with the sign of the accessor
    dim = 3
    k = pair_count(dim)
    for eta in range(dim):
        for slot, (t, r) in enumerate(index_pairs(dim)):
            y = np.zeros((dim, k))
            y[eta, slot] = 1.0
            expected = np.zeros(dim)
            if eta == t:
                expected[r] += 1.0
            if eta == r:
                expected[t] -= 1.0
            np.testing.assert_array_equal(trace_y(y, dim), expected)


def test_trace_y_shape_error():
    with pytest.raises(ValueError):
        trace_y(np.zeros((3, 2)), 3)


def test_phase_element2_validation():
    rng = np.random.default_rng(5)
    dim, k = 3, 3
    p = random_momentum(rng, dim)
    w = random_bivector(rng, dim)
    good_pdot = np.zeros((k, k))
    with pytest.raises(ValueError):
        PhaseElement2(np.zeros(2), p, w, np.zeros((dim, k)), good_pdot)
    with pytest.raises(ValueError):
        PhaseElement2(np.zeros(dim), p, w, np.zeros((dim, k + 1)), good_pdot)
    with pytest.raises(ValueError):
        PhaseElement2(np.zeros(dim), p, w, np.zeros((dim, k)), np.eye(k))
    with pytest.raises(TypeError):
        PhaseElement2(np.zeros(dim), w, w, np.zeros((dim, k)), good_pdot)
    zero = PhaseElement2.zero(4)
    assert zero.dim == 4
    assert np.all(zero.y == 0.0)


@pytest.mark.parametrize("nodes", [(), (7,), (4, 5)])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_trace_y_equals_the_expanded_trace_bitwise(dim, nodes):
    # the reference expands the mixed block to (..., dim, dim, dim) and takes
    # its trace; signed zeros and magnitudes far apart test the order of the sum
    rng = np.random.default_rng(800 + dim)
    y = rng.normal(size=nodes + (dim, pair_count(dim))) * 10.0 ** rng.integers(
        -8, 9, size=nodes + (dim, pair_count(dim)))
    y[rng.random(y.shape) < 0.2] = -0.0
    y[rng.random(y.shape) < 0.2] = 0.0
    expanded = np.einsum("...aab->...b", antisymmetric_from_slots(y, dim))
    assert trace_y(y, dim).tobytes() == expanded.tobytes()


def _node(e, idx):
    """Element ``idx`` of a stacked phase element, built on its own."""
    return PhaseElement2(e.x[idx], MomentumBivector(e.p.slots[idx], e.dim),
                         Bivector(e.xdot.slots[idx], e.dim), e.y[idx], e.pdot[idx])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stacked_maps_equal_per_node_calls_bitwise(dim):
    rng = np.random.default_rng(500 + dim)
    e = random_phase_element2(rng, dim, nodes=(4, 5))
    stacked = {f: f(e) for f in (alpha, beta)}
    flipped = cotangent_flip(stacked[beta])
    for idx in np.ndindex(4, 5):
        one = _node(e, idx)
        a, b = alpha(one), beta(one)
        assert np.array_equal(stacked[alpha][2][idx], a[2])
        assert np.array_equal(stacked[alpha][3].slots[idx], a[3].slots)
        assert np.array_equal(stacked[alpha][1].slots[idx], a[1].slots)
        assert np.array_equal(stacked[alpha][0][idx], a[0])
        assert np.array_equal(stacked[beta][2][idx], b[2])
        assert np.array_equal(stacked[beta][3].slots[idx], b[3].slots)
        assert np.array_equal(flipped[2][idx], cotangent_flip(b)[2])
        assert np.array_equal(flipped[3].slots[idx], cotangent_flip(b)[3].slots)
        assert np.array_equal(trace_y(e.y, dim)[idx], trace_y(one.y, dim))
        assert np.array_equal(e.pdot[idx], one.pdot)


def test_stacked_blocks_must_share_node_axes():
    rng = np.random.default_rng(8)
    dim, k = 3, 3
    e = random_phase_element2(rng, dim, nodes=(4, 5))
    with pytest.raises(ValueError):
        PhaseElement2(e.x, e.p, Bivector(e.xdot.slots[:3], dim), e.y, e.pdot)
    with pytest.raises(ValueError):
        PhaseElement2(e.x[:, :4], e.p, e.xdot, e.y, e.pdot)
    with pytest.raises(ValueError):
        PhaseElement2(e.x, e.p, e.xdot, e.y[0], e.pdot)
    with pytest.raises(ValueError):
        PhaseElement2(e.x, e.p, e.xdot, e.y, np.zeros((5, 4, k, k)))
    with pytest.raises(ValueError):
        PhaseElement2(e.x, MomentumBivector(e.p.slots[:3], dim), e.xdot, e.y, e.pdot)
    # one non-antisymmetric node is enough to refuse the stack
    pdot = e.pdot.copy()
    pdot[2, 3, 0, 1] += 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        PhaseElement2(e.x, e.p, e.xdot, e.y, pdot)
    y = e.y.copy()
    y[1, 1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PhaseElement2(e.x, e.p, e.xdot, y, e.pdot)


def test_degree1_frozen_permutations():
    e = PhaseElement1(x=[1.0], p=[2.0], xdot=[3.0], pdot=[4.0])
    assert tuple(float(v[0]) for v in alpha(e)) == (1.0, 3.0, 4.0, 2.0)
    assert tuple(float(v[0]) for v in beta(e)) == (1.0, 2.0, -4.0, 3.0)


def test_degree1_flip_identity():
    rng = np.random.default_rng(11)
    e = PhaseElement1(*rng.normal(size=(4, 5)))
    via = cotangent_flip(beta(e))
    for got, want in zip(via, alpha(e)):
        assert np.array_equal(got, want)


def _oscillator(t):
    """Prolongation of x(t) = cos t at time t: blocks (x, p, xdot, pdot)."""
    return np.cos(t), -np.sin(t), -np.sin(t), -np.cos(t)


_TIMES = [0.0, 0.3, 1.7, 4.0]


@pytest.mark.parametrize("t", _TIMES)
def test_degree1_oscillator_signs(t):
    # x(t) = cos t with H = (p^2 + x^2)/2 and L = (v^2 - x^2)/2: the
    # trajectory prolongation must hit dH through beta and dL through
    # alpha, which pins both sign conventions behaviorally.
    x, p, xdot, pdot = _oscillator(t)
    e = PhaseElement1(x=[x], p=[p], xdot=[xdot], pdot=[pdot])

    bx, bp, ba, bb = beta(e)
    assert (bx[0], bp[0]) == (x, p)
    assert ba[0] == np.cos(t)  # dH/dx = x
    assert bb[0] == p  # dH/dp = p

    ax, av, aa, ac = alpha(e)
    assert (ax[0], av[0]) == (x, xdot)
    assert aa[0] == -np.cos(t)  # dL/dx = -x
    assert ac[0] == xdot  # dL/dv = v


@pytest.mark.parametrize("t", _TIMES)
def test_degree1_lagrangian_phase_residual_vanishes_on_the_oscillator(t):
    # the residual reads the element's force, pdot in degree 1, so the
    # surface residual serves a curve Lagrangian with no code of its own
    e = PhaseElement1(*([v] for v in _oscillator(t)))
    force, momentum = lagrangian_phase_residual(quadratic_curve_lagrangian(1, omega=1.0), e)
    assert np.array_equal(force, [0.0]) and np.array_equal(momentum, [0.0])


def test_degree1_validation():
    with pytest.raises(ValueError):
        PhaseElement1(x=[1.0, 2.0], p=[1.0], xdot=[0.0], pdot=[0.0])
    with pytest.raises(ValueError):
        PhaseElement1(x=[np.nan], p=[1.0], xdot=[0.0], pdot=[0.0])

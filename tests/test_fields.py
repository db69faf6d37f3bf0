"""Area Lagrangians, the Morse family, and the phase-equation residuals.

Frozen values (unit plane bivector e1 ^ e2, Euclidean 3-space):
L_area = 2 with momentum p_12 = 1; graph-area field gives sqrt(2) and
1/sqrt(2).  These follow from the unrestricted-sum convention by direct
expansion and pin the normalization used everywhere else.
"""

import numpy as np
import pytest

from conftest import dense_fiber_metric, four_index_sum, random_bivector, random_phase_element2
from wedgemech import fields
from wedgemech.geometry import (
    Bivector,
    Metric,
    MomentumBivector,
    antisymmetric_from_slots,
    dual_fiber_metric,
    induced_fiber_metric,
    pair_count,
    wedge,
)
from wedgemech.fields import (
    CallableBivectorLagrangian,
    FieldDomainError,
    MorseFamily,
    hamiltonian_phase_residual,
    lagrangian_phase_residual,
    nambu_goto,
    plateau_lagrangian,
    quadratic_area_lagrangian,
    quadratic_curve_lagrangian,
)
from wedgemech.tulczyjew import PhaseElement2


def random_spd_metric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return Metric(a @ a.T + dim * np.eye(dim))


def positive_cone_bivector(rng, L, dim):
    """Rejection-sample a bivector with a comfortably positive form."""
    for _ in range(1000):
        w = random_bivector(rng, dim)
        try:
            if L.value(np.zeros(dim), w) > 0.3:
                return w
        except FieldDomainError:
            continue
    raise AssertionError("sampling failed")


def test_area_lagrangian_frozen_values():
    e = np.eye(3)
    w = wedge(e[0], e[1])
    L = nambu_goto(Metric.euclidean(3))
    assert L.value(np.zeros(3), w) == 2.0
    p = L.momentum(np.zeros(3), w)
    np.testing.assert_array_equal(p.slots, [1.0, 0.0, 0.0])

    P = plateau_lagrangian(3)
    assert P.value(np.zeros(3), w) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    np.testing.assert_allclose(P.momentum(np.zeros(3), w).slots, [1.0 / np.sqrt(2.0), 0.0, 0.0], rtol=1e-15)


def test_area_lagrangian_domain_errors():
    L = nambu_goto(Metric.minkowski(4))
    e = np.eye(4)
    spacelike_pair = wedge(e[0], e[1])  # timelike plane: (w|w) = -4
    with pytest.raises(FieldDomainError):
        L.value(np.zeros(4), spacelike_pair)
    with pytest.raises(FieldDomainError):
        L.momentum(np.zeros(4), spacelike_pair)
    # spatial plane is inside the cone
    assert L.value(np.zeros(4), wedge(e[2], e[3])) == 2.0

    P = plateau_lagrangian(3)
    zero = Bivector(np.zeros(3), 3)
    assert P.value(np.zeros(3), zero) == 0.0  # value extends to the origin
    with pytest.raises(FieldDomainError):
        P.momentum(np.zeros(3), zero)


def test_legendre_map_against_printed_formula():
    # p_{mu nu} = (1/L) h_{mu nu lambda kappa} w^{lambda kappa}, the
    # contraction running over all index pairs.
    rng = np.random.default_rng(21)
    g = random_spd_metric(rng, 4)
    L = nambu_goto(g)
    h = induced_fiber_metric(g)
    x = rng.normal(size=4)
    w = positive_cone_bivector(rng, L, 4)
    val = L.value(x, w)
    full_contraction = np.einsum("mnkl,kl->mn", dense_fiber_metric(h),
                                 antisymmetric_from_slots(w.slots, 4)) / val
    p = L.momentum(x, w)
    np.testing.assert_allclose(antisymmetric_from_slots(p.slots, 4), full_contraction,
                               rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("make", [lambda: nambu_goto(Metric.euclidean(3)), lambda: plateau_lagrangian(3)])
def test_homogeneity_degree_one(make):
    L = make()
    rng = np.random.default_rng(22)
    x = rng.normal(size=3)
    w = positive_cone_bivector(rng, L, 3)
    for lam in (0.25, 1.0, 7.5):
        assert L.value(x, lam * w) == pytest.approx(lam * L.value(x, w), rel=1e-12)
        # momenta are degree-zero homogeneous
        np.testing.assert_allclose(
            L.momentum(x, lam * w).slots, L.momentum(x, w).slots, rtol=1e-12
        )


@pytest.mark.parametrize("seed", range(5))
def test_euler_identity(seed):
    # degree-1 homogeneity forces <dL/dw, w> = L, with the pairing summed
    # over all index pairs: twice the slot dot product
    rng = np.random.default_rng(300 + seed)
    g = random_spd_metric(rng, 3)
    L = nambu_goto(g)
    x = rng.normal(size=3)
    w = positive_cone_bivector(rng, L, 3)
    pairing = 2.0 * float(L.momentum(x, w).slots @ w.slots)
    assert pairing == pytest.approx(L.value(x, w), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_legendre_image_is_unit_momentum(seed):
    # the slot-restricted dual pairing is the one normalized so Legendre
    # images are unit momenta; the unrestricted sum gives 4
    rng = np.random.default_rng(400 + seed)
    g = random_spd_metric(rng, 3)
    L = nambu_goto(g)
    w = positive_cone_bivector(rng, L, 3)
    p = L.momentum(np.zeros(3), w)
    dual = dual_fiber_metric(g)
    assert float(p.slots @ dual.slot_matrix @ p.slots) == pytest.approx(1.0, abs=1e-12)
    as_bivector = Bivector(p.slots, 3)
    assert four_index_sum(dual, as_bivector, as_bivector) == pytest.approx(4.0, abs=1e-11)


def test_morse_family_criticality_and_ray():
    rng = np.random.default_rng(23)
    g = random_spd_metric(rng, 3)
    L = nambu_goto(g)
    H = MorseFamily(g)
    w = positive_cone_bivector(rng, L, 3)
    val = L.value(np.zeros(3), w)
    p = L.momentum(np.zeros(3), w)

    # criticality in r picks out the unit sphere, hit exactly by Legendre images
    assert H.d_r(p) == pytest.approx(0.0, abs=1e-12)
    assert H.d_r(2.0 * p) > 0.0
    assert H.value(p, val) == pytest.approx(0.0, abs=1e-11)

    # the p-gradient sweeps the velocity ray; r = L(w) recovers w itself
    np.testing.assert_allclose(H.velocity(p, val).slots, w.slots, rtol=1e-11, atol=1e-13)
    half = H.velocity(p, 0.5 * val)
    np.testing.assert_allclose(half.slots, 0.5 * w.slots, rtol=1e-11, atol=1e-13)

    bad = MomentumBivector(np.zeros(3), 3)
    with pytest.raises(FieldDomainError):
        H.d_r(bad)


def _zero_phase_stack(p: MomentumBivector) -> PhaseElement2:
    """The stack of phase elements over momenta ``p`` with every other block zero."""
    nodes, dim, k = p.slots.shape[:-1], p.dim, p.slots.shape[-1]
    return PhaseElement2(np.zeros(nodes + (dim,)), p, Bivector(np.zeros(p.slots.shape), dim),
                         np.zeros(nodes + (dim, k)), np.zeros(nodes + (k, k)))


def _reference_morse(g, p, r):
    """Reference value and velocity of the Morse family, from the dual slot matrix directly."""
    dual = dual_fiber_metric(g).slot_matrix
    q = np.einsum("...i,ij,...j->...", p, dual, p)
    return r * (np.sqrt(q) - 1.0), float(r) * (p @ dual) / (2.0 * np.sqrt(q))[..., None]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_morse_family_equals_its_own_formulas_bitwise(dim):
    rng = np.random.default_rng(60 + dim)
    k = pair_count(dim)
    p = rng.normal(size=(300, k)) * 10.0 ** rng.uniform(-60, 60, size=(300, 1))
    for g in (Metric.euclidean(dim), Metric.minkowski(dim), random_spd_metric(rng, dim)):
        H = MorseFamily(g)
        inside = np.einsum("...i,ij,...j->...", p, H.dual.slot_matrix, p) > 0.0
        for r in (1.0, 0.37, 2.0 / 3.0, 1e5):
            value, velocity = _reference_morse(g, p[inside], r)
            assert np.array_equal(H.value_slots(p[inside], r), value)
            assert np.array_equal(H.velocity_slots(p[inside], r), velocity)
            e = _zero_phase_stack(MomentumBivector(p[inside], dim))
            force, defect = hamiltonian_phase_residual(H, e, r)
            assert np.array_equal(force, np.zeros(force.shape))
            assert np.array_equal(-defect.slots, velocity)  # 0 - v is exactly -v


def test_morse_family_value_slots_on_stacks():
    rng = np.random.default_rng(32)
    g = random_spd_metric(rng, 3)
    family = MorseFamily(g)
    ps = rng.normal(size=(4, 5, 3))
    ps[..., 0] += 4.0  # (p|p)* > 0 everywhere
    values = family.value_slots(ps, 1.7)
    assert values.shape == (4, 5)
    for i, j in np.ndindex(4, 5):
        assert values[i, j] == family.value(MomentumBivector(ps[i, j], 3), 1.7)


def test_morse_family_refuses_an_overflowing_square():
    # (p|p)* = 1e400 is no number: no root, no value, no velocity
    H = MorseFamily(Metric.euclidean(3))
    p = MomentumBivector([1e200, 0.0, 0.0], 3)
    for call in (lambda: H.d_r(p), lambda: H.value(p, 1.0), lambda: H.velocity(p, 1.0)):
        with pytest.raises(FieldDomainError, match="^quadratic form is not finite"):
            call()


def test_domain_messages_name_the_quadratic_form():
    # one message for the area field of (w|w) and the Morse family's root of (p|p)*
    e = np.eye(4)
    L = nambu_goto(Metric.minkowski(4))
    timelike = wedge(e[0], e[1])  # (w|w) = -4
    with pytest.raises(FieldDomainError,
                       match=r"^outside the positivity domain: quadratic form is -4\.0 <= 0$"):
        L.value(np.zeros(4), timelike)
    with pytest.raises(FieldDomainError, match=r"^derivative undefined: quadratic form is -4\.0 "
                                               r"<= 0 at some requested point$"):
        L.momentum(np.zeros(4), timelike)
    H = MorseFamily(Metric.euclidean(3))
    zero = MomentumBivector(np.zeros(3), 3)
    with pytest.raises(FieldDomainError,
                       match=r"^outside the positivity domain: quadratic form is 0\.0 <= 0$"):
        H.d_r(zero)
    with pytest.raises(FieldDomainError, match=r"^derivative undefined: quadratic form is 0\.0 "
                                               r"<= 0 at some requested point$"):
        H.velocity(zero, 1.0)


def _max_norm(force, momentum):
    """The largest entry of either defect of a Lagrangian phase residual."""
    return max(float(np.abs(force).max()), float(np.abs(momentum.slots).max()))


def test_phase_residuals_vanish_on_consistent_elements():
    rng = np.random.default_rng(24)
    g = random_spd_metric(rng, 3)
    L = nambu_goto(g)
    w = positive_cone_bivector(rng, L, 3)
    x = rng.normal(size=3)
    p = L.momentum(x, w)
    k = pair_count(3)
    e = PhaseElement2(x, p, w, np.zeros((3, k)), np.zeros((k, k)))

    assert _max_norm(*lagrangian_phase_residual(L, e)) <= 1e-14

    force, velocity = hamiltonian_phase_residual(MorseFamily(g), e, L.value(x, w))
    assert float(np.abs(force).max()) <= 1e-14
    assert float(np.abs(velocity.slots).max()) <= 1e-11


def test_phase_residuals_detect_defects():
    g = Metric.euclidean(3)
    L = nambu_goto(g)
    w = wedge(np.eye(3)[0], np.eye(3)[1])
    x = np.zeros(3)
    k = pair_count(3)
    wrong_p = MomentumBivector([1.0, 0.3, 0.0], 3)
    e = PhaseElement2(x, wrong_p, w, np.zeros((3, k)), np.zeros((k, k)))
    force, momentum = lagrangian_phase_residual(L, e)
    assert _max_norm(force, momentum) == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_allclose(momentum.slots, [0.0, 0.3, 0.0], atol=1e-13)

    # a stored y-block enters through its trace
    y = np.zeros((3, k))
    y[0, 1] = 0.25  # y^0_{02}
    e2 = PhaseElement2(x, MomentumBivector([1.0, 0.0, 0.0], 3), w, y, np.zeros((k, k)))
    force2, _ = lagrangian_phase_residual(L, e2)
    np.testing.assert_allclose(force2, [0.0, 0.0, 0.25], atol=1e-13)


def test_every_lagrangian_declares_its_degree_and_no_fiber_scale_is_left():
    # the 1/n! of the fiber derivative follows from the degree alone
    classes = [c for c in vars(fields).values() if isinstance(c, type)]
    lagrangians = [c for c in classes if issubclass(c, fields._SlotField)]
    assert {c.degree for c in lagrangians if c is not fields._SlotField} == {1, 2}
    assert [c for c in classes if hasattr(c, "fiber_scale")] == []
    x, w = np.array([0.2, -0.1, 0.4]), np.array([0.3, -0.5, 0.8])
    surface = CallableBivectorLagrangian(3, lambda x, w: float(np.sum(w.slots**3)))
    unscaled = fields._fd_gradient(lambda ws: surface.value_slots(x, ws), w)
    assert np.array_equal(surface.momentum_slots(x, w), 0.5 * unscaled)


def test_finite_difference_fallback_matches_closed_forms():
    rng = np.random.default_rng(25)
    g = random_spd_metric(rng, 3)
    L = nambu_goto(g)
    wrapped = CallableBivectorLagrangian(3, lambda x, w: L.value(x, w))
    x = rng.normal(size=3)
    w = positive_cone_bivector(rng, L, 3)
    np.testing.assert_allclose(
        wrapped.momentum(x, w).slots, L.momentum(x, w).slots, rtol=1e-6, atol=1e-8
    )
    np.testing.assert_allclose(wrapped.gradient_x(x, w), 0.0, atol=1e-8)


def test_finite_difference_fallback_with_base_dependence():
    # multiply the graph-area field by a potential to get nonzero dL/dx
    base = plateau_lagrangian(3)
    field = CallableBivectorLagrangian(
        3, lambda x, w: (1.0 + float(x @ x)) * base.value(x, w)
    )
    rng = np.random.default_rng(26)
    x = rng.normal(size=3)
    w = random_bivector(rng, 3)
    expected = 2.0 * x * base.value(x, w)
    np.testing.assert_allclose(field.gradient_x(x, w), expected, rtol=1e-6, atol=1e-8)
    expected_p = (1.0 + float(x @ x)) * base.momentum(x, w).slots
    np.testing.assert_allclose(field.momentum(x, w).slots, expected_p, rtol=1e-6)


def test_custom_fiber_metric_lagrangian_matches_induced():
    g = Metric.euclidean(3)
    explicit = quadratic_area_lagrangian(induced_fiber_metric(g))
    implicit = nambu_goto(g)
    rng = np.random.default_rng(27)
    w = positive_cone_bivector(rng, implicit, 3)
    assert explicit.value(np.zeros(3), w) == implicit.value(np.zeros(3), w)
    assert explicit.momentum(np.zeros(3), w) == implicit.momentum(np.zeros(3), w)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_scaled_form_equals_form_of_scaled_matrix_bitwise(dim):
    # the reference is the form of an explicitly scaled slot matrix: 4 h for
    # the area Lagrangians, 2 I for the graph-area one
    rng = np.random.default_rng(30 + dim)
    k = pair_count(dim)
    w = rng.normal(size=(200, k)) * 10.0 ** rng.uniform(-100, 100, size=(200, 1))
    x = np.zeros((200, dim))
    fields = [(plateau_lagrangian(dim), 2.0 * np.eye(k))]
    for g in (Metric.euclidean(dim), Metric.minkowski(dim), random_spd_metric(rng, dim)):
        fields.append((nambu_goto(g), 4.0 * induced_fiber_metric(g).slot_matrix))
        fields.append((quadratic_area_lagrangian(dual_fiber_metric(g)),
                       4.0 * dual_fiber_metric(g).slot_matrix))
    for L, q in fields:
        form = np.einsum("...i,ij,...j->...", w, q, w)
        inside = form > 0.0  # none for Minkowski 2-space, whose one slot is timelike
        assert np.array_equal(L.value_slots(x[inside], w[inside]), np.sqrt(form[inside]))
        momentum = w[inside] @ q / (2.0 * np.sqrt(form[inside]))[..., None]
        assert np.array_equal(L.momentum_slots(x[inside], w[inside]), momentum)


def test_vectorized_evaluation_matches_pointwise():
    L = plateau_lagrangian(3)
    rng = np.random.default_rng(28)
    ws = rng.normal(size=(5, 4, 3))
    xs = rng.normal(size=(5, 4, 3))
    vals = L.value_slots(xs, ws)
    moms = L.momentum_slots(xs, ws)
    for i in range(5):
        for j in range(4):
            assert vals[i, j] == L.value(xs[i, j], Bivector(ws[i, j], 3))
            np.testing.assert_array_equal(
                moms[i, j], L.momentum(xs[i, j], Bivector(ws[i, j], 3)).slots
            )


def test_quadratic_curve_lagrangian():
    rng = np.random.default_rng(29)
    L = quadratic_curve_lagrangian(2, omega=1.5, mass=2.0)
    x = rng.normal(size=2)
    v = rng.normal(size=2)
    assert L.value(x, v) == pytest.approx(float(v @ v) - 2.25 * float(x @ x), rel=1e-14)
    np.testing.assert_allclose(L.momentum(x, v), 2.0 * v, rtol=1e-14)
    np.testing.assert_allclose(L.gradient_x(x, v), -4.5 * x, rtol=1e-14)

    # finite-difference fallbacks of the base class agree with closed forms
    from wedgemech.fields import CurveLagrangian

    free = quadratic_curve_lagrangian(3)
    fd = CurveLagrangian(3)
    fd.value_slots = free.value_slots
    x3, v3 = rng.normal(size=(2, 3))
    np.testing.assert_allclose(fd.momentum(x3, v3), v3, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(fd.gradient_x(x3, v3), 0.0, atol=1e-9)


def test_ignores_pdot_in_residuals():
    rng = np.random.default_rng(31)
    g = Metric.euclidean(3)
    L = nambu_goto(g)
    e = random_phase_element2(rng, 3)
    try:
        base = lagrangian_phase_residual(L, e)
    except FieldDomainError:
        pytest.skip("sampled outside the cone")
    k = pair_count(3)
    a = rng.normal(size=(k, k))
    other = PhaseElement2(e.x, e.p, e.xdot, e.y, a - a.T)
    force, momentum = lagrangian_phase_residual(L, other)
    np.testing.assert_array_equal(force, base[0])
    assert momentum == base[1]

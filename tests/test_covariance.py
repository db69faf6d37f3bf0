"""Covariance under a linear change of coordinates: the area field, the
Morse sphere, the one Tulczyjew triple and the Euler-Lagrange residuals.

A point metric g pulled back by x = A x' is g' = A^T g A, and a velocity
bivector w' in the new coordinates is w = E w' in the old ones, E = wedge^2 A
the matrix of 2x2 minors of A (`exterior_square`).  The area Lagrangian is a scalar, so
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

The triple is lifted from x -> A x in both degrees: base points and curve
velocities move by A, bivector velocities by E, momenta and forces by the
inverse transposes, the mixed block by y -> A y E^-1 and pdot by
E^-T pdot E^-1.  Each map's image of the lifted element must be the lifted
image, with the force written from the element's blocks (pdot, or the
trace of y), so a sign slip in the force or in a map fails.  Only the
degree-2 force is not reproduced exactly: it is the trace of a product
with E^-1, measured at most 5 eps cond(A) of the magnitude of its terms.
The Euler-Lagrange residuals are covectors, so on a grid mapped by an
orthogonal A or a signed permutation they move by A; their rounding is
that of the mapped points, amplified by 1/h^2 through two derivatives,
and measured at most 2.2 eps |x|/h^2 (cond(A) = 1).  The same factor of
64 applies throughout.

An area Lagrangian of any SPD slot matrix H is covariant too: H moves to
E^T H E, and value and momenta follow as for `nambu_goto`, with relative
defects measured at most 4 eps cond(A) in dimensions 3-5 over 400 draws.
In dimension 3 every SPD H is induced by a point metric, up to scale, so
dimensions 4 and 5 carry the case of a fiber metric no point metric induces.

A nonholonomic check is mapped whole: the grid by an orthogonal A, the
section and the generator by E, the plateau integrand unchanged (it is
O(n)-invariant).  Both constraints below have a one-dimensional
annihilator, so its row moves to +-A eta and the multiplier, a scalar,
keeps its magnitude (measured 1.6 eps |x|/h^2).  The membership defect
eta_mu (w - a)^{mu nu} and the orthogonal force are vectors that move by A,
so under a signed permutation, which maps the points exactly, their
sup-norms agree to roundoff (measured 1.5 eps |w - a| and
0.04 eps |x|/h^2).  Under a general orthogonal A only their 2-norms are
invariant, so each sup-norm stays within a factor sqrt(dim) of the
other, up to the rounding of the mapped points: eps |x|/h in each
tangent, times |T| in the wedge (the excess measured 0.6 eps |x| |T|/h),
and eps |x|/h^2 in the force as above (0.6).  The verdicts, whose
tolerances sit far from every defect, do not change.

A curve check in the plane is mapped the same way: the curve by an
orthogonal A, the section and the generator by A itself (velocities are
vectors), the quadratic curve Lagrangian unchanged (it is O(n)-invariant).
One generator in dimension 2 leaves a one-dimensional annihilator, so the
multiplier keeps its magnitude (measured 1.7 eps |x|/h^2), and so does
the membership defect eta . (v - a), a scalar too, under every orthogonal
A: exactly under the first-axis drift's signed permutations, within
1.2 eps |v - a| under the turning drift's, and within 0.6 eps |x|/h under
a rotation, the rounding of the mapped points through one derivative.
The orthogonal force is a vector, so its sup-norms agree to roundoff
under a signed permutation (measured exactly) and stay within sqrt(2) of
each other under a rotation (excess measured 0.06 eps |x|/h^2).  cond(A)
is 1 throughout, and the factor of 64 applies again.
"""

import numpy as np
import pytest

from conftest import random_phase_element2
from wedgemech.constraints import (
    AffineConstraint1,
    AffineConstraint2,
    nonholonomic_check,
    symmetric_slope_constraint,
)
from wedgemech.fields import (
    MorseFamily,
    hamiltonian_phase_residual,
    nambu_goto,
    plateau_lagrangian,
    quadratic_area_lagrangian,
    quadratic_curve_lagrangian,
)
from wedgemech.geometry import (
    Bivector,
    FiberMetric,
    Metric,
    MomentumBivector,
    antisymmetric_from_slots,
    exterior_square,
    pair_count,
    wedge,
    wedge_slots,
)
from wedgemech.plateau import GraphGrid
from wedgemech.tulczyjew import PhaseElement1, PhaseElement2, alpha, beta, cotangent_flip
from wedgemech.variational import (
    CurveGrid,
    SurfaceGrid,
    delta_L_curve,
    delta_L_surface,
    velocity_prolongation,
)

_EPS = np.finfo(float).eps
_FACTOR = 64.0


def _change_of_coordinates(rng, dim):
    """A with singular values in [0.5, 2] (cond(A) <= 4) and its exterior square E."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    A = q1 @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q2
    return A, exterior_square(A)


def _signed_permutation(rng, dim):
    return np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)


def _changes(rng, dim, count):
    """``count`` well-conditioned changes of coordinates, then ``count`` signed permutations."""
    return ([_change_of_coordinates(rng, dim)[0] for _ in range(count)]
            + [_signed_permutation(rng, dim) for _ in range(count)])


def _orthogonal_changes(rng, dim, count):
    """``count`` random orthogonal matrices, then ``count`` signed permutations."""
    return ([np.linalg.qr(rng.normal(size=(dim, dim)))[0] for _ in range(count)]
            + [_signed_permutation(rng, dim) for _ in range(count)])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_exterior_square_maps_wedges(dim):
    rng = np.random.default_rng(600 + dim)
    for A in _changes(rng, dim, 50):
        u, v = rng.normal(size=(2, dim))
        got, want = exterior_square(A) @ wedge_slots(u, v), wedge_slots(A @ u, A @ v)
        # each slot is a difference of two products of entries of A u and A v
        scale = np.abs(A @ u).max() * np.abs(A @ v).max()
        assert np.abs(got - want).max() <= _FACTOR * _EPS * np.linalg.cond(A) * scale


def _lift(A, degree):
    """How velocities and momenta move under x -> A x: (A, A^-T) or (E, E^-T)."""
    velocity = A if degree == 1 else exterior_square(A)
    return velocity, np.linalg.inv(velocity).T


def _lifted(e, A, degree):
    """The element ``e`` in the coordinates x' = A x."""
    velocity, momentum = _lift(A, degree)
    if degree == 1:
        return PhaseElement1(A @ e.x, momentum @ e.p, velocity @ e.xdot, momentum @ e.pdot)
    inverse = np.linalg.inv(velocity)
    pdot = momentum @ e.pdot @ inverse
    return PhaseElement2(A @ e.x, MomentumBivector(momentum @ e.p.slots, e.dim),
                         Bivector(velocity @ e.xdot.slots, e.dim), A @ e.y @ inverse,
                         (pdot - pdot.T) / 2.0)


def _slots(v):
    return getattr(v, "slots", v)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_one_triple_commutes_with_the_lifts(degree, dim):
    rng = np.random.default_rng(800 + 10 * degree + dim)
    for A in _changes(rng, dim, 50):
        e = PhaseElement1(*rng.normal(size=(4, dim))) if degree == 1 else random_phase_element2(rng, dim)
        lifted = _lifted(e, A, degree)
        velocity, momentum = _lift(A, degree)
        cotangent = np.linalg.inv(A).T
        # the force written from the element's blocks, read neither from `e.force` nor `trace_y`
        force = e.pdot if degree == 1 else np.einsum("aab->b", antisymmetric_from_slots(e.y, dim))
        x, v, p = A @ e.x, velocity @ _slots(e.xdot), momentum @ _slots(e.p)
        tol = _FACTOR * _EPS * np.linalg.cond(A) * (np.abs(cotangent) @ np.abs(force)).max()
        expected = {alpha: (x, v, cotangent @ force, p), beta: (x, p, -(cotangent @ force), v)}
        for leg, want in expected.items():
            got = [_slots(block) for block in leg(lifted)]
            for block, value in zip(got, want):
                assert np.abs(block - value).max() <= tol, leg.__name__
        # the flip is a repacking, so it commutes with the lift bit for bit
        _, _, a, b = beta(e)
        _, c, d, _ = cotangent_flip(beta(e))
        on_phase = (x, p, cotangent @ a, velocity @ _slots(b))
        on_config = (x, velocity @ _slots(c), cotangent @ d, p)
        for got, want in zip(cotangent_flip(on_phase), on_config):
            assert np.array_equal(got, want)


def _surface(dim):
    """A non-minimal surface patch in dimension ``dim``."""
    def point(t, s):
        extra = [0.3 * t * s, np.cos(t + s)][:dim - 3]
        return np.array([t, s, np.sin(t) * np.sin(s)] + extra)
    return SurfaceGrid.sample(point, (-1.0, 1.0, 13), (-1.0, 1.0, 11))


def _curve(dim):
    return CurveGrid.sample(lambda t: np.array([np.cos(t), np.sin(2.0 * t)] + [t ** k for k in range(1, dim - 1)]),
                            0.0, 2.0, 41)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_euler_lagrange_residuals_are_covectors(dim):
    rng = np.random.default_rng(900 + dim)
    cases = [(delta_L_surface, plateau_lagrangian(dim), _surface(dim)),
             (delta_L_curve, quadratic_curve_lagrangian(dim, omega=1.5), _curve(dim))]
    for A in _orthogonal_changes(rng, dim, 10):
        for delta_L, L, grid in cases:
            mapped = type(grid)(*grid.steps, grid.points @ A.T)
            got, want = delta_L(L, mapped).values, delta_L(L, grid).values @ A.T
            # two parameter derivatives amplify the rounding of the mapped points by 1/h^2
            scale = np.abs(grid.points).max() / min(grid.steps) ** 2
            assert np.abs(got - want).max() <= _FACTOR * _EPS * scale


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_area_field_and_morse_sphere_are_covariant(dim):
    rng = np.random.default_rng(700 + dim)
    k = pair_count(dim)
    for _ in range(100):
        A, E = _change_of_coordinates(rng, dim)
        tol = _FACTOR * _EPS * np.linalg.cond(A)
        a = rng.normal(size=(dim, dim))
        g = Metric(a @ a.T + dim * np.eye(dim))
        pulled = A.T @ g.matrix @ A
        g_new = Metric((pulled + pulled.T) / 2.0)
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
        # (p_{mu nu} w^{mu nu} over all index pairs, twice the slot dot product)
        assert abs(2.0 * float(p_new.slots @ w_new.slots) - value_new) <= tol * value_new

        family = MorseFamily(g_new)
        assert abs(family.d_r(p_new)) <= tol
        element = PhaseElement2(x_new, p_new, w_new, np.zeros((dim, k)), np.zeros((k, k)))
        force, velocity = hamiltonian_phase_residual(family, element, value_new)
        assert np.array_equal(force, np.zeros(dim))
        assert np.abs(velocity.slots).max() <= tol * np.abs(w_new.slots).max()


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_area_field_of_a_general_fiber_metric_is_covariant(dim):
    rng = np.random.default_rng(1000 + dim)
    k = pair_count(dim)
    for _ in range(100):
        A, E = _change_of_coordinates(rng, dim)
        tol = _FACTOR * _EPS * np.linalg.cond(A)
        a = rng.normal(size=(k, k))
        # SPD, and for dim >= 4 generically induced by no point metric
        H = a @ a.T + k * np.eye(k)
        pulled = E.T @ H @ E
        L, L_new = (quadratic_area_lagrangian(FiberMetric(h, dim))
                    for h in (H, (pulled + pulled.T) / 2.0))
        x_new = rng.normal(size=dim)
        w_new = Bivector(rng.normal(size=k), dim)
        w = Bivector(E @ w_new.slots, dim)

        value, value_new = L.value(A @ x_new, w), L_new.value(x_new, w_new)
        assert abs(value_new - value) <= tol * value
        pulled_p = E.T @ L.momentum(A @ x_new, w).slots
        p_new = L_new.momentum(x_new, w_new)
        assert np.abs(p_new.slots - pulled_p).max() <= tol * np.abs(pulled_p).max()
        assert abs(2.0 * float(p_new.slots @ w_new.slots) - value_new) <= tol * value_new


_E12 = Bivector([1.0, 0.0, 0.0], 3)  # the section of both constraints below
_EXAMPLE7 = symmetric_slope_constraint().at(np.zeros(3))[1][0]  # (e1 - e2) ^ e3


def _turning(x):
    """Generator (e1 - t e2) ^ e3 with t = 0.7 x + 0.2: its annihilator turns with x."""
    return wedge(np.array([1.0, -(0.7 * x[0] + 0.2), 0.0]), np.eye(3)[2])


def _constraint(generator, A):
    """The constraint of section e1 ^ e2 and ``generator`` in the coordinates x' = A x,
    A orthogonal: section and generator moved by E, a callable also read at A^T x'."""
    E = exterior_square(A)
    if callable(generator):
        moved = lambda x: Bivector(E @ generator(x @ A).slots, 3)  # noqa: E731
    else:
        moved = Bivector(E @ generator.slots, 3)
    return AffineConstraint2(3, Bivector(E @ _E12.slots, 3), [moved])


def _graph(height, domain):
    return GraphGrid.sample(domain, 33, 33, height).surface_grid()


_UNIT, _SCHERK = (0.0, 1.0, 0.0, 1.0), (-0.7, 0.7, -0.7, 0.7)


def _scherk(X, Y):
    return np.log(np.cos(Y) / np.cos(X))


# (generator, graph, membership verdict, force-balance verdict) under the
# tolerances 1e-6 and 0.1; each defect is 0 to roundoff or at least 0.009
_CHECKS = {
    "example7-plane": (_EXAMPLE7, lambda X, Y: X + Y + 1.0, _UNIT, True, True),
    "example7-quadratic": (_EXAMPLE7, lambda X, Y: (X + Y) ** 2, _UNIT, True, False),
    "example7-scherk": (_EXAMPLE7, _scherk, _SCHERK, False, True),
    "rotating-satisfied": (_turning, lambda X, Y: 0.35 * X ** 2 + 0.2 * X + Y, _UNIT, True, False),
    "rotating-scherk": (_turning, _scherk, _SCHERK, False, True),
}


@pytest.mark.parametrize("case", list(_CHECKS))
def test_nonholonomic_check_is_covariant(case):
    generator, height, domain, member, balanced = _CHECKS[case]
    grid, L = _graph(height, domain), plateau_lagrangian(3)
    report = nonholonomic_check(L, grid, _constraint(generator, np.eye(3)), 1e-6, 0.1)
    assert (report.constraint_passed, report.dalembert_passed) == (member, balanced)
    h, x_max = min(grid.steps), np.abs(grid.points).max()
    w = velocity_prolongation(grid)[1:-1, 1:-1]
    tangent_max = np.abs(np.gradient(grid.points, *grid.steps, axis=(0, 1))).max()
    force_tol = _FACTOR * _EPS * x_max / h ** 2
    rng = np.random.default_rng(1100 + list(_CHECKS).index(case))
    for A in _orthogonal_changes(rng, 3, 4):
        mapped = nonholonomic_check(L, SurfaceGrid(*grid.steps, grid.points @ A.T),
                                    _constraint(generator, A), 1e-6, 0.1)
        assert (mapped.constraint_passed, mapped.dalembert_passed) == (member, balanced)
        # the multiplier is a scalar, so only its sign may change with eta's
        assert np.abs(np.abs(mapped.multipliers) - np.abs(report.multipliers)).max() <= force_tol
        pairs = [(mapped.constraint_residuals, report.constraint_residuals),
                 (mapped.orthogonal_norms, report.orthogonal_norms)]
        if np.array_equal(np.abs(A), np.abs(A).round()):  # a signed permutation
            member_tol = _FACTOR * _EPS * np.abs(w - _E12.slots).max()
            for (got, want), tol in zip(pairs, (member_tol, force_tol)):
                assert np.abs(got - want).max() <= tol
        else:  # sup-norms of a vector and its rotation: within sqrt(3) of each other
            member_tol = _FACTOR * _EPS * x_max * tangent_max / h
            for (got, want), tol in zip(pairs, (member_tol, force_tol)):
                assert (got <= np.sqrt(3.0) * want + tol).all()
                assert (want <= np.sqrt(3.0) * got + tol).all()


_E1 = np.array([1.0, 0.0])  # the section and generator of the first-axis drift


def _turning_drift(x):
    """Drift direction (1, x - 0.2), the section and generator of a curve constraint
    that turns with x, like the benchmark's rotating curve check."""
    return np.array([1.0, x[0] - 0.2])


def _curve_constraint(field, A):
    """Section and generator ``field`` in the coordinates x' = A x, A orthogonal:
    moved by A, a callable also read at A^T x'."""
    moved = (lambda x: A @ field(x @ A)) if callable(field) else A @ field  # noqa: E731
    return AffineConstraint1(2, moved, [moved])


# (section and generator, curve on [0, 1], omega, membership verdict,
# force-balance verdict) under the tolerances 1e-6 and 0.1; each defect is
# 0 to roundoff, at most 0.0025, or at least 0.38
_CURVE_CHECKS = {
    "drift-oscillator": (_E1, lambda t: (np.sin(t), 0.7), 1.0, True, True),
    "drift-violating": (_E1, lambda t: (np.sin(t), t), 1.0, False, True),
    "turning-satisfied": (_turning_drift, lambda t: (t, t * t / 2 - 0.2 * t + 0.1), 0.0,
                          True, False),
    "turning-violating": (_turning_drift, lambda t: (t, 0.75 * t * t - 0.2 * t + 0.1), 0.0,
                          False, False),
}


@pytest.mark.parametrize("case", list(_CURVE_CHECKS))
def test_nonholonomic_curve_check_is_covariant(case):
    field, curve, omega, member, balanced = _CURVE_CHECKS[case]
    grid, L = CurveGrid.sample(curve, 0.0, 1.0, 101), quadratic_curve_lagrangian(2, omega=omega)
    report = nonholonomic_check(L, grid, _curve_constraint(field, np.eye(2)), 1e-6, 0.1)
    assert (report.constraint_passed, report.dalembert_passed) == (member, balanced)
    h, x_max = grid.steps[0], np.abs(grid.points).max()
    section = np.array([field(x) if callable(field) else field for x in grid.points[1:-1]])
    defect = np.abs(velocity_prolongation(grid)[1:-1] - section).max()
    force_tol = _FACTOR * _EPS * x_max / h ** 2
    rng = np.random.default_rng(1200 + list(_CURVE_CHECKS).index(case))
    for A in _orthogonal_changes(rng, 2, 8):
        mapped = nonholonomic_check(L, CurveGrid(h, grid.points @ A.T),
                                    _curve_constraint(field, A), 1e-6, 0.1)
        assert (mapped.constraint_passed, mapped.dalembert_passed) == (member, balanced)
        # multiplier and membership defect are scalars: only their signs may change
        assert np.abs(np.abs(mapped.multipliers) - np.abs(report.multipliers)).max() <= force_tol
        permutation = np.array_equal(np.abs(A), np.abs(A).round())
        member_tol = _FACTOR * _EPS * (defect if permutation else x_max / h)
        assert np.abs(mapped.constraint_residuals - report.constraint_residuals).max() <= member_tol
        got, want = mapped.orthogonal_norms, report.orthogonal_norms
        if permutation:
            assert np.abs(got - want).max() <= force_tol
        else:  # sup-norms of a vector and its rotation: within sqrt(2) of each other
            assert (got <= np.sqrt(2.0) * want + force_tol).all()
            assert (want <= np.sqrt(2.0) * got + force_tol).all()

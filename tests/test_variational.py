"""Discrete Euler-Lagrange residuals on sampled curves and surfaces.

The surface oracle is the hand-derived divergence form of the graph-area
residual: for z = sin x sin y,

    delta_3 = -(1/sqrt 2) * [(1+zx^2) zyy - 2 zx zy zxy + (1+zy^2) zxx] / W^3

with W^2 = 1 + zx^2 + zy^2, everything evaluated from closed-form
derivatives.  Convergence toward it is second order on the sub-interior
where every contributing stencil is central; the single node layer next
to the boundary mixes one-sided and central values and converges at
first order, which the order checks deliberately step around.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from wedgemech import variational
from wedgemech.constraints import (
    AffineConstraint2,
    constraint_residual,
    first_axis_drift_constraint,
    nonholonomic_check,
    nonholonomic_check_curve,
)
from wedgemech.fields import (
    CallableBivectorLagrangian,
    CurveLagrangian,
    nambu_goto,
    plateau_lagrangian,
    quadratic_curve_lagrangian,
)
from wedgemech.formats import read_grid, write_grid
from wedgemech.geometry import (
    Bivector,
    Metric,
    MomentumBivector,
    antisymmetric_from_slots,
    wedge,
    wedge_slots,
)
from wedgemech.tulczyjew import PhaseElement2, alpha
from wedgemech.variational import (
    CovectorField,
    CurveGrid,
    NodeDomainError,
    SurfaceGrid,
    delta_L_curve,
    delta_L_surface,
    delta_L_surface_via_maps,
    velocity_prolongation,
    wedge_prolongation,
)


def sin_sin_grid(n, lo=-1.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    z = np.sin(xs)[:, None] * np.sin(xs)[None, :]
    return SurfaceGrid.from_graph(xs, xs, z)


def analytic_graph_area_residual(x, y):
    """Closed-form delta_3 for the sin*sin graph under the graph-area field."""
    z = np.sin(x) * np.sin(y)
    zx = np.cos(x) * np.sin(y)
    zy = np.sin(x) * np.cos(y)
    zxy = np.cos(x) * np.cos(y)
    w2 = 1.0 + zx**2 + zy**2
    quasi = (1.0 + zx**2) * (-z) - 2.0 * zx * zy * zxy + (1.0 + zy**2) * (-z)
    return -quasi / (np.sqrt(2.0) * w2**1.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        SurfaceGrid(0.1, 0.1, np.zeros((4, 6, 3)))  # too few samples
    with pytest.raises(ValueError):
        SurfaceGrid(-0.1, 0.1, np.zeros((6, 6, 3)))
    with pytest.raises(ValueError):
        CurveGrid(0.1, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        SurfaceGrid.from_graph([0.0, 0.1, 0.3], [0.0, 0.1, 0.2], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pts = np.zeros((6, 6, 3))
        pts[0, 0, 0] = np.nan
        SurfaceGrid(0.1, 0.1, pts)


@pytest.mark.parametrize("cls, degree", [(CurveGrid, 1), (SurfaceGrid, 2)])
def test_a_grid_declares_its_degree_and_both_degrees_share_one_set_of_rules(tmp_path, cls,
                                                                             degree):
    rng = np.random.default_rng(degree)
    name, steps = cls.__name__, (0.25, 1.0 / 3.0)[:degree]
    points = rng.standard_normal((7,) * degree + (3,))
    grid = cls(*steps, points)
    assert grid.degree == cls.degree == degree and grid.dim == 3
    assert not grid.points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid.points[(0,) * degree] = 1.0
    # each shared rule, and the input it refuses
    refused = [
        ((-0.25,) + steps[1:], points, "grid steps must be positive"),
        (steps[:-1] + (float("nan"),), points, "grid steps must be positive"),
        (steps, points[..., 0], f"{name}: expected {degree + 1}-d sample array"),
        (steps, points[..., :4, :],
         f"{name}: need at least 5 samples along axis {degree - 1}, got 4"),
        (steps, points + [0.0, np.inf, 0.0], f"{name}: sample coordinates must be finite"),
        # below its degree: a curve in no coordinates, a surface in one
        (steps, points[..., : degree - 1], f"{name}: ambient dimension must be at least {degree}"),
    ]
    for bad_steps, bad_points, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            cls(*bad_steps, bad_points)
    # a grid file reads back as the same class, with the same bits
    write_grid(tmp_path / "g.grid", grid)
    back = read_grid(tmp_path / "g.grid")
    assert type(back) is cls and back.steps == grid.steps
    assert back.points.tobytes() == grid.points.tobytes()
    # the fit rule compares dimensions, then the declared degrees
    for item, message in [
        (SimpleNamespace(dim=4, degree=degree), "field dimension 4 does not match grid (3)"),
        (SimpleNamespace(dim=3, degree=3 - degree),
         f"a degree-{3 - degree} field does not apply to a degree-{degree} grid"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            variational._require_fit(item, grid, "field")


@pytest.mark.parametrize("cls, degree", [(CurveGrid, 1), (SurfaceGrid, 2)])
def test_a_step_too_small_for_the_data_is_refused_at_its_node(cls, degree):
    # nodes (k, k) or (i, j, i + j) 1e-320 apart: every difference quotient overflows,
    # and the stencil's edge weights too
    index = np.indices((5,) * degree, dtype=float)
    grid = cls(*(1e-320,) * degree, np.stack([*index, index.sum(axis=0)], -1))
    L = quadratic_curve_lagrangian(2) if degree == 1 else plateau_lagrangian(3)
    calls = [velocity_prolongation, lambda g: variational._delta_L(L, g)]
    calls += [lambda g: delta_L_surface_via_maps(L, g)] if degree == 2 else []
    for call in calls:
        with pytest.raises(NodeDomainError, match="^tangent or velocity element not finite") as err:
            call(grid)
        assert err.value.node == (0,) * degree


@pytest.mark.parametrize("degree", [1, 2])
def test_a_residual_past_the_double_range_is_refused_at_its_node(degree):
    # finite tangents of size 2e9 k, whose momentum differs by 4e9 per step of 1e-300
    index = np.indices((7,) * degree, dtype=float)
    heights = 1e-291 * (index**2).sum(axis=0)
    if degree == 1:
        grid = CurveGrid(1e-300, heights[:, None])
        L, route = quadratic_curve_lagrangian(1), delta_L_curve
    else:
        grid = SurfaceGrid(1e-300, 1e-300, np.stack([1e-300 * index[0], 1e-300 * index[1],
                                                      heights], -1))
        L, route = plateau_lagrangian(3), delta_L_surface
        # the canonical-map route refuses the overflowing block of its phase elements first
        with pytest.raises(NodeDomainError, match="^holonomic block not finite") as err:
            delta_L_surface_via_maps(L, grid)
        assert err.value.node == (1, 1)
    assert np.isfinite(velocity_prolongation(grid)).all()
    with pytest.raises(NodeDomainError, match="^Euler-Lagrange residual not finite") as err:
        route(L, grid)
    assert err.value.node == (1,) * degree


def test_a_field_gradient_past_the_double_range_is_refused_at_its_node():
    # finite values, but the x-derivative on the column t = 0.25 overflows in both routes
    S = SurfaceGrid.sample(lambda t, s: (t, s, 0.0), (0.0, 1.0, 9), (0.0, 1.0, 9))
    L = CallableBivectorLagrangian(3, lambda x, w: 1e308 * np.tanh(1e10 * (x[0] - 0.25)))
    for route in (delta_L_surface, delta_L_surface_via_maps):
        with pytest.raises(NodeDomainError, match="^Euler-Lagrange residual not finite") as err:
            route(L, S)
        assert err.value.node == (2, 1)


@pytest.mark.parametrize("k", [-50, -20, 0, 10, 30])
def test_from_graph_spacing_verdict_does_not_depend_on_units(k):
    # scaling the axes by 2**k is exact, so it must not move the uniform-spacing verdict
    scale = 2.0**k
    uniform = np.linspace(-0.7, 0.7, 9) * scale
    grid = SurfaceGrid.from_graph(uniform, uniform, np.zeros((9, 9)))
    assert (grid.dt, grid.ds) == (uniform[1] - uniform[0],) * 2
    for uneven in ([0.0, 1.0, 2.0, 3.5, 4.0], [0.0, 1.0, 2.0, 3.0 + 1e-9, 4.0]):
        with pytest.raises(ValueError, match="^xs must be uniformly spaced$"):
            SurfaceGrid.from_graph(np.array(uneven) * scale, uniform[:5], np.zeros((5, 5)))


def test_prolongation_of_affine_surface_is_constant():
    a = np.array([0.3, -0.2, 1.0])
    u = np.array([1.0, 0.0, 0.5])
    v = np.array([0.2, 1.0, -0.3])
    S = SurfaceGrid.sample(lambda t, s: a + t * u + s * v, (0.0, 1.0, 9), (0.0, 1.0, 7))
    w = wedge_prolongation(S)
    expected = wedge(u, v).slots
    np.testing.assert_allclose(w, np.broadcast_to(expected, w.shape), rtol=0, atol=1e-13)


def test_prolongation_exact_for_quadratics():
    # central differences differentiate quadratics exactly; the one-sided
    # boundary stencils used here are exact for them as well
    S = SurfaceGrid.sample(
        lambda t, s: np.array([t, s, t * t + t * s]), (0.0, 1.0, 9), (0.0, 1.0, 9)
    )
    w = wedge_prolongation(S)
    ts = np.linspace(0.0, 1.0, 9)
    T, Sg = np.meshgrid(ts, ts, indexing="ij")
    # tangents (1, 0, 2t+s) and (0, 1, t): slots (1, t, -(2t+s))
    np.testing.assert_allclose(w[..., 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(w[..., 1], T, atol=1e-12)
    np.testing.assert_allclose(w[..., 2], -(2.0 * T + Sg), atol=1e-12)


def test_velocity_prolongation_curve():
    C = CurveGrid.sample(lambda t: np.array([np.cos(t), np.sin(t)]), 0.0, 1.0, 201)
    v = velocity_prolongation(C)
    ts = np.linspace(0.0, 1.0, 201)
    np.testing.assert_allclose(v[:, 0], -np.sin(ts), atol=2e-5)
    np.testing.assert_allclose(v[:, 1], np.cos(ts), atol=2e-5)


def test_plane_graph_residual_vanishes():
    xs = np.linspace(0.0, 1.0, 17)
    z = 0.4 * xs[:, None] + 0.7 * xs[None, :] + 0.25
    S = SurfaceGrid.from_graph(xs, xs, z)
    d = delta_L_surface(plateau_lagrangian(3), S)
    assert d.max_norm() <= 1e-12


def test_curve_residual_frozen_parabola():
    # free particle along gamma(t) = t^2: defect is exactly -d(2t)/dt = -2
    C = CurveGrid.sample(lambda t: t * t, 0.0, 1.0, 11)
    d = delta_L_curve(quadratic_curve_lagrangian(1), C)
    np.testing.assert_allclose(d.values, -2.0, rtol=1e-13)


def test_free_line_residual_roundoff():
    C = CurveGrid.sample(
        lambda t: np.array([0.2, -0.4]) + t * np.array([1.0, 0.5]), 0.0, 1.0, 101
    )
    d = delta_L_curve(quadratic_curve_lagrangian(2), C)
    assert d.max_norm() <= 1e-12


def test_oscillator_residual_second_order():
    L = quadratic_curve_lagrangian(1, omega=1.0)
    norms = {}
    for n in (1001, 2001):
        C = CurveGrid.sample(np.cos, 0.0, 2.0 * np.pi, n)
        norms[n] = delta_L_curve(L, C).max_norm()
    assert norms[1001] <= 1e-3
    order = np.log2(norms[1001] / norms[2001])
    assert order >= 1.8


def test_surface_residual_against_analytic_divergence_form():
    S = sin_sin_grid(65)
    d = delta_L_surface(plateau_lagrangian(3), S)
    xs = np.linspace(-1.0, 1.0, 65)[1:-1]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ref = analytic_graph_area_residual(X, Y)
    assert np.abs(d.values[..., 2] - ref).max() <= 5e-3


def test_surface_residual_convergence_order():
    # measured on the sub-interior with purely central stencils
    errs = {}
    for n in (33, 65, 129):
        S = sin_sin_grid(n)
        d = delta_L_surface(plateau_lagrangian(3), S)
        xs = np.linspace(-1.0, 1.0, n)[1:-1]
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        ref = analytic_graph_area_residual(X, Y)
        errs[n] = np.abs(d.values[1:-1, 1:-1, 2] - ref[1:-1, 1:-1]).max()
    assert np.log2(errs[33] / errs[65]) >= 1.8
    assert np.log2(errs[65] / errs[129]) >= 1.8


def test_tangential_components_track_the_normal_one():
    # for a graph under the graph-area field the exact residual satisfies
    # delta_1 = -zx delta_3 and delta_2 = -zy delta_3; monitored discretely
    S = sin_sin_grid(65)
    d = delta_L_surface(plateau_lagrangian(3), S)
    xs = np.linspace(-1.0, 1.0, 65)[1:-1]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    zx = np.cos(X) * np.sin(Y)
    zy = np.sin(X) * np.cos(Y)
    assert np.abs(d.values[..., 0] + zx * d.values[..., 2]).max() <= 5e-4
    assert np.abs(d.values[..., 1] + zy * d.values[..., 2]).max() <= 5e-4


def test_tangential_annihilation_is_second_order():
    # <delta, d_t S> and <delta, d_s S> vanish in the limit; measured at
    # 2.5e-4 on the 65^2 grid and improving at second order
    anns = {}
    for n in (33, 129):
        S = sin_sin_grid(n)
        d = delta_L_surface(plateau_lagrangian(3), S)
        tt = np.gradient(S.points, S.dt, axis=0, edge_order=2)[1:-1, 1:-1]
        anns[n] = np.abs(np.einsum("ijm,ijm->ij", d.values, tt)).max()
    order = np.log2(anns[33] / anns[129]) / 2.0
    assert anns[129] <= 1e-4
    assert order >= 1.8


@pytest.mark.parametrize("field", [plateau_lagrangian(3), nambu_goto(Metric.euclidean(3))])
def test_route_agreement_with_canonical_maps(field):
    # the expanded residual and the phase-element route share their
    # finite-difference inputs, so they agree to rounding
    S = sin_sin_grid(17)
    direct = delta_L_surface(field, S)
    via, momentum_defect = delta_L_surface_via_maps(field, S)
    assert momentum_defect <= 1e-14
    np.testing.assert_allclose(via.values, direct.values, rtol=0, atol=1e-13)


def _via_maps_per_node(L, grid):
    """Reference for `delta_L_surface_via_maps`: one phase element and one
    `alpha` call per interior node."""
    x = grid.points
    tt = np.gradient(x, grid.dt, axis=0, edge_order=2)
    ts = np.gradient(x, grid.ds, axis=1, edge_order=2)
    w = wedge_slots(tt, ts)
    dim = grid.dim
    p = L.momentum_slots(x, w)
    dpt = np.gradient(p, grid.dt, axis=0, edge_order=2)
    dps = np.gradient(p, grid.ds, axis=1, edge_order=2)
    nt, ns = grid.shape
    vals = np.empty((nt - 2, ns - 2, dim))
    momentum_defect = 0.0
    for i in range(1, nt - 1):
        for j in range(1, ns - 1):
            y = np.outer(tt[i, j], dps[i, j]) - np.outer(ts[i, j], dpt[i, j])
            pdot = np.outer(dpt[i, j], dps[i, j]) - np.outer(dps[i, j], dpt[i, j])
            element = PhaseElement2(x[i, j], MomentumBivector(p[i, j], dim),
                                    Bivector(w[i, j], dim), y, pdot)
            _, _, force, momentum = alpha(element)
            vals[i - 1, j - 1] = L.gradient_x(x[i, j], element.xdot) - force
            defect = L.momentum(x[i, j], element.xdot) - momentum
            momentum_defect = max(momentum_defect, float(np.abs(defect.slots).max()))
    return vals, momentum_defect


def _tilted_area(x, w):
    # base-point dependent, so the finite-difference x-gradient is not zero
    return (1.0 + 0.25 * x[2] ** 2) * np.sqrt(2.0 * float(w.slots @ w.slots))


@pytest.mark.parametrize("field", [
    plateau_lagrangian(3),
    nambu_goto(Metric.euclidean(3)),
    CallableBivectorLagrangian(3, _tilted_area),
], ids=["plateau", "nambu-goto", "callable"])
def test_via_maps_equals_per_node_reference_bitwise(field):
    S = sin_sin_grid(9)
    via, momentum_defect = delta_L_surface_via_maps(field, S)
    values, reference_defect = _via_maps_per_node(field, S)
    assert np.array_equal(via.values, values)
    assert momentum_defect == reference_defect


def test_via_maps_calls_alpha2_once_per_surface(monkeypatch):
    calls = []

    def counted(element):
        calls.append(element.x.shape)
        return alpha(element)

    monkeypatch.setattr(variational, "alpha2", counted)
    delta_L_surface_via_maps(plateau_lagrangian(3), sin_sin_grid(17))
    assert calls == [(15, 15, 3)]


def _delta_L_surface_reference(L, grid):
    """Reference for `delta_L_surface`: the surface residual written out on
    its own, with the transport term in its fixed order."""
    x = grid.points
    tt = np.gradient(x, grid.dt, axis=0, edge_order=2)
    ts = np.gradient(x, grid.ds, axis=1, edge_order=2)
    w = wedge_slots(tt, ts)
    p_full = antisymmetric_from_slots(L.momentum_slots(x, w), grid.dim)
    dpt = np.gradient(p_full, grid.dt, axis=0, edge_order=2)
    dps = np.gradient(p_full, grid.ds, axis=1, edge_order=2)
    delta = (
        L.gradient_x_slots(x, w)
        - np.einsum("ijm,ijmn->ijn", tt, dps)
        + np.einsum("ijm,ijmn->ijn", ts, dpt)
    )
    return delta[1:-1, 1:-1]


def _delta_L_curve_reference(L, grid):
    """Reference for `delta_L_curve`: the curve residual written out on its own."""
    x = grid.points
    v = np.gradient(x, grid.dt, axis=0, edge_order=2)
    dp = np.gradient(L.momentum_slots(x, v), grid.dt, axis=0, edge_order=2)
    return (L.gradient_x_slots(x, v) - dp)[1:-1]


class _QuarticCurve(CurveLagrangian):
    """A curve field with no closed-form derivatives: both come from the
    finite-difference fallback."""

    def value_slots(self, x, v):
        return 0.5 * np.sum(v * v, axis=-1) - 0.25 * np.sum(x * x, axis=-1) ** 2


_WAVY_CURVE = CurveGrid.sample(lambda t: (np.cos(t), 0.5 * np.sin(2.0 * t)), 0.0, 1.0, 41)
# not a graph, so every tangent component varies and the rounding of the
# transport term's fixed order shows (a graph over 9 x 9 nodes hides it)
_CONE_PATCH = SurfaceGrid.sample(
    lambda t, s: (np.cos(t) * (1 + 0.3 * s), np.sin(t) * (1 + 0.3 * s), 0.5 * s + 0.2 * t * s),
    (0.0, 1.5, 11), (0.0, 1.0, 9),
)


@pytest.mark.parametrize("field, grid, route, reference", [
    (quadratic_curve_lagrangian(2, omega=1.5), _WAVY_CURVE, delta_L_curve, _delta_L_curve_reference),
    (_QuarticCurve(2), _WAVY_CURVE, delta_L_curve, _delta_L_curve_reference),
    (plateau_lagrangian(3), _CONE_PATCH, delta_L_surface, _delta_L_surface_reference),
    (CallableBivectorLagrangian(3, _tilted_area), _CONE_PATCH, delta_L_surface,
     _delta_L_surface_reference),
], ids=["quadratic-curve", "fd-curve", "plateau", "callable"])
def test_shared_residual_body_equals_per_degree_reference_bitwise(field, grid, route, reference):
    assert np.array_equal(route(field, grid).values, reference(field, grid))


class _SpeedCurve(CurveLagrangian):
    """Arc length ``|v|``, whose derivatives are undefined where the curve stops."""

    def value_slots(self, x, v):
        return np.sqrt(np.sum(v * v, axis=-1))

    def derivative_mask(self, x, v):
        return np.sum(v * v, axis=-1) > 0.0


def test_curve_domain_error_reports_node():
    # x = (t - 0.5)^2 on an exactly symmetric grid: the velocity vanishes at node 5 only
    C = CurveGrid(0.1, np.array([[0.01 * (i - 5) ** 2] for i in range(11)]))
    with pytest.raises(NodeDomainError) as err:
        delta_L_curve(_SpeedCurve(1), C)
    assert err.value.node == (5,)


def test_reparameterization_keeps_verdicts():
    # doubling dt halves the residual of a homogeneous field but cannot
    # change a pass on an exact solution or a fail with margin
    xs = np.linspace(0.0, 1.0, 17)
    plane = SurfaceGrid.from_graph(xs, xs, 0.3 * xs[:, None] + 0.2 * xs[None, :])
    L = plateau_lagrangian(3)
    for factor in (1.0, 2.0):
        S = SurfaceGrid(plane.dt * factor, plane.ds, plane.points)
        assert delta_L_surface(L, S).max_norm() <= 1e-9

    bent = sin_sin_grid(17)
    for factor in (1.0, 2.0):
        S = SurfaceGrid(bent.dt * factor, bent.ds, bent.points)
        assert not delta_L_surface(L, S).max_norm() <= 1e-2


def test_el_check_report_fields():
    S = sin_sin_grid(17)
    d = delta_L_surface(plateau_lagrangian(3), S)
    assert not d.max_norm() <= 1e-6
    i, j = variational.worst_node(np.abs(d.values).max(axis=-1))
    assert np.abs(d.values).max() == np.abs(d.values[i - 1, j - 1]).max()


def test_domain_error_reports_node():
    # a surface tangent to a timelike plane leaves the Lorentzian area cone
    S = SurfaceGrid.sample(lambda t, s: np.array([t, s, 0.0]), (0.0, 1.0, 7), (0.0, 1.0, 7))
    L = nambu_goto(Metric.minkowski(3))
    for route in (delta_L_surface, delta_L_surface_via_maps):
        with pytest.raises(NodeDomainError) as err:
            route(L, S)
        assert err.value.node == (0, 0)


def test_via_maps_rejects_a_curve():
    C = CurveGrid.sample(lambda t: np.array([t, t * t]), 0.0, 1.0, 11)
    with pytest.raises(ValueError, match="degree-2 grid, got a degree-1 grid"):
        delta_L_surface_via_maps(quadratic_curve_lagrangian(2), C)


def test_dimension_mismatch():
    S = sin_sin_grid(9)
    with pytest.raises(ValueError):
        delta_L_surface(plateau_lagrangian(4), S)
    C = CurveGrid.sample(lambda t: np.array([t, t]), 0.0, 1.0, 9)
    with pytest.raises(ValueError):
        delta_L_curve(quadratic_curve_lagrangian(3), C)


def _surface(dim):
    return SurfaceGrid.sample(lambda t, s: (t, s, t * s, t - s)[:dim], (0.0, 1.0, 7), (0.0, 1.0, 7))


def _curve(dim):
    return CurveGrid.sample(lambda t: (t, t * t, 0.5, -t)[:dim], 0.0, 1.0, 9)


def _surface_constraint(dim):
    e = np.eye(dim)
    return AffineConstraint2(dim, wedge(e[0], e[1]), [])


_FIELD = "a degree-{0} field does not apply to a degree-{1} grid"
_CONSTRAINT = "a degree-{0} constraint does not apply to a degree-{1} grid"

# (entry point, pairing) -> a call on dimension d and the refusal it must raise; a curve field
# on a surface grid and back, a constraint of the other degree, then of the other dimension
_MISFITS = {
    "delta_L_surface-curve-field": (
        lambda d: delta_L_surface(quadratic_curve_lagrangian(d), _surface(d)), _FIELD.format(1, 2)),
    "delta_L_curve-bivector-field": (
        lambda d: delta_L_curve(plateau_lagrangian(d), _curve(d)), _FIELD.format(2, 1)),
    "via_maps-curve-field": (
        lambda d: delta_L_surface_via_maps(quadratic_curve_lagrangian(d), _surface(d)),
        _FIELD.format(1, 2)),
    "check-curve-field": (
        lambda d: nonholonomic_check(quadratic_curve_lagrangian(d), _surface(d),
                                     _surface_constraint(d), 1e-6), _FIELD.format(1, 2)),
    "check-bivector-field": (
        lambda d: nonholonomic_check(plateau_lagrangian(d), _curve(d),
                                     first_axis_drift_constraint(d), 1e-6), _FIELD.format(2, 1)),
    "check_curve-bivector-field": (
        lambda d: nonholonomic_check_curve(plateau_lagrangian(d), _curve(d),
                                           first_axis_drift_constraint(d), 1e-6),
        _FIELD.format(2, 1)),
    "residual-curve-constraint": (
        lambda d: constraint_residual(_surface(d), first_axis_drift_constraint(d)),
        _CONSTRAINT.format(1, 2)),
    "residual-surface-constraint": (
        lambda d: constraint_residual(_curve(d), _surface_constraint(d)), _CONSTRAINT.format(2, 1)),
    "check-curve-constraint": (
        lambda d: nonholonomic_check(plateau_lagrangian(d), _surface(d),
                                     first_axis_drift_constraint(d), 1e-6),
        _CONSTRAINT.format(1, 2)),
    "check_curve-surface-constraint": (
        lambda d: nonholonomic_check_curve(quadratic_curve_lagrangian(d), _curve(d),
                                           _surface_constraint(d), 1e-6),
        _CONSTRAINT.format(2, 1)),
    "delta_L_surface-field-dimension": (
        lambda d: delta_L_surface(plateau_lagrangian(d + 1), _surface(d)),
        "field dimension {1} does not match grid ({0})"),
    "delta_L_curve-field-dimension": (
        lambda d: delta_L_curve(quadratic_curve_lagrangian(d + 1), _curve(d)),
        "field dimension {1} does not match grid ({0})"),
    "residual-constraint-dimension": (
        lambda d: constraint_residual(_surface(d), _surface_constraint(d + 1)),
        "constraint dimension {1} does not match grid ({0})"),
    "check-constraint-dimension": (
        lambda d: nonholonomic_check(quadratic_curve_lagrangian(d), _curve(d),
                                     first_axis_drift_constraint(d + 1), 1e-6),
        "constraint dimension {1} does not match grid ({0})"),
}


@pytest.mark.parametrize("case", sorted(_MISFITS))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_a_field_or_constraint_that_does_not_fit_the_grid_is_refused_by_name(dim, case):
    # in dimension 3 a bivector has as many slots as a vector: only the degree tells them apart
    call, message = _MISFITS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(dim, dim + 1))}$"):
        call(dim)


def test_covector_field_indexing():
    values = np.zeros((3, 4, 2))
    values[2, 1, 0] = -5.0
    f = CovectorField(values)
    assert f.max_norm() == 5.0
    assert variational.worst_node(np.abs(f.values).max(axis=-1)) == (3, 2)
    np.testing.assert_array_equal(f.values[3 - 1, 2 - 1], [-5.0, 0.0])


def test_covector_worst_node_is_the_largest_component_first_in_order():
    # small integers make ties; the first node in C order holding the largest |component| wins
    rng = np.random.default_rng(33)
    for shape in [(7, 3), (4, 5, 2), (3, 4, 3)]:
        for _ in range(50):
            values = rng.integers(-4, 5, size=shape).astype(float)
            flat = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
            got = variational.worst_node(np.abs(CovectorField(values).values).max(axis=-1))
            assert got == tuple(int(i) + 1 for i in flat[:-1])
    values = np.zeros((3, 4, 2))
    values[1, 2, 1] = values[2, 0, 0] = np.nan  # a non-number is the largest, as in numpy
    assert variational.worst_node(np.abs(CovectorField(values).values).max(axis=-1)) == (2, 3)

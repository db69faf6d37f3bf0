"""Affine constraints: annihilators, d'Alembert splits, admissibility checks.

The annihilator oracle rebuilds the contraction matrix eta_mu u^{mu nu}
with explicit index loops and compares the computed kernel against
scipy.linalg.null_space through orthogonal projectors, so the production
SVD path never checks itself.

Graph-surface classification targets three height functions over the
symmetric-slope constraint (section e1^e2, generator (e1-e2)^e3):

* z = x + y + 1 satisfies both membership and the force balance;
* z = (x + y)^2 has equal slopes (membership holds) but an
  Euler-Lagrange defect with a component outside the annihilator span;
* the Scherk graph z = log(cos y / cos x) is minimal (defect ~ 0 up to
  discretization, measured 4.9e-3 at 65^2) but has z_x = tan x != z_y.
"""

import numpy as np
import pytest
import scipy.linalg

from wedgemech.constraints import (
    AffineConstraint1,
    AffineConstraint2,
    RankDecisionError,
    annihilator_basis,
    constraint_residual,
    dalembert_decompose,
    first_axis_drift_constraint,
    nonholonomic_check,
    nonholonomic_check_curve,
    symmetric_slope_constraint,
)
from wedgemech.fields import plateau_lagrangian, quadratic_curve_lagrangian
from wedgemech.geometry import Bivector, contract, index_pairs, pair_count, wedge
from wedgemech.variational import CurveGrid, SurfaceGrid, delta_L_surface, wedge_prolongation


def contraction_matrix(generators, dim):
    """Rows of eta -> contract(eta, u) assembled by explicit index loops."""
    mat = np.zeros((len(generators) * dim, dim))
    row = 0
    for u in generators:
        full = np.zeros((dim, dim))
        for (mu, nu), c in zip(index_pairs(dim), u.slots):
            full[mu, nu] = c
            full[nu, mu] = -c
        for nu in range(dim):
            for mu in range(dim):
                mat[row + nu, mu] = full[mu, nu]
        row += dim
    return mat


def graph_grid(fn, n=33, lo=0.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return SurfaceGrid.from_graph(xs, xs, fn(X, Y))


def test_symmetric_slope_annihilator_direction():
    ann = symmetric_slope_constraint().annihilator_at(np.zeros(3))
    assert ann.shape == (1, 3)
    target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert abs(abs(ann[0] @ target) - 1.0) < 1e-12


def test_annihilator_kills_generators():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = rng.integers(3, 5)
        count = rng.integers(1, pair_count(dim))
        gens = [Bivector(rng.standard_normal(pair_count(dim)), dim) for _ in range(count)]
        ann = annihilator_basis(gens)
        assert np.allclose(ann @ ann.T, np.eye(ann.shape[0]), atol=1e-12)
        for u in gens:
            for eta in ann:
                assert np.abs(contract(eta, u)).max() < 1e-12


def test_annihilator_matches_nullspace_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        dim = rng.integers(3, 5)
        count = rng.integers(1, pair_count(dim))
        gens = [Bivector(rng.standard_normal(pair_count(dim)), dim) for _ in range(count)]
        ann = annihilator_basis(gens)
        kernel = scipy.linalg.null_space(contraction_matrix(gens, dim))
        assert ann.shape[0] == kernel.shape[1]
        gap = ann.T @ ann - kernel @ kernel.T
        assert np.abs(gap).max() < 1e-10


def test_annihilator_without_generators():
    assert np.array_equal(annihilator_basis([], dim=3), np.eye(3))
    assert np.array_equal(annihilator_basis([], dim=2), np.eye(2))
    with pytest.raises(ValueError):
        annihilator_basis([])


def test_annihilator_mixed_dimensions():
    with pytest.raises(ValueError):
        annihilator_basis([Bivector([1.0, 0.0, 0.0], 3), Bivector(np.zeros(6), 4)])


def test_rank_ambiguity_is_reported_not_guessed():
    e = np.eye(3)
    u1 = wedge(e[0], e[1])
    # a companion generator separated from u1 by a sliver of size eps:
    # the extra singular value is eps/sqrt(2) against a cutoff of 1.9e-15
    for eps in (3e-15, 1e-14):
        u2 = Bivector(u1.slots + eps * wedge(e[0], e[2]).slots, 3)
        with pytest.raises(RankDecisionError, match="rank cutoff"):
            annihilator_basis([u1, u2])
    # comfortably above the cutoff the pair genuinely spans rank 3
    u2 = Bivector(u1.slots + 1e-13 * wedge(e[0], e[2]).slots, 3)
    assert annihilator_basis([u1, u2]).shape == (0, 3)
    # below roundoff resolution the sliver is indistinguishable from an
    # exact duplicate and collapses back to the single-generator kernel
    u2 = Bivector(u1.slots + 1e-15 * wedge(e[0], e[2]).slots, 3)
    assert annihilator_basis([u1, u2]).shape == (1, 3)
    assert annihilator_basis([u1, u1]).shape == (1, 3)


def test_constraint_at_rejects_dependent_generators():
    e = np.eye(3)
    u = wedge(e[0], e[1])
    c = AffineConstraint2(3, Bivector(np.zeros(3), 3), [u, u])
    with pytest.raises(ValueError, match="linearly dependent"):
        c.at(np.zeros(3))


def test_constraint_field_validation():
    with pytest.raises(ValueError):
        AffineConstraint2(3, np.zeros(3), [])  # section must be a Bivector
    with pytest.raises(ValueError):
        AffineConstraint2(3, Bivector(np.zeros(6), 4), [])
    with pytest.raises(ValueError):
        AffineConstraint1(2, np.zeros(3), [])


def test_dalembert_decompose_symmetric_slope_defect():
    basis = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
    lam, orth = dalembert_decompose(np.array([3.0, 3.0, 0.0]), basis)
    assert lam.shape == (1,)
    assert abs(lam[0] - 3.0 * np.sqrt(2.0)) < 1e-14
    assert np.abs(orth).max() < 1e-14


def test_dalembert_decompose_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = rng.integers(2, 6)
        r = rng.integers(1, dim + 1)
        basis = np.linalg.qr(rng.standard_normal((dim, r)))[0].T[:r]
        delta = rng.standard_normal(dim)
        lam, orth = dalembert_decompose(delta, basis)
        assert np.allclose(lam @ basis + orth, delta, atol=1e-14)
        assert np.abs(basis @ orth).max() < 1e-13


def test_dalembert_decompose_edge_cases():
    with pytest.raises(ValueError, match="orthonormal"):
        dalembert_decompose(np.ones(3), np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        dalembert_decompose(np.ones(3), np.eye(2))
    lam, orth = dalembert_decompose(np.array([1.0, 2.0, 3.0]), np.zeros((0, 3)))
    assert lam.shape == (0,)
    assert np.array_equal(orth, [1.0, 2.0, 3.0])


def test_membership_residual_plane_graph():
    grid = graph_grid(lambda x, y: x + y + 1.0)
    res, _ = constraint_residual(grid, symmetric_slope_constraint())
    assert res.shape == (31, 31, 1)
    assert res.max() < 1e-12


def test_membership_residual_detects_slope_mismatch():
    # z = x: slopes are (1, 0), so eta(w - a) = (z_y - z_x)/sqrt(2) = -1/sqrt(2)
    grid = graph_grid(lambda x, y: x)
    res, _ = constraint_residual(grid, symmetric_slope_constraint())
    assert abs(res.max() - 1.0 / np.sqrt(2.0)) < 1e-12


def test_membership_subtracts_the_section():
    # the quadratic graph lies in a + V but its raw prolongation does not
    # lie in V; a vanishing residual therefore pins the w - a convention
    grid = graph_grid(lambda x, y: (x + y) ** 2)
    constraint = symmetric_slope_constraint()
    res, _ = constraint_residual(grid, constraint)
    assert res.max() < 1e-12
    eta = constraint.annihilator_at(np.zeros(3))[0]
    w = Bivector(wedge_prolongation(grid)[16, 16], 3)
    assert np.abs(contract(eta, w)).max() > 0.5


def test_constraint_dimension_mismatch():
    grid = graph_grid(lambda x, y: x + y)
    c = AffineConstraint2(4, Bivector(np.zeros(6), 4), [])
    with pytest.raises(ValueError, match="dimension"):
        constraint_residual(grid, c)
    with pytest.raises(ValueError, match="dimension"):
        nonholonomic_check(plateau_lagrangian(), grid, c, 1e-6)


def test_nonholonomic_plane_passes_both():
    grid = graph_grid(lambda x, y: x + y + 1.0)
    report = nonholonomic_check(
        plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, 1e-6
    )
    assert report.constraint_passed and report.dalembert_passed and report.passed
    assert report.constraint_max < 1e-12
    assert report.dalembert_max < 1e-12


def test_nonholonomic_quadratic_fails_only_force_balance():
    grid = graph_grid(lambda x, y: (x + y) ** 2)
    report = nonholonomic_check(
        plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, 5e-3
    )
    assert report.constraint_passed
    assert not report.dalembert_passed and not report.passed
    assert report.dalembert_max > 1.0  # measured 2.69 at 33^2
    assert report.multipliers.shape == (31, 31, 1)
    assert len(report.dalembert_worst) == 2


def test_nonholonomic_scherk_fails_only_membership():
    grid = graph_grid(
        lambda x, y: np.log(np.cos(y) / np.cos(x)), n=65, lo=-0.7, hi=0.7
    )
    report = nonholonomic_check(
        plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, 5e-3
    )
    assert not report.constraint_passed and not report.passed
    assert report.dalembert_passed
    assert report.constraint_max > 1.0  # tan(0.7) + tan(0.7) over sqrt 2 ~ 1.19
    assert report.dalembert_max < 5e-3


def test_nonholonomic_user_annihilator_basis():
    grid = graph_grid(lambda x, y: (x + y) ** 2)
    L = plateau_lagrangian()
    constraint = symmetric_slope_constraint()
    base = nonholonomic_check(L, grid, constraint, 1e-6, 5e-3)
    scaled = nonholonomic_check(
        L, grid, constraint, 1e-6, 5e-3,
        annihilator_generators=[np.array([1.0, 1.0, 0.0])],
    )
    # same split, multipliers rescaled by the basis change |(1,1,0)| = sqrt 2
    assert np.allclose(np.abs(base.multipliers), np.sqrt(2.0) * np.abs(scaled.multipliers))
    assert np.allclose(base.orthogonal_norms, scaled.orthogonal_norms, atol=1e-12)
    with pytest.raises(ValueError, match="annihilator"):
        nonholonomic_check(
            L, grid, constraint, 1e-6, 5e-3,
            annihilator_generators=[np.array([1.0, 0.0, 0.0])],
        )
    with pytest.raises(ValueError):
        nonholonomic_check(
            L, grid, constraint, 1e-6, 5e-3,
            annihilator_generators=[np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.0])],
        )


def test_nonholonomic_point_dependent_constraint():
    # wrapping the constant generator in a callable must route through the
    # per-node path and agree with the constant fast path
    grid = graph_grid(lambda x, y: (x + y) ** 2, n=17)
    e = np.eye(3)
    constant = symmetric_slope_constraint()
    pointwise = AffineConstraint2(
        3,
        lambda x: Bivector([1.0, 0.0, 0.0], 3),
        [lambda x: wedge(e[0] - e[1], e[2])],
    )
    assert not pointwise.constant
    a = nonholonomic_check(plateau_lagrangian(), grid, constant, 1e-6, 5e-3)
    b = nonholonomic_check(plateau_lagrangian(), grid, pointwise, 1e-6, 5e-3)
    assert np.allclose(a.constraint_residuals, b.constraint_residuals, atol=1e-13)
    assert np.allclose(a.orthogonal_norms, b.orthogonal_norms, atol=1e-13)
    assert np.allclose(np.abs(a.multipliers), np.abs(b.multipliers), atol=1e-13)
    with pytest.raises(ValueError, match="constant"):
        nonholonomic_check(
            plateau_lagrangian(), grid, pointwise, 1e-6, 5e-3,
            annihilator_generators=[np.array([1.0, 1.0, 0.0])],
        )


def test_bad_tolerances():
    grid = graph_grid(lambda x, y: x + y)
    with pytest.raises(ValueError, match="positive"):
        nonholonomic_check(plateau_lagrangian(), grid, symmetric_slope_constraint(), 0.0)
    line = CurveGrid.sample(lambda t: (t, 0.0), 0.0, 1.0, 11)
    with pytest.raises(ValueError, match="positive"):
        nonholonomic_check_curve(
            quadratic_curve_lagrangian(2), line, first_axis_drift_constraint(), -1.0
        )


def test_first_axis_drift_annihilator():
    ann = first_axis_drift_constraint(2).annihilator_at(np.zeros(2))
    assert ann.shape == (1, 2)
    assert abs(abs(ann[0, 1]) - 1.0) < 1e-14
    assert abs(ann[0, 0]) < 1e-14


def test_curve_constraint_admissible_line():
    grid = CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 101)
    report = nonholonomic_check_curve(
        quadratic_curve_lagrangian(2), grid, first_axis_drift_constraint(), 1e-10
    )
    assert report.passed
    assert report.constraint_max < 1e-12
    assert report.dalembert_max < 1e-10


def test_curve_constraint_violating_line():
    # the diagonal drifts along e1 + e2, off the admissible affine line
    grid = CurveGrid.sample(lambda t: (t, t), 0.0, 1.0, 101)
    report = nonholonomic_check_curve(
        quadratic_curve_lagrangian(2), grid, first_axis_drift_constraint(), 1e-10
    )
    assert not report.constraint_passed
    assert abs(report.constraint_max - 1.0) < 1e-12
    assert report.dalembert_passed  # the free particle has no defect at all


def test_curve_force_balance_detects_transverse_force():
    # a harmonic restoring force on (t, 0.3) points along both axes; only
    # the dx^2 component can be absorbed by the constraint force
    grid = CurveGrid.sample(lambda t: (t, 0.3), 0.0, 1.0, 101)
    report = nonholonomic_check_curve(
        quadratic_curve_lagrangian(2, omega=1.0), grid, first_axis_drift_constraint(),
        1e-10, 1e-10,
    )
    assert report.constraint_passed
    assert not report.dalembert_passed
    ts = np.linspace(0.0, 1.0, 101)[1:-1]
    assert np.allclose(report.orthogonal_norms, np.abs(ts), atol=1e-10)
    assert np.allclose(np.abs(report.multipliers[:, 0]), 0.3, atol=1e-10)


def test_curve_membership_residual_values():
    grid = CurveGrid.sample(lambda t: (t, t), 0.0, 1.0, 21)
    res, _ = constraint_residual(grid, first_axis_drift_constraint())
    assert res.shape == (19, 1)
    assert np.allclose(res, 1.0, atol=1e-12)


def test_generators_spanning_the_fiber_leave_membership_vacuous():
    # e1^e2 and e1^e3 contract to a full-rank map in dimension 3: no
    # one-form annihilates both, so the whole defect is orthogonal
    e = np.eye(3)
    generators = [wedge(e[0], e[1]), wedge(e[0], e[2])]
    spanning = AffineConstraint2(3, Bivector(np.zeros(3), 3), generators)
    grid = graph_grid(lambda x, y: (x + y) ** 2, n=17)
    report = nonholonomic_check(plateau_lagrangian(), grid, spanning, 1e-6, 5e-3)
    assert report.constraint_residuals.shape == (15, 15, 0)
    assert report.constraint_max == 0.0 and report.constraint_passed
    assert report.multipliers.shape == (15, 15, 0)
    assert report.multiplier_stats().shape == (0, 2)
    delta = delta_L_surface(plateau_lagrangian(), grid).values
    assert np.array_equal(report.orthogonal_norms, np.abs(delta).max(axis=-1))


def test_annihilator_dimension_change_between_nodes_is_reported():
    # e1^e2 + x1 e3^e4 is nondegenerate (no annihilator) for x1 != 0 and
    # leaves dx3, dx4 at x1 = 0, which the grid's middle row crosses
    e = np.eye(4)
    constraint = AffineConstraint2(
        4,
        Bivector(np.zeros(6), 4),
        [lambda x: wedge(e[0], e[1]) + x[0] * wedge(e[2], e[3])],
    )
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.0, 0.0), (-1.0, 1.0, 9), (0.0, 1.0, 5))
    with pytest.raises(RankDecisionError, match=r"changes from 0 to 2 at x = \[0\.0, 0\.25"):
        constraint_residual(grid, constraint)
    with pytest.raises(RankDecisionError, match="annihilator dimension"):
        nonholonomic_check(plateau_lagrangian(4), grid, constraint, 1e-6)

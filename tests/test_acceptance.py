"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints ``criterion N (label): PASS`` on success (run with
``pytest tests/test_acceptance.py -rA`` to see the lines); a failure
prints the FAIL line and then surfaces the offending assertion.  The
tolerances and runtime budgets here are the package's contract and are
deliberately not shared with the unit tests, which probe tighter,
implementation-informed bounds.
"""

import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from conftest import random_bivector, random_phase_element2
from wedgemech.constraints import (
    AffineConstraint2,
    nonholonomic_check,
    nonholonomic_check_curve,
    first_axis_drift_constraint,
    symmetric_slope_constraint,
)
from wedgemech.fields import (
    FieldDomainError,
    MorseFamily,
    nambu_goto,
    plateau_lagrangian,
    quadratic_curve_lagrangian,
)
from wedgemech.geometry import Bivector, Metric, index_pairs, pair_count
from wedgemech.plateau import GraphGrid, SolveOptions, minimal_surface_residual, solve_plateau
from wedgemech.scenarios import run_scenario, scenario_names
from wedgemech.tulczyjew import PhaseElement2, alpha, beta, cotangent_flip
from wedgemech.variational import CurveGrid, SurfaceGrid, delta_L_curve, delta_L_surface


@contextmanager
def criterion(number, label):
    begin = time.perf_counter()
    try:
        yield begin
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _cone_sample(rng, L, dim):
    for _ in range(1000):
        w = random_bivector(rng, dim)
        try:
            if L.value(np.zeros(dim), w) > 0.3:
                return w
        except FieldDomainError:
            continue
    raise AssertionError("positive-cone sampling failed")


def test_criterion_1_canonical_map_identities():
    rng = np.random.default_rng(1)
    with criterion(1, "map identities on 1000 random elements") as begin:
        for trial in range(1000):
            dim = 2 + trial % 3
            element = random_phase_element2(rng, dim)
            direct = alpha(element)
            flipped = cotangent_flip(beta(element))
            assert np.array_equal(direct[0], flipped[0])
            assert np.array_equal(direct[1].slots, flipped[1].slots)
            assert np.array_equal(direct[2], flipped[2])
            assert np.array_equal(direct[3].slots, flipped[3].slots)

            # replacing the pdot block must not move either image at all
            k = pair_count(dim)
            other = rng.normal(size=(k, k))
            twin = PhaseElement2(element.x, element.p, element.xdot, element.y, other - other.T)
            twin_a = alpha(twin)
            assert np.array_equal(direct[2], twin_a[2])
            assert np.array_equal(direct[3].slots, twin_a[3].slots)
            b_one, b_two = beta(element), beta(twin)
            assert np.array_equal(b_one[2], b_two[2])
            assert np.array_equal(b_one[3].slots, b_two[3].slots)
        assert time.perf_counter() - begin < 1.0


def _brute_contraction_matrix(u):
    mat = np.zeros((u.dim, u.dim))
    for slot, (mu, nu) in enumerate(index_pairs(u.dim)):
        mat[mu, nu] += u.slots[slot]
        mat[nu, mu] -= u.slots[slot]
    return mat


def test_criterion_2_annihilator_reproduction():
    with criterion(2, "annihilator basis and kernel oracle"):
        basis = symmetric_slope_constraint().annihilator_at(np.zeros(3))
        assert basis.shape == (1, 3)
        target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        row = basis[0] / np.linalg.norm(basis[0])
        angle_defect = np.linalg.norm(row - np.sign(row @ target) * target)
        assert angle_defect < 1e-12

        rng = np.random.default_rng(2)
        for trial in range(200):
            dim = 3 + trial % 2
            count = int(rng.integers(1, pair_count(dim)))
            gens = [random_bivector(rng, dim) for _ in range(count)]
            zero = Bivector(np.zeros(pair_count(dim)), dim)
            computed = AffineConstraint2(dim, zero, gens).annihilator_at(np.zeros(dim))
            stacked = np.vstack([_brute_contraction_matrix(u) for u in gens])
            oracle = scipy.linalg.null_space(stacked)
            assert computed.shape[0] + np.linalg.matrix_rank(stacked) == dim
            gap = np.linalg.norm(computed.T @ computed - oracle @ oracle.T)
            assert gap < 1e-10


def test_criterion_3_homogeneity_and_euler_identity():
    fields = [
        ("nambu-goto euclidean", nambu_goto(Metric.euclidean(3)), 3),
        ("nambu-goto lorentzian", nambu_goto(Metric.minkowski(4)), 4),
        ("plateau", plateau_lagrangian(3), 3),
    ]
    rng = np.random.default_rng(3)
    with criterion(3, "degree-1 homogeneity and Euler pairing"):
        for _, L, dim in fields:
            for _ in range(500):
                x = rng.normal(size=dim)
                w = _cone_sample(rng, L, dim)
                value = L.value(x, w)
                for lam in (0.25, 7.5):
                    scaled = L.value(x, lam * w)
                    assert abs(scaled - lam * value) <= 1e-12 * max(1.0, lam * value)
                # p_{mu nu} w^{mu nu} over all index pairs: twice the slot dot product
                pairing = 2.0 * float(L.momentum(x, w).slots @ w.slots)
                assert abs(pairing - value) <= 1e-8


def test_criterion_4_legendre_images_on_morse_sphere():
    rng = np.random.default_rng(4)
    metrics = [Metric.euclidean(3)]
    a = rng.normal(size=(3, 3))
    metrics.append(Metric(a @ a.T + 3.0 * np.eye(3)))
    with criterion(4, "Legendre images on the unit momentum sphere"):
        for g in metrics:
            L = nambu_goto(g)
            family = MorseFamily(g)
            for _ in range(250):
                w = _cone_sample(rng, L, 3)
                p = L.momentum(rng.normal(size=3), w)
                assert abs(family.d_r(p)) <= 1e-10


def divergence_form_residual(grid):
    """div(grad z / W) at the interior nodes: the quasilinear form over W^3,
    with the quasilinear form's own central first differences."""
    z = grid.z
    zx = (z[2:, 1:-1] - z[:-2, 1:-1]) / (2.0 * grid.hx)
    zy = (z[1:-1, 2:] - z[1:-1, :-2]) / (2.0 * grid.hy)
    return minimal_surface_residual(grid) / (1.0 + zx**2 + zy**2) ** 1.5


def test_criterion_5_residual_matches_divergence_form():
    with criterion(5, "surface residual vs divergence form") as begin:
        errs = {}
        for n in (33, 65, 129):
            grid = GraphGrid.sample(
                (-1.0, 1.0, -1.0, 1.0), n, n, lambda X, Y: np.sin(X) * np.sin(Y)
            )
            d = delta_L_surface(plateau_lagrangian(3), grid.surface_grid())
            reference = -divergence_form_residual(grid) / np.sqrt(2.0)
            gap = np.abs(d.values[..., 2] - reference)
            errs[n] = (gap.max(), gap[1:-1, 1:-1].max())
        assert errs[65][0] <= 5e-3
        # the one-sided boundary stencils contribute a first-order layer on
        # the outermost interior ring; the order is read off away from it
        assert np.log2(errs[33][1] / errs[65][1]) >= 1.8
        assert np.log2(errs[65][1] / errs[129][1]) >= 1.8
        assert time.perf_counter() - begin < 10.0


def test_criterion_6_plateau_solver_benchmarks():
    with criterion(6, "minimal-graph Newton solver") as begin:
        scherk = lambda X, Y: np.log(np.cos(Y) / np.cos(X))
        grid = GraphGrid.from_boundary((-0.7, 0.7, -0.7, 0.7), 65, 65, scherk)
        result = solve_plateau(grid, SolveOptions(tol=1e-10, max_iter=25))
        assert result.converged
        assert result.final_residual <= 1e-8
        exact = GraphGrid.sample((-0.7, 0.7, -0.7, 0.7), 65, 65, scherk)
        err = np.abs(result.grid.z - exact.z)[1:-1, 1:-1].max()
        assert err < 1e-3

        plane = lambda X, Y: 0.8 * X - 1.3 * Y + 0.2
        flat = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 33, 33, plane)
        result = solve_plateau(flat, SolveOptions(tol=1e-10, max_iter=25))
        assert result.converged and result.iterations <= 2
        xs = np.linspace(0.0, 1.0, 33)
        target = plane(xs[:, None], xs[None, :])
        assert np.abs(result.grid.z - target).max() <= 1e-10
        assert time.perf_counter() - begin < 30.0


def _example7_report(height, domain, constraint_tol, force_tol):
    xs = np.linspace(domain[0], domain[1], 65)
    ys = np.linspace(domain[2], domain[3], 65)
    grid = SurfaceGrid.from_graph(xs, ys, height(xs[:, None], ys[None, :]))
    return nonholonomic_check(
        plateau_lagrangian(), grid, symmetric_slope_constraint(), constraint_tol, force_tol
    )


def test_criterion_7_constrained_family_classification():
    with criterion(7, "symmetric-slope constraint classification") as begin:
        plane = _example7_report(lambda X, Y: X + Y + 1.0, (0.0, 1.0, 0.0, 1.0), 1e-6, 1e-6)
        assert plane.constraint_passed and plane.dalembert_passed and plane.passed

        quad = _example7_report(lambda X, Y: (X + Y) ** 2, (0.0, 1.0, 0.0, 1.0), 1e-6, 5e-3)
        assert quad.constraint_passed and not quad.dalembert_passed

        scherk = _example7_report(
            lambda X, Y: np.log(np.cos(Y) / np.cos(X)), (-0.7, 0.7, -0.7, 0.7), 1e-6, 5e-3
        )
        assert not scherk.constraint_passed and scherk.dalembert_passed
        assert time.perf_counter() - begin < 10.0


def test_criterion_8_classical_curve_sanity():
    with criterion(8, "classical n=1 residuals and classification"):
        L = quadratic_curve_lagrangian(1, omega=1.0)
        norms = {}
        for n in (1001, 2001):
            C = CurveGrid.sample(np.cos, 0.0, 2.0 * np.pi, n)
            norms[n] = delta_L_curve(L, C).max_norm()
        assert norms[1001] <= 1e-3
        assert np.log2(norms[1001] / norms[2001]) >= 1.8

        line = CurveGrid.sample(
            lambda t: np.array([0.2, -0.4]) + t * np.array([1.0, 0.5]), 0.0, 1.0, 101
        )
        assert delta_L_curve(quadratic_curve_lagrangian(2), line).max_norm() <= 1e-12

        free = quadratic_curve_lagrangian(2)
        drift = first_axis_drift_constraint()
        ok = nonholonomic_check_curve(
            free, CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 101), drift, 1e-10, 1e-10
        )
        assert ok.passed
        bad = nonholonomic_check_curve(
            free, CurveGrid.sample(lambda t: (t, t), 0.0, 1.0, 101), drift, 1e-10, 1e-10
        )
        assert not bad.passed
        assert not bad.constraint_passed and bad.dalembert_passed


def test_criterion_9_reports_are_deterministic():
    with criterion(9, "byte-identical scenario reports"):
        names = scenario_names()
        assert len(names) == 14
        for name in names:
            first = run_scenario(name)
            second = run_scenario(name)
            assert first.report == second.report
            assert first.passed == second.passed

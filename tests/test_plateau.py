"""Newton minimal-surface solver: stencils, Jacobian, convergence, plane fit.

Benchmarks with closed-form solutions:

* planes (the discrete operator annihilates them up to roundoff),
* the Scherk patch z = log(cos y / cos x): z_x = tan x, z_y = -tan y,
  z_xy = 0, so (1+z_x^2) z_yy + (1+z_y^2) z_xx = -sec^2 x sec^2 y
  + sec^2 y sec^2 x = 0 by hand,
* a catenoid slice z = arccosh(sqrt(x^2+y^2)) away from the waist,
* the paraboloid, where the operator evaluates to 4 + 8x^2 + 8y^2.

The hand-assembled nine-point Jacobian is checked against a central
finite difference of the residual in a random direction; its matrix-free
stencil form against the assembled matrix, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from wedgemech import plateau
from wedgemech.fields import plateau_lagrangian
from wedgemech.plateau import (
    GraphGrid,
    SingularJacobianError,
    SolveOptions,
    initial_guess,
    minimal_surface_residual,
    solve_constrained_plateau,
    solve_plateau,
    _apply_stencil,
    _factorize,
    _jacobian_stencil,
    _krylov_step,
    _newton_matrix,
    _poisson_solver,
    _quasilinear,
    _stencil_pieces,
)
from wedgemech.variational import delta_L_surface

SCHERK_DOMAIN = (-0.7, 0.7, -0.7, 0.7)


def scherk(X, Y):
    return np.log(np.cos(Y) / np.cos(X))


def test_graph_grid_validation():
    with pytest.raises(ValueError, match="degenerate"):
        GraphGrid((0.0, 0.0, 0.0, 1.0), np.zeros((6, 6)))
    with pytest.raises(ValueError, match="5x5"):
        GraphGrid((0.0, 1.0, 0.0, 1.0), np.zeros((4, 8)))
    bad = np.zeros((6, 6))
    bad[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GraphGrid((0.0, 1.0, 0.0, 1.0), bad)


def test_graph_grid_geometry():
    g = GraphGrid.sample((0.0, 1.0, 0.0, 2.0), 5, 9, lambda X, Y: X + Y)
    assert g.shape == (5, 9)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    bx, by, bz = g.boundary_samples()
    assert bx.size == 2 * 5 + 2 * 9 - 4
    assert np.allclose(bz, bx + by)
    surf = g.surface_grid()
    assert surf.points.shape == (5, 9, 3)
    assert np.allclose(surf.points[..., 2], g.z)


def test_from_boundary_zeroes_interior():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 7, 7, lambda X, Y: X + Y + 1.0)
    assert np.all(g.z[1:-1, 1:-1] == 0.0)
    assert g.z[0, 0] == 1.0 and g.z[-1, -1] == 3.0


def test_from_boundary_calls_fn_on_the_ring_only():
    # a boundary function that is NaN inside is never asked there, and its ring
    # heights are those of a full sample, bit for bit
    domain, nx, ny = (0.0, 1.0, 0.0, 2.0), 7, 9
    heights = lambda X, Y: np.sin(3.0 * X) * np.exp(Y)  # noqa: E731
    asked = []

    def boundary(X, Y):
        asked.extend(zip(np.ravel(X).tolist(), np.ravel(Y).tolist()))
        inside = (X > 0.0) & (X < 1.0) & (Y > 0.0) & (Y < 2.0)
        return np.where(inside, np.nan, heights(X, Y))

    g = GraphGrid.from_boundary(domain, nx, ny, boundary)
    full = GraphGrid.sample(domain, nx, ny, heights)
    ring = np.ones((nx, ny), dtype=bool)
    ring[1:-1, 1:-1] = False
    X, Y = np.meshgrid(full.xs, full.ys, indexing="ij")
    assert sorted(asked) == sorted(zip(X[ring].tolist(), Y[ring].tolist()))
    assert g.z[ring].tobytes() == full.z[ring].tobytes()
    assert np.all(g.z[~ring] == 0.0)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolveOptions(damping=0.0)
    with pytest.raises(ValueError):
        SolveOptions(damping=1.5)


def test_plane_residual_vanishes():
    g = GraphGrid.sample((0.0, 1.0, 0.0, 1.0), 33, 33, lambda X, Y: 2.0 * X - 0.5 * Y + 1.0)
    assert np.abs(minimal_surface_residual(g)).max() < 1e-11


def test_paraboloid_residual_closed_form():
    g = GraphGrid.sample((-1.0, 1.0, -1.0, 1.0), 21, 21, lambda X, Y: X**2 + Y**2)
    res = minimal_surface_residual(g)
    X, Y = np.meshgrid(g.xs[1:-1], g.ys[1:-1], indexing="ij")
    assert np.abs(res - (4.0 + 8.0 * X**2 + 8.0 * Y**2)).max() < 1e-11


def test_sampled_scherk_residual_second_order():
    errs = []
    for n in (33, 65, 129):
        g = GraphGrid.sample(SCHERK_DOMAIN, n, n, scherk)
        errs.append(np.abs(minimal_surface_residual(g)).max())
    assert errs[0] < 5e-4
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) > 1.8


def test_newton_matrix_against_directional_fd():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((7, 9)) * 0.4
    hx, hy = 0.11, 0.07
    jac = _newton_matrix(_jacobian_stencil(_stencil_pieces(z, hx, hy), hx, hy))
    v = rng.standard_normal((5, 7))
    eps = 1e-7
    zp, zm = np.array(z), np.array(z)
    zp[1:-1, 1:-1] += eps * v
    zm[1:-1, 1:-1] -= eps * v
    fd = (_quasilinear(_stencil_pieces(zp, hx, hy))
          - _quasilinear(_stencil_pieces(zm, hx, hy))) / (2.0 * eps)
    jv = (jac @ v.ravel()).reshape(5, 7)
    assert np.abs(jv - fd).max() < 1e-7 * np.abs(fd).max()


@pytest.mark.parametrize("shape, hx, hy", [((7, 9), 0.11, 0.07), ((17, 33), 0.05, 0.13)])
def test_stencil_product_is_bitwise_the_assembled_jacobian(shape, hx, hy):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(shape)
    v = rng.standard_normal((shape[0] - 2, shape[1] - 2))
    padded = np.zeros(shape)
    padded[1:-1, 1:-1] = v
    coeffs = _jacobian_stencil(_stencil_pieces(z, hx, hy), hx, hy)
    product = _apply_stencil(coeffs, padded)
    assert np.array_equal(product.ravel(), _newton_matrix(coeffs) @ v.ravel())


def _coo_assembly(coeffs):
    """The stencil as triplets clipped to interior neighbors, one offset at a
    time, converted to CSR by scipy: the reference layout for `_newton_matrix`."""
    mi, mj = coeffs[0].shape
    idx = np.arange(mi * mj).reshape(mi, mj)
    rows, cols, vals = [], [], []
    for value, (di, dj) in zip(coeffs, plateau._OFFSETS):
        ri = slice(max(0, -di), mi - max(0, di))
        rj = slice(max(0, -dj), mj - max(0, dj))
        ci = slice(max(0, di), mi - max(0, -di))
        cj = slice(max(0, dj), mj - max(0, -dj))
        rows.append(idx[ri, rj].ravel())
        cols.append(idx[ci, cj].ravel())
        vals.append(value[ri, rj].ravel())
    triplets = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return scipy.sparse.coo_matrix(triplets, shape=(mi * mj, mi * mj)).tocsr()


@pytest.mark.parametrize("shape", [(5, 5), (7, 9), (9, 5), (17, 33), (65, 65)])
def test_newton_matrix_lays_out_the_stencil_as_the_coo_assembly(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    hx, hy = 0.11, 0.07
    # a flat surface has exact zeros in its cross terms: both layouts keep them
    for z in (rng.standard_normal(shape), np.zeros(shape)):
        coeffs = _jacobian_stencil(_stencil_pieces(z, hx, hy), hx, hy)
        matrix, reference = _newton_matrix(coeffs), _coo_assembly(coeffs)
        assert matrix.format == "csr" and matrix.shape == reference.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, part), getattr(reference, part))


@pytest.mark.parametrize("half_width, n, tol, paths", [
    (1.45, 17, 1e-10, {"gmres", "direct"}),
    (1.54, 33, 1e-10, {"direct", "halving"}),
    (0.7, 17, 1e-300, {"gmres", "no-descent"}),  # tol below the residual floor
])
def test_each_iterate_is_differenced_once_and_given_one_jacobian(monkeypatch, half_width, n, tol,
                                                                  paths):
    differenced, jacobians = [], []

    def pieces(z, hx, hy):
        differenced.append(np.array(z))
        return _stencil_pieces(z, hx, hy)

    def jacobian(p, hx, hy):
        jacobians.append(p)
        return _jacobian_stencil(p, hx, hy)

    monkeypatch.setattr(plateau, "_stencil_pieces", pieces)
    monkeypatch.setattr(plateau, "_jacobian_stencil", jacobian)
    domain = (-half_width, half_width, -half_width, half_width)
    options = SolveOptions(tol=tol)
    result = solve_plateau(GraphGrid.from_boundary(domain, n, n, scherk), options)
    seen = {"gmres": (result.linear_iters > 0).any(), "direct": (result.linear_iters == 0).any(),
            "halving": (result.steps < options.damping).any(),
            "no-descent": result.stop == "no-descent"}
    assert {path for path, taken in seen.items() if taken} == paths
    # the start and every line-search trial are evaluated iterates, each differenced once
    trials = sum(round(np.log2(options.damping / step)) + 1 for step in result.steps)
    if result.stop == "no-descent":
        trials += sum(options.damping * 0.5**k > 2.0**-30 for k in range(64))
    assert len(differenced) == 1 + trials
    assert len({z.tobytes() for z in differenced}) == len(differenced)
    # the start and each accepted iterate get one Jacobian: the next step solves
    # with it, and the last one's gives the residual floor
    assert len(jacobians) == result.iterations + 1


def test_krylov_step_matches_dense_solve():
    g = initial_guess(GraphGrid.from_boundary(SCHERK_DOMAIN, 17, 17, scherk))
    pieces = _stencil_pieces(g.z, g.hx, g.hy)
    r = _quasilinear(pieces)
    precond = _poisson_solver(15, 15, g.hx, g.hy)
    coeffs = _jacobian_stencil(pieces, g.hx, g.hy)
    step, iterations = _krylov_step(coeffs, r, precond)
    assert step.shape == r.shape and 0 < iterations <= 30
    padded = np.zeros(g.shape)
    padded[1:-1, 1:-1] = step
    miss = np.linalg.norm(precond(_apply_stencil(coeffs, padded) + r))
    assert miss <= 1e-10 * np.linalg.norm(precond(r))
    dense = np.linalg.solve(_newton_matrix(coeffs).toarray(), -r.ravel())
    assert np.linalg.norm(step.ravel() - dense) <= 1e-9 * np.linalg.norm(dense)


def test_initial_guess_affine_boundary_is_affine():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 33, 33, lambda X, Y: 2.0 * X - 0.5 * Y + 1.0)
    fill = initial_guess(g)
    exact = GraphGrid.sample((0.0, 1.0, 0.0, 1.0), 33, 33, lambda X, Y: 2.0 * X - 0.5 * Y + 1.0)
    assert np.abs(fill.z - exact.z).max() < 1e-11


def test_initial_guess_preserves_grid_symmetry():
    g = GraphGrid.from_boundary((-1.0, 1.0, -1.0, 1.0), 33, 33, lambda X, Y: X**2 + Y**2)
    fill = initial_guess(g)
    assert np.abs(fill.z - fill.z[::-1]).max() < 1e-12
    assert np.abs(fill.z - fill.z[:, ::-1]).max() < 1e-12
    assert np.abs(fill.z - fill.z.T).max() < 1e-12


def test_initial_guess_maximum_principle():
    g = GraphGrid.from_boundary(
        (-1.0, 1.0, -1.0, 1.0), 25, 25, lambda X, Y: np.sin(3.0 * X) + np.cos(2.0 * Y)
    )
    fill = initial_guess(g)
    _, _, bz = g.boundary_samples()
    interior = fill.z[1:-1, 1:-1]
    assert interior.min() >= bz.min() - 1e-12
    assert interior.max() <= bz.max() + 1e-12


def test_harmonic_fill_matches_sparse_direct_solve():
    # rectangular block with hx != hy, so each axis carries its own eigenvalues
    domain, nx, ny = (0.0, 1.0, 0.0, 3.0), 17, 33
    g = GraphGrid.from_boundary(domain, nx, ny, lambda X, Y: np.sin(2.0 * X) * np.exp(Y / 3.0) + X * Y)
    assert g.hx != g.hy
    mi, mj = nx - 2, ny - 2

    def second_difference(m, h):
        return scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / h**2

    laplacian = (scipy.sparse.kron(second_difference(mi, g.hx), scipy.sparse.identity(mj))
                 + scipy.sparse.kron(scipy.sparse.identity(mi), second_difference(mj, g.hy)))
    rhs = np.zeros((mi, mj))
    rhs[0, :] -= g.z[0, 1:-1] / g.hx**2
    rhs[-1, :] -= g.z[-1, 1:-1] / g.hx**2
    rhs[:, 0] -= g.z[1:-1, 0] / g.hy**2
    rhs[:, -1] -= g.z[1:-1, -1] / g.hy**2
    reference = scipy.sparse.linalg.spsolve(laplacian.tocsc(), rhs.ravel()).reshape(mi, mj)
    fill = initial_guess(g).z[1:-1, 1:-1]
    assert np.abs(fill - reference).max() <= 1e-12 * np.abs(reference).max()


# Which route a transform pair takes depends on what the process did before
# (`plateau._dst_route`), so the routes must agree bit for bit.  Interiors from
# 3x3 to 255x255, square and not; m + 1 = 127 and 251 are primes, whose
# 2(m + 1)-point FFTs pocketfft runs by Bluestein's algorithm, and at 66x68
# the inverse's factor 1/18492 rounded from a long double is not 1.0 / 18492.
_DST_SHAPES = [(3, 3), (3, 8), (9, 4), (15, 15), (31, 33), (63, 63), (64, 17), (66, 68),
               (126, 126), (127, 127), (250, 61), (200, 255), (255, 255)]


def _dst_inputs(shape, rng):
    """Normal entries; signed magnitudes 1e-323 to 1e150 (subnormal to large, short of
    overflowing the transform's sums), a fifth of them signed zeros; signed zeros only."""
    wide = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-323.0, 150.0, shape)
    wide[rng.random(shape) < 0.2] *= 0.0
    wide.flat[:4] = -0.0, 4e-320, -1e150, 1e150  # one line starts with -0.0
    zeros = rng.choice([-1.0, 1.0], shape) * 0.0
    return rng.standard_normal(shape), wide, zeros


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("shape", _DST_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_numpy_dst_is_bitwise_scipys(shape, inverse):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for x in _dst_inputs(shape, rng):
        ours = plateau._numpy_dst1(x.copy(), inverse)
        theirs = plateau._scipy_dst1(x.copy(), inverse)
        np.testing.assert_array_equal(_bits(ours), _bits(theirs))


# Scherk patches (grid size, half-width): GMRES only up to the half-width 1.2 at
# 65^2, GMRES then direct at 129^2/1.2, all direct at the half-width 1.45
_SCHERK_PATCHES = [(33, 0.3), (65, 0.7), (129, 0.45), (129, 0.9), (257, 0.6), (65, 1.2),
                   (129, 1.2), (65, 1.45), (129, 1.45)]


@pytest.mark.parametrize("n, half_width", _SCHERK_PATCHES, ids=lambda v: str(v))
def test_solves_are_bitwise_equal_on_either_dst_route(monkeypatch, n, half_width):
    grid = GraphGrid.from_boundary((-half_width, half_width) * 2, n, n, scherk)
    results = []
    for dst1 in (plateau._numpy_dst1, plateau._scipy_dst1):
        monkeypatch.setattr(plateau, "_dst_route", lambda size, dst1=dst1: dst1)
        results.append(solve_plateau(grid))
    ours, theirs = results
    for name in ("trace", "steps", "residual_floor"):
        np.testing.assert_array_equal(_bits(getattr(ours, name)), _bits(getattr(theirs, name)))
    np.testing.assert_array_equal(ours.linear_iters, theirs.linear_iters)
    assert ours.stop == theirs.stop
    np.testing.assert_array_equal(_bits(ours.grid.z), _bits(theirs.grid.z))


def test_numpy_dst_pair_holds_one_block_of_lines_more_than_scipys():
    # a whole-array numpy route held 3 MB more at the peak of a 257^2 solve;
    # blocks of lines bound the extensions and their spectra instead
    m = 255
    x = np.random.default_rng(5).standard_normal((m, m))
    peaks = []
    for dst1 in (plateau._scipy_dst1, plateau._numpy_dst1):
        dst1(x.copy(), False)  # warm-up: scipy's import and the FFT plans belong to no pair
        rhs = x.copy()
        tracemalloc.start()
        try:
            spectrum = dst1(rhs, False)
            spectrum /= 3.0
            dst1(spectrum, True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 32 * ((2 * m + 2) * 8 + (m + 2) * 16)  # 32 lines' extensions and spectra
    assert peaks[1] <= peaks[0] + block + 4096  # and a few views' Python objects


def test_solve_plane_recovers_exactly():
    plane = lambda X, Y: 2.0 * X - 0.5 * Y + 1.0
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 33, 33, plane)
    result = solve_plateau(g)
    assert result.converged
    assert result.iterations <= 2
    assert result.final_residual <= 1e-10
    exact = GraphGrid.sample((0.0, 1.0, 0.0, 1.0), 33, 33, plane)
    assert np.abs(result.grid.z - exact.z).max() < 1e-10
    # the converged plane also zeroes the embedded-surface defect
    assert delta_L_surface(plateau_lagrangian(), result.grid.surface_grid()).max_norm() <= 1e-10


def test_solve_scherk_benchmark(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a mild solve assembles no Jacobian")

    monkeypatch.setattr(plateau, "_newton_matrix", unreachable)
    g = GraphGrid.from_boundary(SCHERK_DOMAIN, 65, 65, scherk)
    result = solve_plateau(g)
    assert result.converged and result.stop == "converged"
    assert result.residual_floor < 1e-10  # tol is within float64's reach
    assert result.final_residual <= 1e-8
    exact = GraphGrid.sample(SCHERK_DOMAIN, 65, 65, scherk)
    assert np.abs(result.grid.z - exact.z)[1:-1, 1:-1].max() < 1e-3
    # trace decreases strictly and quadratically once below 1e-3
    trace = result.trace
    assert np.all(np.diff(trace) < 0.0)
    for r_k, r_next in zip(trace, trace[1:]):
        if r_k < 1e-3:
            assert r_next <= 10.0 * r_k**2
    # a mild patch takes every Newton step by preconditioned GMRES
    assert result.linear_iters.shape == (result.iterations,)
    assert np.all(result.linear_iters > 0)


def test_steep_scherk_falls_back_to_direct_steps():
    # GMRES needs far more than one restart cycle at half-width 1.45, so the
    # steps go to the pivot-guarded factorization and the solve still converges
    domain = (-1.45, 1.45, -1.45, 1.45)
    result = solve_plateau(GraphGrid.from_boundary(domain, 65, 65, scherk))
    assert result.converged
    assert result.final_residual <= 1e-10
    assert result.linear_iters.shape == (result.iterations,)
    assert np.all(result.linear_iters == 0)
    exact = GraphGrid.sample(domain, 65, 65, scherk)
    assert np.abs(result.grid.z - exact.z).max() < 5e-3


def _scherk_in_units(k, n, half_width):
    # domain, heights and tol scaled by 2^k: exact in floating point, it scales
    # the residual by 2^-k and the Jacobian by 2^-2k
    s = 2.0**k
    a = half_width * s
    grid = GraphGrid.from_boundary((-a, a, -a, a), n, n, lambda X, Y: s * scherk(X / s, Y / s))
    return solve_plateau(grid, SolveOptions(tol=1e-10 / s))


@pytest.fixture(scope="module")
def steep_scherk_unit_scale():
    return _scherk_in_units(0, 65, 1.45)


@pytest.mark.parametrize("k", [-20, 10, 30])
def test_pivot_guard_does_not_depend_on_units(k, steep_scherk_unit_scale):
    # an absolute pivot cutoff refused the 2^30 case as numerically singular
    ref = steep_scherk_unit_scale
    result = _scherk_in_units(k, 65, 1.45)
    assert result.stop == ref.stop == "converged"
    np.testing.assert_array_equal(result.linear_iters, ref.linear_iters)
    assert np.all(result.linear_iters == 0)  # every step went through the guard
    np.testing.assert_array_equal(result.trace, ref.trace * 2.0**-k)


# grid size and half-width; at 65^2/1.2 every Newton step takes the whole cycle of 30
_GMRES_CASES = [(65, 0.7), (129, 0.7), (65, 1.2)]


@pytest.fixture(scope="module")
def gmres_unit_scale():
    return {case: _scherk_in_units(0, *case) for case in _GMRES_CASES}


@pytest.mark.parametrize("case", _GMRES_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
@pytest.mark.parametrize("k", [-20, 10, 30])
def test_gmres_path_does_not_depend_on_units(k, case, gmres_unit_scale):
    ref = gmres_unit_scale[case]
    result = _scherk_in_units(k, *case)
    assert result.stop == ref.stop == "converged"
    assert np.all(ref.linear_iters > 0)  # every step stayed on GMRES
    np.testing.assert_array_equal(result.linear_iters, ref.linear_iters)
    np.testing.assert_array_equal(result.trace, ref.trace / 2.0**k)
    np.testing.assert_array_equal(result.grid.z, ref.grid.z * 2.0**k)


def test_converged_solve_passes_el_check():
    # the embedded-surface defect of a converged solve is limited by the
    # mismatch between the solver stencil and the smoothed-gradient one;
    # measured 4.9e-3 on the 65^2 Scherk patch
    g = GraphGrid.from_boundary(SCHERK_DOMAIN, 65, 65, scherk)
    result = solve_plateau(g)
    assert delta_L_surface(plateau_lagrangian(), result.grid.surface_grid()).max_norm() < 6e-3


def test_solve_rectangular_grid():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 2.0), 17, 33, lambda X, Y: 0.3 * np.sin(X) * Y)
    result = solve_plateau(g)
    assert result.converged
    assert result.final_residual <= 1e-10


def test_solution_shift_invariance():
    g1 = GraphGrid.from_boundary(SCHERK_DOMAIN, 33, 33, scherk)
    g2 = GraphGrid.from_boundary(SCHERK_DOMAIN, 33, 33, lambda X, Y: scherk(X, Y) + 1.0)
    z1 = solve_plateau(g1).grid.z
    z2 = solve_plateau(g2).grid.z
    assert np.abs((z2 - z1) - 1.0).max() < 1e-12


def test_exhausted_budget_returns_best_iterate():
    g = GraphGrid.from_boundary(SCHERK_DOMAIN, 65, 65, scherk)
    result = solve_plateau(g, SolveOptions(tol=1e-10, max_iter=1))
    assert not result.converged
    assert result.iterations == 1
    assert result.trace.shape == (2,)
    assert result.steps.shape == (1,)
    assert result.steps[0] == 1.0  # full Newton step already descends here
    assert result.trace[1] < result.trace[0]
    assert result.final_residual == np.abs(minimal_surface_residual(result.grid)).max()
    assert result.stop == "max-iter"


def test_tol_below_the_residual_floor_ends_unconverged():
    # rounding the heights alone leaves a residual near eps * sum |J| |z|
    g = GraphGrid.from_boundary(SCHERK_DOMAIN, 17, 17, scherk)
    result = solve_plateau(g, SolveOptions(tol=1e-15))
    assert not result.converged
    assert result.stop == "no-descent"
    assert result.residual_floor > 1e-15
    assert result.final_residual < result.residual_floor


def test_singular_factorization_is_reported():
    singular = scipy.sparse.identity(5, format="lil")
    singular[0, 0] = 0.0
    with pytest.raises(SingularJacobianError):
        _factorize(singular, "test")
    tiny_pivot = scipy.sparse.diags([1.0, 1.0, 1.0, 1e-13])
    with pytest.raises(SingularJacobianError, match="pivot"):
        _factorize(tiny_pivot, "test")


def test_constrained_plane_boundary():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 33, 33, lambda X, Y: 2.0 * (X + Y) - 1.0)
    result = solve_constrained_plateau(g)
    assert result.feasible and result.passed
    assert result.a == pytest.approx(2.0, abs=1e-12)
    assert result.b == pytest.approx(-1.0, abs=1e-12)
    assert result.fit_residual < 1e-12
    assert result.check is not None and result.check.passed
    assert np.allclose(result.plane.z, 2.0 * np.add.outer(result.plane.xs, result.plane.ys) - 1.0)


def test_constrained_constant_boundary():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 17, 17, lambda X, Y: np.full_like(X, 0.7))
    result = solve_constrained_plateau(g)
    assert result.feasible and result.passed
    assert result.a == pytest.approx(0.0, abs=1e-12)
    assert result.b == pytest.approx(0.7, abs=1e-12)


def test_constrained_quadratic_boundary_is_infeasible():
    g = GraphGrid.from_boundary((0.0, 1.0, 0.0, 1.0), 33, 33, lambda X, Y: (X + Y) ** 2)
    result = solve_constrained_plateau(g)
    assert not result.feasible and not result.passed
    assert result.fit_residual > 0.1
    assert result.plane is None and result.check is None
    with pytest.raises(ValueError, match="positive"):
        solve_constrained_plateau(g, fit_tol=0.0)

"""Newton solvers for graph minimal surfaces and their constrained variant.

The unconstrained problem is posed in quasilinear form,

    (1 + z_x^2) z_yy - 2 z_x z_y z_xy + (1 + z_y^2) z_xx = 0,

discretized with the classic central stencils (three-point second
differences, cross term from the four corners).  Newton's method uses the
exact nine-point Jacobian of that stencil, damped by halving the step
until the residual max-norm decreases.  The starting interior is the
harmonic fill of the boundary ring, solved by a type-I DST fast Poisson
solver.  The Newton steps are solved by GMRES preconditioned by that
Laplacian inverse; a step GMRES cannot finish in one restart cycle (steep
slopes) falls back to a sparse LU factorization for the rest of the
solve.  There a pivot falling below 1e-12 aborts the solve rather than
returning garbage.  scipy (fft, sparse matrices, GMRES, LU) is imported
inside the functions that use it, so only a solve pays its import, not
every command that loads this module.

The divergence form div(grad z / sqrt(1 + |grad z|^2)) equals the
quasilinear form divided by W^3, W^2 = 1 + z_x^2 + z_y^2; it is exposed
separately because the graph-area Euler-Lagrange defect of the embedded
surface is -1/sqrt(2) times it.

The constrained variant restricts to heights of the form z = F(x + y),
where the force balance forces F'' = 0: the solution family is the
planes z = a(x + y) + b.  It is therefore solved by least squares over
the boundary samples, followed by a full membership / force-balance
verification of the fitted plane; boundary data outside the family is
reported as infeasible instead of producing a surface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintCheckReport, nonholonomic_check, symmetric_slope_constraint
from .fields import plateau_lagrangian
from .variational import SurfaceGrid

__all__ = [
    "ConstrainedPlateauResult",
    "GraphGrid",
    "PlateauResult",
    "SingularJacobianError",
    "SolveOptions",
    "divergence_form_residual",
    "initial_guess",
    "minimal_surface_residual",
    "solve_constrained_plateau",
    "solve_plateau",
]

_MIN_PIVOT = 1e-12
# GMRES settings of a Newton step: one restart cycle, near-exact solves
_KRYLOV_RESTART = 30
_KRYLOV_RTOL = 1e-12
_KRYLOV_ACCEPT = 1e-10


class SingularJacobianError(RuntimeError):
    """Direct factorization hit a pivot too small to trust."""


@dataclass(frozen=True)
class GraphGrid:
    """Height samples z over a uniform rectangle [x0,x1] x [y0,y1].

    ``z[i, j]`` sits at ``(xs[i], ys[j])``; the outermost ring carries the
    Dirichlet data and stays fixed through every operation here.
    """

    domain: tuple
    z: np.ndarray

    def __post_init__(self):
        x0, x1, y0, y1 = (float(v) for v in self.domain)
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate domain rectangle {(x0, x1, y0, y1)}")
        z = np.array(self.z, dtype=float)
        if z.ndim != 2 or min(z.shape) < 5:
            raise ValueError(f"need at least 5x5 height samples, got {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("height samples must be finite")
        object.__setattr__(self, "domain", (x0, x1, y0, y1))
        object.__setattr__(self, "z", z)
        z.flags.writeable = False

    @property
    def shape(self) -> tuple:
        return self.z.shape

    @property
    def xs(self) -> np.ndarray:
        x0, x1, _, _ = self.domain
        return np.linspace(x0, x1, self.z.shape[0])

    @property
    def ys(self) -> np.ndarray:
        _, _, y0, y1 = self.domain
        return np.linspace(y0, y1, self.z.shape[1])

    @property
    def hx(self) -> float:
        x0, x1, _, _ = self.domain
        return (x1 - x0) / (self.z.shape[0] - 1)

    @property
    def hy(self) -> float:
        _, _, y0, y1 = self.domain
        return (y1 - y0) / (self.z.shape[1] - 1)

    def with_heights(self, z) -> "GraphGrid":
        return GraphGrid(self.domain, z)

    def surface_grid(self) -> SurfaceGrid:
        """Embed as the parameterized surface (x, y, z(x, y))."""
        return SurfaceGrid.from_graph(self.xs, self.ys, self.z)

    def boundary_samples(self):
        """(x, y, z) arrays over the outermost ring, each node once."""
        nx, ny = self.z.shape
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ring = (ii == 0) | (ii == nx - 1) | (jj == 0) | (jj == ny - 1)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return X[ring], Y[ring], self.z[ring]

    @classmethod
    def sample(cls, domain, nx: int, ny: int, fn) -> "GraphGrid":
        """Sample ``fn(x, y)`` (vectorized) on the full node set."""
        x0, x1, y0, y1 = domain
        X, Y = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), indexing="ij")
        return cls(domain, fn(X, Y))

    @classmethod
    def from_boundary(cls, domain, nx: int, ny: int, fn) -> "GraphGrid":
        """Sample ``fn`` on the ring only; interior starts at zero."""
        full = cls.sample(domain, nx, ny, fn)
        z = np.array(full.z)
        z[1:-1, 1:-1] = 0.0
        return cls(domain, z)


@dataclass(frozen=True)
class SolveOptions:
    """Newton iteration knobs: residual target, budget, initial step factor."""

    tol: float = 1e-10
    max_iter: int = 25
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


def _stencil_pieces(z: np.ndarray, hx: float, hy: float):
    """Central first/second/cross differences on the interior block."""
    c = z[1:-1, 1:-1]
    zx = (z[2:, 1:-1] - z[:-2, 1:-1]) / (2.0 * hx)
    zy = (z[1:-1, 2:] - z[1:-1, :-2]) / (2.0 * hy)
    zxx = (z[2:, 1:-1] - 2.0 * c + z[:-2, 1:-1]) / hx**2
    zyy = (z[1:-1, 2:] - 2.0 * c + z[1:-1, :-2]) / hy**2
    zxy = (z[2:, 2:] - z[2:, :-2] - z[:-2, 2:] + z[:-2, :-2]) / (4.0 * hx * hy)
    return zx, zy, zxx, zyy, zxy


def _quasilinear(z: np.ndarray, hx: float, hy: float) -> np.ndarray:
    zx, zy, zxx, zyy, zxy = _stencil_pieces(z, hx, hy)
    return (1.0 + zx**2) * zyy - 2.0 * zx * zy * zxy + (1.0 + zy**2) * zxx


def minimal_surface_residual(grid: GraphGrid) -> np.ndarray:
    """Quasilinear minimal-surface operator at the interior nodes."""
    return _quasilinear(grid.z, grid.hx, grid.hy)


def divergence_form_residual(grid: GraphGrid) -> np.ndarray:
    """div(grad z / W) at the interior nodes: the quasilinear form over W^3."""
    zx, zy, zxx, zyy, zxy = _stencil_pieces(grid.z, grid.hx, grid.hy)
    quasi = (1.0 + zx**2) * zyy - 2.0 * zx * zy * zxy + (1.0 + zy**2) * zxx
    return quasi / (1.0 + zx**2 + zy**2) ** 1.5


def _factorize(matrix, context: str):
    from scipy.sparse.linalg import splu

    try:
        lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # exactly singular
        raise SingularJacobianError(f"{context}: {err}") from err
    pivot = float(np.abs(lu.U.diagonal()).min())
    if pivot < _MIN_PIVOT:
        raise SingularJacobianError(
            f"{context}: pivot {pivot:.3e} below {_MIN_PIVOT:.0e}; the linearized "
            f"system is numerically singular"
        )
    return lu


@functools.lru_cache(maxsize=1)
def _poisson_solver(mi: int, mj: int, hx: float, hy: float):
    """Inverse of the 5-point Dirichlet Laplacian on an ``(mi, mj)`` interior block.

    The type-I sine modes diagonalize the three-point second difference on
    each axis with eigenvalues ``(2 cos(pi k / (m + 1)) - 2) / h^2``, so one
    forward and one inverse DST solve the system (Buzbee, Golub & Nielson,
    SIAM J. Numer. Anal. 7, 1970).  The last block's operator is cached, so
    the harmonic fill and the Newton preconditioner of one solve share it.
    """
    from scipy.fft import dstn, idstn  # scipy is imported by solves only
    from scipy.sparse.linalg import LinearOperator

    def axis(m, h):
        return (2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 2.0) / h**2

    eig = axis(mi, hx)[:, None] + axis(mj, hy)[None, :]

    def solve(rhs: np.ndarray) -> np.ndarray:
        return idstn(dstn(rhs.reshape(mi, mj), type=1) / eig, type=1).ravel()

    return LinearOperator((mi * mj, mi * mj), matvec=solve, dtype=float)


def initial_guess(grid: GraphGrid) -> GraphGrid:
    """Replace the interior by the discrete harmonic fill of the ring data."""
    nx, ny = grid.shape
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    rhs = np.zeros((nx - 2, ny - 2))
    rhs[0, :] -= ax * grid.z[0, 1:-1]
    rhs[-1, :] -= ax * grid.z[-1, 1:-1]
    rhs[:, 0] -= ay * grid.z[1:-1, 0]
    rhs[:, -1] -= ay * grid.z[1:-1, -1]
    z = np.array(grid.z)
    fill = _poisson_solver(nx - 2, ny - 2, grid.hx, grid.hy).matvec(rhs.ravel())
    z[1:-1, 1:-1] = fill.reshape(nx - 2, ny - 2)
    return grid.with_heights(z)


def _newton_matrix(z: np.ndarray, hx: float, hy: float):
    """Exact nine-point Jacobian of the quasilinear stencil, interior unknowns."""
    from scipy.sparse import coo_matrix

    nx, ny = z.shape
    mi, mj = nx - 2, ny - 2
    zx, zy, zxx, zyy, zxy = _stencil_pieces(z, hx, hy)
    ax, ay = 1.0 / hx**2, 1.0 / hy**2
    cross = 2.0 * zx * zy / (4.0 * hx * hy)
    # slope sensitivities feed through the coefficients of the stencil
    dx_slope = (2.0 * zx * zyy - 2.0 * zy * zxy) / (2.0 * hx)
    dy_slope = (2.0 * zy * zxx - 2.0 * zx * zxy) / (2.0 * hy)
    coeff = {
        (0, 0): -2.0 * (1.0 + zx**2) * ay - 2.0 * (1.0 + zy**2) * ax,
        (1, 0): (1.0 + zy**2) * ax + dx_slope,
        (-1, 0): (1.0 + zy**2) * ax - dx_slope,
        (0, 1): (1.0 + zx**2) * ay + dy_slope,
        (0, -1): (1.0 + zx**2) * ay - dy_slope,
        (1, 1): -cross,
        (-1, -1): -cross,
        (1, -1): cross,
        (-1, 1): cross,
    }
    idx = np.arange(mi * mj).reshape(mi, mj)
    rows, cols, vals = [], [], []
    for (di, dj), value in coeff.items():
        value = np.broadcast_to(value, (mi, mj))
        # clip to neighbor nodes that are themselves unknowns
        ri = slice(max(0, -di), mi - max(0, di))
        rj = slice(max(0, -dj), mj - max(0, dj))
        ci = slice(max(0, di), mi - max(0, -di))
        cj = slice(max(0, dj), mj - max(0, -dj))
        rows.append(idx[ri, rj].ravel())
        cols.append(idx[ci, cj].ravel())
        vals.append(value[ri, rj].ravel())
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mi * mj, mi * mj),
    )


def _krylov_step(jac, residual: np.ndarray, precond):
    """GMRES Newton step preconditioned by the Laplacian inverse.

    Returns ``(step, iterations)``, or ``(None, 0)`` when one restart
    cycle leaves the preconditioned residual ``||P(J s + r)||`` above
    ``_KRYLOV_ACCEPT * ||P r||``.  That is the norm GMRES minimizes;
    the unpreconditioned one scipy reports through ``info`` sits at the
    roundoff floor (about eps * cond J) on fine grids and would reject
    good steps.
    """
    from scipy.sparse.linalg import gmres

    r = residual.ravel()
    calls = []
    step, _ = gmres(jac, -r, M=precond, rtol=_KRYLOV_RTOL, atol=0.0, restart=_KRYLOV_RESTART,
                    maxiter=1, callback=calls.append, callback_type="pr_norm")
    miss = np.linalg.norm(precond.matvec(jac @ step + r))
    if miss > _KRYLOV_ACCEPT * np.linalg.norm(precond.matvec(r)):
        return None, 0
    return step.reshape(residual.shape), len(calls)


@dataclass(frozen=True)
class PlateauResult:
    """Solve outcome: final iterate, convergence flag, residual history.

    ``trace[k]`` is the residual max-norm after k iterations (entry 0 is
    the harmonic-fill start); ``steps[k]`` is the damping factor the
    k-th iteration was accepted at; ``linear_iters[k]`` is the number of
    GMRES iterations its linear solve took, 0 where it was solved by the
    direct factorization.
    """

    grid: GraphGrid
    converged: bool
    iterations: int
    trace: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    linear_iters: np.ndarray = field(repr=False)

    @property
    def final_residual(self) -> float:
        return float(self.trace[-1])


def solve_plateau(grid: GraphGrid, options: SolveOptions | None = None) -> PlateauResult:
    """Damped Newton iteration for the minimal-surface equation.

    Only the ring of ``grid`` is consumed; the interior starts from the
    harmonic fill.  Each iteration solves with the exact stencil Jacobian
    and halves the step until the residual max-norm decreases, so the
    trace is strictly decreasing; running out of iterations (or of step
    halvings) returns the best iterate with ``converged=False`` instead
    of raising.

    The linear solves are preconditioned GMRES (Newton-Krylov; Knoll &
    Keyes, JCP 193, 2004) to a near-exact tolerance, so convergence stays
    quadratic.  The first step GMRES misses is solved by the pivot-guarded
    direct factorization, and so is every later step of that solve: the
    iteration count grows with the slope of the surface, and a steep patch
    would otherwise pay a failed Krylov cycle on every step.
    """
    opts = options or SolveOptions()
    current = initial_guess(grid)
    hx, hy = grid.hx, grid.hy
    nx, ny = grid.shape
    precond = _poisson_solver(nx - 2, ny - 2, hx, hy)
    residual = _quasilinear(current.z, hx, hy)
    trace = [float(np.abs(residual).max())]
    steps = []
    linear_iters = []
    direct = False
    iterations = 0
    while trace[-1] > opts.tol and iterations < opts.max_iter:
        jac = _newton_matrix(current.z, hx, hy).tocsr()
        update, krylov_iters = (None, 0) if direct else _krylov_step(jac, residual, precond)
        if update is None:  # GMRES missed: this step and every later one go direct
            direct = True
            lu = _factorize(jac, "plateau newton")
            update = lu.solve(-residual.ravel()).reshape(residual.shape)
        step = opts.damping
        accepted = None
        while step > 2.0**-30:
            z_try = np.array(current.z)
            z_try[1:-1, 1:-1] += step * update
            r_try = _quasilinear(z_try, hx, hy)
            norm = float(np.abs(r_try).max())
            if norm < trace[-1]:
                accepted = (z_try, r_try, norm)
                break
            step *= 0.5
        if accepted is None:
            break  # no descent left at this resolution: keep the best iterate
        current = current.with_heights(accepted[0])
        residual = accepted[1]
        trace.append(accepted[2])
        steps.append(step)
        linear_iters.append(krylov_iters)
        iterations += 1
    return PlateauResult(
        grid=current,
        converged=bool(trace[-1] <= opts.tol),
        iterations=iterations,
        trace=np.asarray(trace),
        steps=np.asarray(steps),
        linear_iters=np.asarray(linear_iters, dtype=int),
    )


@dataclass(frozen=True)
class ConstrainedPlateauResult:
    """Plane fit z = a(x+y) + b over the boundary, with its verification.

    Infeasible boundary data (fit defect above ``fit_tol``) leaves
    ``plane`` and ``check`` empty: there is no surface to report.
    """

    a: float
    b: float
    fit_residual: float
    fit_tol: float
    feasible: bool
    plane: GraphGrid | None
    check: ConstraintCheckReport | None

    @property
    def passed(self) -> bool:
        return self.feasible and self.check is not None and self.check.passed


def solve_constrained_plateau(
    grid: GraphGrid,
    fit_tol: float = 1e-8,
    constraint_tol: float = 1e-6,
    force_tol: float | None = None,
) -> ConstrainedPlateauResult:
    """Solve the diagonal-constrained Plateau problem from boundary data.

    Under the symmetric-slope constraint the force balance collapses to
    F'' = 0 for heights z = F(x + y), so the solutions are exactly the
    planes z = a(x + y) + b.  The plane is fit to the ring samples by
    least squares; if the worst fit defect exceeds ``fit_tol`` the data
    is incompatible with the solution family and infeasibility is
    reported.  Otherwise the fitted plane is rebuilt on the grid and
    pushed through the full membership / force-balance check.
    """
    if not fit_tol > 0.0:
        raise ValueError("fit_tol must be positive")
    bx, by, bz = grid.boundary_samples()
    design = np.column_stack([bx + by, np.ones_like(bz)])
    (a, b), *_ = np.linalg.lstsq(design, bz, rcond=None)
    fit_residual = float(np.abs(design @ (a, b) - bz).max())
    if fit_residual > fit_tol:
        return ConstrainedPlateauResult(
            a=float(a), b=float(b), fit_residual=fit_residual, fit_tol=float(fit_tol),
            feasible=False, plane=None, check=None,
        )
    nx, ny = grid.shape
    plane = GraphGrid.sample(grid.domain, nx, ny, lambda X, Y: a * (X + Y) + b)
    report = nonholonomic_check(
        plateau_lagrangian(),
        plane.surface_grid(),
        symmetric_slope_constraint(),
        constraint_tol,
        force_tol,
    )
    return ConstrainedPlateauResult(
        a=float(a), b=float(b), fit_residual=fit_residual, fit_tol=float(fit_tol),
        feasible=True, plane=plane, check=report,
    )

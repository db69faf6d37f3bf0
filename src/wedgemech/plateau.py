"""Newton solvers for graph minimal surfaces and their constrained variant.

The unconstrained problem is posed in quasilinear form,

    (1 + z_x^2) z_yy - 2 z_x z_y z_xy + (1 + z_y^2) z_xx = 0,

discretized with the classic central stencils (three-point second
differences, cross term from the four corners).  Newton's method uses the
exact nine-point Jacobian of that stencil, damped by halving the full
step until the residual max-norm decreases; a solve's only settings are
its residual target and its iteration budget.  The starting interior is the
harmonic fill of the boundary ring, solved by a type-I DST fast Poisson
solver.  Each iterate's differences are taken once, for its residual and,
once it is accepted, its Jacobian: nine coefficient arrays that GMRES
applies matrix-free through shifted slices, preconditioned by the
Laplacian inverse.  A step GMRES cannot finish in one restart cycle (steep
slopes) falls back, for the rest of the solve, to a sparse LU
factorization of the same stencil laid out as a CSR matrix.  There a pivot
falling below 1e-12 of the largest Jacobian entry aborts the solve rather
than returning garbage; being relative, the guard does not depend on the
units of the domain.  scipy is imported inside the functions that use it,
so only a solve pays its import.  The sine transforms run on numpy.fft,
bitwise as on ``scipy.fft``, until the process has spent about one import
of ``scipy.fft`` (0.2 s, 7 M element-pairs) on their slower route; the next
solve imports it.  The direct fallback loads the sparse matrices and LU.

The quasilinear form is W^3 times the divergence form div(grad z / W),
W^2 = 1 + z_x^2 + z_y^2, and the graph-area Euler-Lagrange defect of the
embedded surface is -1/sqrt(2) times the divergence form: the tests hold
`minimal_surface_residual` to both.

The constrained variant restricts to heights of the form z = F(x + y),
where the force balance forces F'' = 0: the solution family is the
planes z = a(x + y) + b.  It is therefore solved by least squares over
the boundary samples, followed by a full membership / force-balance
verification of the fitted plane; boundary data outside the family is
reported as infeasible instead of producing a surface.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .constraints import ConstraintCheckReport, nonholonomic_check, symmetric_slope_constraint
from .fields import plateau_lagrangian
from .variational import SurfaceGrid, _require_finite

__all__ = [
    "ConstrainedPlateauResult",
    "GraphGrid",
    "PlateauResult",
    "SingularJacobianError",
    "SolveOptions",
    "initial_guess",
    "minimal_surface_residual",
    "solve_constrained_plateau",
    "solve_plateau",
]

_MIN_PIVOT = 1e-12  # relative to the largest Jacobian entry
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
        if not all(np.finfo(float).tiny <= h * h < math.inf for h in (self.hx, self.hy)):
            raise ValueError(f"grid steps {self.hx!r}, {self.hy!r} square out of the normal floats")
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
        ring = _ring(*self.z.shape)
        X, Y = _nodes(self.domain, *self.z.shape)
        return X[ring], Y[ring], self.z[ring]

    @classmethod
    def sample(cls, domain, nx: int, ny: int, fn) -> "GraphGrid":
        """Sample ``fn(x, y)`` (vectorized) on the full node set."""
        return cls(domain, fn(*_nodes(domain, nx, ny)))

    @classmethod
    def from_boundary(cls, domain, nx: int, ny: int, fn) -> "GraphGrid":
        """Sample ``fn(x, y)`` (vectorized) on the ring only; interior starts at zero."""
        ring = _ring(nx, ny)
        X, Y = _nodes(domain, nx, ny)
        z = np.zeros((nx, ny))
        z[ring] = fn(X[ring], Y[ring])
        return cls(domain, z)


def _nodes(domain, nx: int, ny: int):
    """Coordinate arrays X, Y (nx, ny) of the nodes over ``domain``."""
    x0, x1, y0, y1 = domain
    return np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), indexing="ij")


def _ring(nx: int, ny: int) -> np.ndarray:
    """Boolean (nx, ny) mask of the outermost ring of nodes."""
    ring = np.ones((nx, ny), dtype=bool)
    ring[1:-1, 1:-1] = False
    return ring


@dataclass(frozen=True)
class SolveOptions:
    """Newton iteration settings: residual target and iteration budget.

    ``damping`` is no setting but the constant 1.0, the step each line search
    starts from; it stays readable because the benchmark tracer counts step
    halvings from it, until that tracer reads the package's own recorder
    (ROADMAP item 3b).
    """

    tol: float = 1e-10
    max_iter: int = 25
    damping: ClassVar[float] = 1.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _stencil_pieces(z: np.ndarray, hx: float, hy: float):
    """Central first/second/cross differences on the interior block."""
    c = z[1:-1, 1:-1]
    zx = (z[2:, 1:-1] - z[:-2, 1:-1]) / (2.0 * hx)
    zy = (z[1:-1, 2:] - z[1:-1, :-2]) / (2.0 * hy)
    zxx = (z[2:, 1:-1] - 2.0 * c + z[:-2, 1:-1]) / hx**2
    zyy = (z[1:-1, 2:] - 2.0 * c + z[1:-1, :-2]) / hy**2
    zxy = (z[2:, 2:] - z[2:, :-2] - z[:-2, 2:] + z[:-2, :-2]) / (4.0 * hx * hy)
    return zx, zy, zxx, zyy, zxy


def _quasilinear(pieces: tuple) -> np.ndarray:
    """Quasilinear operator from the differences ``pieces`` of `_stencil_pieces`."""
    zx, zy, zxx, zyy, zxy = pieces
    return (1.0 + zx**2) * zyy - 2.0 * zx * zy * zxy + (1.0 + zy**2) * zxx


def minimal_surface_residual(grid: GraphGrid) -> np.ndarray:
    """Quasilinear minimal-surface operator at the interior nodes."""
    return _quasilinear(_stencil_pieces(grid.z, grid.hx, grid.hy))


def _factorize(matrix):
    from scipy.sparse.linalg import splu

    matrix = matrix.tocsc()
    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # exactly singular
        raise SingularJacobianError(f"plateau newton: {err}") from err
    pivot = float(np.abs(lu.U.diagonal()).min())
    scale = float(np.abs(matrix.data).max())
    if pivot < _MIN_PIVOT * scale:
        raise SingularJacobianError(
            f"plateau newton: pivot {pivot:.3e} below {_MIN_PIVOT:.0e} of the largest entry "
            f"{scale:.3e}; the linearized system is numerically singular"
        )
    return lu


# A fresh `import scipy.fft` takes about 0.2 s, a pair on numpy.fft 12-33 ns more per element
# (255^2 to 31^2 interiors; scipy 1.17.1, numpy 2.4.6, 2-core host): at 28 ns, 0.2 s buys 7 M
# element-pairs.  Rent numpy.fft that long, then buy the import (rent-or-buy: Karlin et al. 1988).
_SCIPY_FFT_WORTH = 7_000_000
_numpy_dst_work = 0  # element-pairs this process has transformed on numpy.fft
_DST_BLOCK = 32  # lines per numpy.fft call: bounds the extensions' memory


def _dst_route(size: int):
    """DST-I for the next pair (``size`` entries): numpy.fft, counted, until scipy.fft is loaded."""
    global _numpy_dst_work
    if "scipy.fft" in sys.modules:
        return _scipy_dst1
    _numpy_dst_work += size
    return _numpy_dst1


def _scipy_dst1(x: np.ndarray, inverse: bool) -> np.ndarray:
    from scipy.fft import dstn, idstn
    return idstn(x, type=1, overwrite_x=True) if inverse else dstn(x, type=1)


def _numpy_dst1(x: np.ndarray, inverse: bool) -> np.ndarray:
    """`_scipy_dst1` on numpy.fft, bitwise, by pocketfft's steps; the inverse overwrites ``x``.

    A line c of m entries becomes minus the imaginary parts 1..m of the real FFT of
    (c0 * 0, c, c0 * 0, -c reversed) times the factor: 1 / (4 (m0 + 1) (m1 + 1)) from
    a long double for the inverse, applied on axis 0, which goes first."""
    m0, m1 = x.shape
    out = x if inverse else np.empty_like(x)
    _dst1_rows(x.T, out.T, float(1 / np.longdouble(4 * (m0 + 1) * (m1 + 1))) if inverse else 1.0)
    _dst1_rows(out, out, 1.0)
    return out


def _dst1_rows(src: np.ndarray, dst: np.ndarray, fct: float) -> None:
    """Row-wise DST-I of ``src`` times ``fct`` into ``dst``, which may be ``src``."""
    n, m = src.shape
    ext = np.empty((min(n, _DST_BLOCK), 2 * m + 2))
    spectrum = np.empty((len(ext), m + 2), dtype=complex)
    for start in range(0, n, _DST_BLOCK):
        lines = src[start : start + _DST_BLOCK]
        e = ext[: len(lines)]
        e[:, m + 2 :] = lines[:, ::-1]
        np.negative(e, out=e)  # ufuncs on whole blocks: numpy adds no iteration buffers
        e[:, 1 : m + 1] = lines
        np.multiply(lines[:, 0], 0.0, out=e[:, 0])
        e[:, m + 1] = e[:, 0]
        f = np.fft.rfft(e, out=spectrum[: len(lines)])
        np.multiply(f.view(float), -fct, out=f.view(float))
        dst[start : start + len(lines)] = f.imag[:, 1 : m + 1]


@functools.lru_cache(maxsize=1)
def _poisson_solver(mi: int, mj: int, hx: float, hy: float):
    """Inverse of the 5-point Dirichlet Laplacian on an ``(mi, mj)`` interior block.

    The type-I sine modes diagonalize the three-point second difference on
    each axis with eigenvalues ``(2 cos(pi k / (m + 1)) - 2) / h^2``, so one
    forward and one inverse DST solve the system (Buzbee, Golub & Nielson,
    SIAM J. Numer. Anal. 7, 1970).  Returns a function of a right-hand side
    with ``mi * mj`` entries that gives the flat solution.  The last block's
    operator is cached, so the harmonic fill and the Newton preconditioner
    of one solve share it.  Each application takes the DST `_dst_route` gives.
    """

    def axis(m, h):
        return (2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 2.0) / h**2

    eig = axis(mi, hx)[:, None] + axis(mj, hy)[None, :]

    def solve(rhs: np.ndarray) -> np.ndarray:
        dst1 = _dst_route(mi * mj)
        spectrum = dst1(rhs.reshape(mi, mj), False)
        return dst1(np.divide(spectrum, eig, out=spectrum), True).ravel()

    return solve


def _finite_start(interior: np.ndarray, what: str) -> np.ndarray:
    """``interior`` (the interior block of a start), or `NodeDomainError` where it is not finite."""
    _require_finite(np.isfinite(interior), f"plateau start is not finite ({what})", 1)
    return interior


def initial_guess(grid: GraphGrid) -> GraphGrid:
    """Replace the interior by the discrete harmonic fill of the ring data."""
    # a solve starts here: past the budget, buy scipy.fft before its arrays exist, since
    # an import among them fragments the heap (a long run's peak RSS rose 1-5 MB)
    if _numpy_dst_work >= _SCIPY_FFT_WORTH:
        import scipy.fft  # noqa: F401
    nx, ny = grid.shape
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing fill is refused below
        rhs = np.zeros((nx - 2, ny - 2))
        rhs[0, :] -= ax * grid.z[0, 1:-1]
        rhs[-1, :] -= ax * grid.z[-1, 1:-1]
        rhs[:, 0] -= ay * grid.z[1:-1, 0]
        rhs[:, -1] -= ay * grid.z[1:-1, -1]
        fill = _poisson_solver(nx - 2, ny - 2, grid.hx, grid.hy)(rhs)
    z = np.array(grid.z)
    z[1:-1, 1:-1] = _finite_start(fill.reshape(nx - 2, ny - 2), "harmonic fill")
    return grid.with_heights(z)


# neighbor offsets (di, dj) of the nine-point stencil in CSR column order
_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))


def _jacobian_stencil(pieces: tuple, hx: float, hy: float) -> tuple:
    """Exact nine-point Jacobian of the quasilinear stencil as coefficient arrays.

    Entry ``k`` is the interior-block array of d(residual[i, j]) /
    d(z[i + di, j + dj]) for the ``k``-th offset of ``_OFFSETS``, at the
    heights whose differences `_stencil_pieces` gave as ``pieces``.
    """
    zx, zy, zxx, zyy, zxy = pieces
    ax, ay = 1.0 / hx**2, 1.0 / hy**2
    cross = 2.0 * zx * zy / (4.0 * hx * hy)
    # slope sensitivities feed through the coefficients of the stencil
    dx_slope = (2.0 * zx * zyy - 2.0 * zy * zxy) / (2.0 * hx)
    dy_slope = (2.0 * zy * zxx - 2.0 * zx * zxy) / (2.0 * hy)
    return (
        -cross,
        (1.0 + zy**2) * ax - dx_slope,
        cross,
        (1.0 + zx**2) * ay - dy_slope,
        -2.0 * (1.0 + zx**2) * ay - 2.0 * (1.0 + zy**2) * ax,
        (1.0 + zx**2) * ay + dy_slope,
        cross,
        (1.0 + zy**2) * ax + dx_slope,
        -cross,
    )


def _apply_stencil(coeffs: tuple, padded: np.ndarray) -> np.ndarray:
    """Sum of ``coeffs[k]`` times ``padded`` shifted by ``_OFFSETS[k]`` over the interior.

    ``padded`` has the full node shape; the terms add up in CSR column
    order, so with a zero ring this is bitwise the sparse Jacobian's
    product with the interior of ``padded``.
    """
    mi, mj = coeffs[0].shape
    out = np.zeros((mi, mj))
    term = np.empty((mi, mj))
    for c, (di, dj) in zip(coeffs, _OFFSETS):
        out += np.multiply(c, padded[1 + di : 1 + di + mi, 1 + dj : 1 + dj + mj], out=term)
    return out


def _newton_matrix(coeffs: tuple):
    """The stencil ``coeffs`` as a CSR matrix over the interior unknowns.

    Row k holds node k's nine entries in ``_OFFSETS`` order, less those
    whose neighbor is a ring node; the columns of a row then ascend, so
    the arrays are already in canonical CSR form.
    """
    from scipy.sparse import csr_matrix

    mi, mj = coeffs[0].shape
    inside = np.pad(np.ones((mi, mj), dtype=bool), 1)
    keep = np.stack([inside[1 + di : 1 + di + mi, 1 + dj : 1 + dj + mj] for di, dj in _OFFSETS], -1)
    columns = np.arange(mi * mj).reshape(mi, mj, 1) + [di * mj + dj for di, dj in _OFFSETS]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1))])
    return csr_matrix((np.stack(coeffs, -1)[keep], columns[keep], indptr), shape=(mi * mj, mi * mj))


def _krylov_step(coeffs: tuple, residual: np.ndarray, precond):
    """Newton step ``J s = -r`` by one cycle of left-preconditioned GMRES.

    ``J`` is applied matrix-free from its stencil ``coeffs`` and ``precond``
    is the Laplacian inverse P.  Arnoldi orthogonalizes by classical
    Gram-Schmidt with one reorthogonalization; Givens rotations reduce the
    Hessenberg matrix as it grows, and the cycle stops once the
    preconditioned residual estimate falls to ``_KRYLOV_RTOL * ||P r||``.

    Returns ``(step, iterations)``, or ``(None, 0)`` when the cycle leaves
    the true preconditioned residual ``||P(J s + r)||`` above
    ``_KRYLOV_ACCEPT * ||P r||``.  That is the norm GMRES minimizes; the
    unpreconditioned one sits at the roundoff floor (about eps * cond J)
    on fine grids and would reject good steps.
    """
    mi, mj = residual.shape
    padded = np.zeros((mi + 2, mj + 2))

    def jac(v):
        padded[1:-1, 1:-1] = v.reshape(mi, mj)
        return _apply_stencil(coeffs, padded).ravel()

    r = residual.ravel()
    u = precond(r)
    beta = float(np.linalg.norm(u))
    basis = np.empty((_KRYLOV_RESTART + 1, r.size))
    basis[0] = u / beta
    tri = np.zeros((_KRYLOV_RESTART, _KRYLOV_RESTART))  # R of the Hessenberg QR
    rotations = []
    g = [-beta]  # Q^T (P(-r)) as it builds up
    for k in range(_KRYLOV_RESTART):
        w = precond(jac(basis[k]))
        done = basis[: k + 1]
        h = done @ w
        w -= h @ done
        h2 = done @ w
        w -= h2 @ done
        column = (h + h2).tolist()
        norm_w = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            a, b = column[i], column[i + 1]
            column[i], column[i + 1] = c * a + s * b, c * b - s * a
        rho = math.hypot(column[k], norm_w)
        if rho == 0.0:  # singular on the Krylov space: leave it to the direct solve
            return None, 0
        c, s = column[k] / rho, norm_w / rho
        rotations.append((c, s))
        column[k] = rho
        tri[: k + 1, k] = column[: k + 1]
        g[k], g_next = c * g[k], -s * g[k]
        g.append(g_next)
        if abs(g_next) <= _KRYLOV_RTOL * beta:
            break
        basis[k + 1] = w / norm_w
    m = len(rotations)
    y = np.zeros(m)
    for i in range(m - 1, -1, -1):
        y[i] = (g[i] - tri[i, i + 1 : m] @ y[i + 1 :]) / tri[i, i]
    step = y @ basis[:m]
    miss = float(np.linalg.norm(precond(jac(step) + r)))
    if not miss <= _KRYLOV_ACCEPT * beta:
        return None, 0
    return step.reshape(residual.shape), m


@dataclass(frozen=True)
class PlateauResult:
    """Solve outcome: final iterate, residual history, why the iteration ended.

    ``trace[k]`` is the residual max-norm after k iterations (entry 0 is
    the harmonic-fill start); ``steps[k]`` is the damping factor the
    k-th iteration was accepted at; ``linear_iters[k]`` is the number of
    GMRES iterations its linear solve took, 0 where it was solved by the
    direct factorization.

    ``stop`` says why the iteration ended: ``"converged"`` (residual at or
    below ``tol``), ``"max-iter"`` (budget spent) or ``"no-descent"`` (no
    step halving lowered the residual).  ``residual_floor`` is
    ``eps * max_i sum_k |J_ik| |z_k|`` over the interior unknowns at the
    final iterate: the residual that rounding the heights alone can
    leave, so a ``tol`` below it is out of float64's reach.  ``converged``
    and ``iterations`` are read off ``stop`` and ``steps``.
    """

    grid: GraphGrid
    trace: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    linear_iters: np.ndarray = field(repr=False)
    stop: str
    residual_floor: float

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @property
    def iterations(self) -> int:
        return len(self.steps)

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
    factorization of the same Jacobian, and so is every later step: the
    iteration count grows with the slope of the surface, and a steep patch
    would otherwise pay a failed Krylov cycle on every step.
    """
    opts = options or SolveOptions()
    current = initial_guess(grid)
    hx, hy = grid.hx, grid.hy
    with np.errstate(over="ignore", invalid="ignore"):
        pieces = _stencil_pieces(current.z, hx, hy)
        residual = _finite_start(_quasilinear(pieces), "minimal-surface residual")
    precond = _poisson_solver(*residual.shape, hx, hy)
    trace = [float(np.abs(residual).max())]
    steps, linear_iters = [], []
    stop = "max-iter"
    while True:
        # one Jacobian per accepted iterate; its differences are dropped before the solve
        jacobian = _jacobian_stencil(pieces, hx, hy)
        del pieces
        if trace[-1] <= opts.tol or len(steps) >= opts.max_iter:
            break
        update, krylov_iters = None, 0  # free the last update before GMRES allocates its basis
        if 0 not in linear_iters:  # no step went direct yet (0 GMRES iterations marks one)
            update, krylov_iters = _krylov_step(jacobian, residual, precond)
        if update is None:  # GMRES missed: this step and every later one go direct
            lu = _factorize(_newton_matrix(jacobian))
            update = lu.solve(-residual.ravel()).reshape(residual.shape)
        step = opts.damping
        while step > 2.0**-30:
            z_try = np.array(current.z)
            z_try[1:-1, 1:-1] += step * update
            pieces = _stencil_pieces(z_try, hx, hy)
            residual = _quasilinear(pieces)
            norm = float(np.abs(residual).max())
            if norm < trace[-1]:
                break
            step *= 0.5
        else:
            stop = "no-descent"  # keep the best iterate at this resolution
            break
        current = current.with_heights(z_try)
        trace.append(norm)
        steps.append(step)
        linear_iters.append(krylov_iters)
    unknowns = np.pad(np.abs(current.z[1:-1, 1:-1]), 1)
    floor = _apply_stencil([np.abs(c) for c in jacobian], unknowns)
    return PlateauResult(
        grid=current,
        trace=np.asarray(trace),
        steps=np.asarray(steps),
        linear_iters=np.asarray(linear_iters, dtype=int),
        stop="converged" if trace[-1] <= opts.tol else stop,
        residual_floor=float(np.finfo(float).eps * floor.max()),
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
    plane: GraphGrid | None
    check: ConstraintCheckReport | None

    @property
    def feasible(self) -> bool:
        return self.plane is not None

    @property
    def passed(self) -> bool:
        return self.feasible and self.check.passed


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
    plane = report = None
    if not fit_residual > fit_tol:
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
        plane=plane, check=report,
    )

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

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from wedgemech import constraints
from wedgemech.constraints import (
    AffineConstraint1,
    AffineConstraint2,
    RankDecisionError,
    constraint_residual,
    dalembert_decompose,
    first_axis_drift_constraint,
    nonholonomic_check,
    nonholonomic_check_curve,
    symmetric_slope_constraint,
    _maps,
)
from wedgemech.fields import (CallableBivectorLagrangian, CurveLagrangian, nambu_goto,
                              plateau_lagrangian, quadratic_curve_lagrangian)
from wedgemech.geometry import (Bivector, Metric, antisymmetric_from_slots, index_pairs,
                                pair_count, wedge)
from wedgemech.variational import (CurveGrid, SurfaceGrid, delta_L_curve, delta_L_surface,
                                   NodeDomainError, velocity_prolongation, wedge_prolongation,
                                   worst_node)


def contraction_matrix(generators, dim):
    """Rows of the contraction eta -> eta_mu u^{mu nu} assembled by explicit index loops."""
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


def ndindex_fields(degree, dim, fields, x):
    """Section and generators by the per-node `np.ndindex` loop that the flat
    pass of `AffineConstraint._fields_at` replaced, kept as its reference."""
    x = np.asarray(x, dtype=float)
    if not any(callable(f) for f in fields):
        x = x.reshape(-1, dim)[0]
    nodes = x.shape[:-1]
    size = dim if degree == 1 else pair_count(dim)
    values = np.empty(nodes + (len(fields), size))
    for node in np.ndindex(nodes):
        for k, field in enumerate(fields):
            value = field(x[node]) if callable(field) else field
            values[node + (k,)] = value.slots if degree == 2 else value
    return values[..., 0, :], values[..., 1:, :]


def per_node_annihilator(degree, dim, generators, x):
    """Annihilator rows (..., r, dim) of the generator stacks (..., g, s) of every
    node, each node decomposed on its own: the `matrix_rank` dependence test and
    the batched SVD that grouping by distinct stacks replaced, kept as their
    reference with the same errors and the same named nodes."""
    points = np.asarray(x, dtype=float).reshape(-1, dim)
    nodes = generators.shape[:-2]
    dependent = np.linalg.matrix_rank(generators) < generators.shape[-2]
    if np.any(dependent):
        raise ValueError(f"constraint generators are linearly dependent at "
                         f"x = {points[np.argmax(dependent)].tolist()}")
    mats = _maps(generators, degree, dim).reshape(nodes + (-1, dim))
    _, s, vh = np.linalg.svd(mats, full_matrices=True)
    cutoff = max(mats.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    ambiguous = (s > cutoff) & (s < cutoff * 10.0)
    if ambiguous.any():
        node = np.unravel_index(np.argmax(ambiguous.any(axis=-1)), nodes)
        where = f" at x = {np.asarray(x)[node].tolist()}" if nodes else ""
        k = int(np.argmax(ambiguous[node]))
        element = ("vector", "bivector")[degree - 1]
        raise RankDecisionError(
            f"{element} annihilator{where}: singular value {s[node][k]:.3e} sits within a "
            f"factor 10 of the rank cutoff {cutoff[node][0]:.3e}; refine the generators or rescale"
        )
    rank = np.sum(s > cutoff, axis=-1)
    first = int(rank.flat[0])
    if np.any(rank != first):
        node = np.unravel_index(np.argmax(rank != first), nodes)
        raise RankDecisionError(
            f"annihilator dimension changes from {dim - first} to {dim - rank[node]} "
            f"at x = {np.asarray(x)[node].tolist()}"
        )
    return vh[..., first:, :]


def test_symmetric_slope_annihilator_direction():
    ann = symmetric_slope_constraint().annihilator_at(np.zeros(3))
    assert ann.shape == (1, 3)
    target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert abs(abs(ann[0] @ target) - 1.0) < 1e-12


def _annihilator_of(generators, dim):
    """The annihilator rows of a constant surface constraint spanned by ``generators``."""
    zero = Bivector(np.zeros(pair_count(dim)), dim)
    return AffineConstraint2(dim, zero, generators).annihilator_at(np.zeros(dim))


def test_annihilator_kills_generators():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = rng.integers(3, 5)
        count = rng.integers(1, pair_count(dim))
        gens = [Bivector(rng.standard_normal(pair_count(dim)), dim) for _ in range(count)]
        ann = _annihilator_of(gens, dim)
        assert np.allclose(ann @ ann.T, np.eye(ann.shape[0]), atol=1e-12)
        for u in gens:
            for eta in ann:
                assert np.abs(eta @ antisymmetric_from_slots(u.slots, dim)).max() < 1e-12


def test_annihilator_matches_nullspace_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        dim = rng.integers(3, 5)
        count = rng.integers(1, pair_count(dim))
        gens = [Bivector(rng.standard_normal(pair_count(dim)), dim) for _ in range(count)]
        ann = _annihilator_of(gens, dim)
        kernel = scipy.linalg.null_space(contraction_matrix(gens, dim))
        assert ann.shape[0] == kernel.shape[1]
        gap = ann.T @ ann - kernel @ kernel.T
        assert np.abs(gap).max() < 1e-10


def test_annihilator_without_generators():
    assert np.array_equal(_annihilator_of([], 3), np.eye(3))
    assert np.array_equal(_annihilator_of([], 2), np.eye(2))


def test_rank_ambiguity_is_reported_not_guessed():
    e = np.eye(3)
    u1 = wedge(e[0], e[1])
    # a companion generator separated from u1 by a sliver of size eps:
    # the extra singular value is eps/sqrt(2) against a cutoff of 1.9e-15
    for eps in (3e-15, 1e-14):
        u2 = Bivector(u1.slots + eps * wedge(e[0], e[2]).slots, 3)
        with pytest.raises(RankDecisionError, match="rank cutoff"):
            _annihilator_of([u1, u2], 3)
    # comfortably above the cutoff the pair genuinely spans rank 3
    u2 = Bivector(u1.slots + 1e-13 * wedge(e[0], e[2]).slots, 3)
    assert _annihilator_of([u1, u2], 3).shape == (0, 3)


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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match=r"generator 0 must be finite"):
            AffineConstraint1(2, np.zeros(2), [np.array([1.0, bad])])


E3 = np.eye(3)
_SECTION = Bivector([1.0, 0.0, 0.0], 3)
_GENERATOR = wedge(E3[0] - E3[1], E3[2])


def _turning_generator(x):
    return wedge(np.array([1.0, -(0.7 * x[0] + 0.2), 0.0]), E3[2])


def _tilted_section(x):
    return Bivector([1.0, 0.3 * x[1], -0.5 * x[0] * x[2]], 3)


def _drift(x):
    return np.array([1.0, 0.6 * x[0] - 0.1])


# (degree, dim, section, generators): point-dependent, constant-returning and
# mixed constant/callable fields of both degrees
FIELD_CASES = {
    "surface-point-dependent": (2, 3, _tilted_section, [_turning_generator]),
    "surface-constant-returning": (2, 3, lambda x: _SECTION, [lambda x: _GENERATOR]),
    "surface-mixed": (2, 3, _SECTION, [_turning_generator, wedge(E3[0], E3[1])]),
    "surface-constant": (2, 3, _SECTION, [_GENERATOR]),
    "curve-point-dependent": (1, 2, _drift, [_drift]),
    "curve-constant-returning": (1, 2, lambda x: [1.0, 0.0], [lambda x: (1.0, 0.0)]),
    "curve-mixed": (1, 2, np.array([1.0, 0.5]), [_drift]),
    "curve-constant": (1, 2, [1.0, 0.0], [np.array([1.0, 0.0])]),
}


def _points(dim, nodes):
    rng = np.random.default_rng(len(nodes) + dim)
    return rng.uniform(-1.0, 1.0, nodes + (dim,))


@pytest.mark.parametrize("nodes", [(), (7,), (5, 6)])
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_fields_at_equals_ndindex_reference_bitwise(case, nodes):
    degree, dim, section, generators = FIELD_CASES[case]
    constraint = (AffineConstraint1, AffineConstraint2)[degree - 1](dim, section, generators)
    x = _points(dim, nodes)
    section_at, distinct, inverse = constraint._fields_at(x)
    got = section_at, distinct[inverse]
    want = ndindex_fields(degree, dim, [section, *generators], x)
    for have, reference in zip(got, want):
        assert have.shape == reference.shape
        assert np.array_equal(have, reference)
    if nodes:
        return
    # a single point through the public accessors
    a, us = constraint.at(x)
    assert np.array_equal(getattr(a, "slots", a), want[0])
    assert np.array_equal([getattr(u, "slots", u) for u in us], want[1])
    # and the annihilator of a constant constraint built from those values
    element = (lambda s: s) if degree == 1 else (lambda s: Bivector(s, dim))
    constant = type(constraint)(dim, element(want[0]), [element(u) for u in want[1]])
    assert np.array_equal(constraint.annihilator_at(x), constant.annihilator_at(x))


@pytest.mark.parametrize("degree, section, generator, message", [
    (1, lambda x: np.array([1.0]), _drift, r"section at x = \[.*\] must be a vector of length 2, "
                                          r"not of shape \(1,\)"),
    (1, _drift, lambda x: np.array([1.0, np.nan if x[0] > 0.5 else 0.0]),
     r"generator 0 at x = \[0\.[6-9].*\] must be finite"),
    (1, lambda x: Bivector([1.0], 2), _drift, "must be a vector of length 2, not Bivector"),
    (2, _tilted_section, lambda x: _GENERATOR.slots, "generator 0 at x = .* must be a Bivector "
                                                     "of dimension 3, not ndarray"),
    (2, lambda x: Bivector(np.zeros(6), 4), _turning_generator,
     "section at x = .* must be a Bivector of dimension 3, not one of dimension 4"),
    (2, _tilted_section, lambda x: Bivector(np.zeros((2, 3)), 3), r"slots of shape \(2, 3\)"),
])
def test_callable_values_are_validated(degree, section, generator, message):
    dim = degree + 1
    constraint = (AffineConstraint1, AffineConstraint2)[degree - 1](dim, section, [generator])
    points = np.stack([np.linspace(0.0, 1.0, 11)] + [np.full(11, 0.5)] * (dim - 1), -1)
    with pytest.raises(ValueError, match=message):
        constraint._fields_at(points)


def _recording_constraint(case, calls):
    """The constraint of a `FIELD_CASES` case whose callables append their base points to calls."""
    degree, dim, section, generators = FIELD_CASES[case]

    def recorded(field):
        return (lambda x: calls.append(x) or field(x)) if callable(field) else field

    return (AffineConstraint1, AffineConstraint2)[degree - 1](
        dim, recorded(section), [recorded(u) for u in generators])


_REFUSAL_CASES = ["curve-constant", "curve-point-dependent", "surface-constant",
                  "surface-point-dependent"]


@pytest.mark.parametrize("method", ["at", "annihilator_at"])
@pytest.mark.parametrize("case", _REFUSAL_CASES)
def test_an_empty_stack_of_base_points_is_refused_by_name(case, method):
    calls, dim = [], FIELD_CASES[case][1]
    constraint = _recording_constraint(case, calls)
    with pytest.raises(ValueError, match=rf"^no base point .*: shape \(0, {dim}\)$"):
        getattr(constraint, method)(np.zeros((0, dim)))
    assert calls == []  # refused before any callable is called


@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("method", ["at", "annihilator_at"])
@pytest.mark.parametrize("case", _REFUSAL_CASES)
def test_base_points_of_another_width_are_refused_by_name(case, method, offset):
    calls, dim = [], FIELD_CASES[case][1]
    constraint = _recording_constraint(case, calls)
    with pytest.raises(ValueError, match=rf"^no base point of dimension {dim} .*: "
                                         rf"shape \(3, {dim + offset}\)$"):
        getattr(constraint, method)(np.zeros((3, dim + offset)))
    assert calls == []  # refused before any callable is called


def test_dependent_generators_are_reported_at_their_node():
    # (e1 - x1 e2)^e3 meets e1^e3 on x1 = 0, which the grid's middle row crosses
    turning = lambda x: wedge(np.array([1.0, -x[0], 0.0]), E3[2])  # noqa: E731
    constraint = AffineConstraint2(3, _SECTION, [turning, wedge(E3[0], E3[2])])
    grid = SurfaceGrid.sample(lambda t, s: (t, s, 0.0), (-1.0, 1.0, 9), (0.0, 1.0, 5))
    with pytest.raises(ValueError, match=r"linearly dependent at x = \[0\.0, 0\.25, 0\.0\]"):
        constraint_residual(grid, constraint)
    with pytest.raises(ValueError, match=r"linearly dependent at x = \[0\.0, 0\.0, 0\.0\]"):
        constraint.at(np.zeros(3))


def test_dependent_curve_generators_are_reported_at_their_node():
    # a vector that vanishes at x1 = 0, and a pair that turns parallel at x1 = 0.5; the
    # check reads the rank of a degree-1 stack from its annihilator SVD, `at` from its own
    curve = CurveGrid.sample(lambda t: (t, 0.3), -1.0, 1.0, 9)
    vanishing = AffineConstraint1(2, _drift, [lambda x: np.array([x[0], 0.0])])
    parallel = AffineConstraint1(2, _drift, [np.array([1.0, 0.0]),
                                             lambda x: np.array([1.0, x[0] - 0.5])])
    for constraint, x1 in ((vanishing, 0.0), (parallel, 0.5)):
        for query in (lambda: constraint_residual(curve, constraint),
                      lambda: constraint.annihilator_at(curve.points[1:-1]),
                      lambda: constraint.at(np.array([x1, 0.3]))):
            with pytest.raises(ValueError, match=rf"linearly dependent at x = \[{x1}, 0\.3\]"):
                query()


def _signed_zero_generator(x):
    # +0.0 where x1 >= 0 and -0.0 where x1 < 0: equal values, different bytes
    return Bivector([0.0 * x[0], 1.0, -1.0], 3)


# (degree, dim, section, generators, grid): generator stacks that repeat down
# grid columns, repeat at every node, never repeat, or differ by a signed zero only
GROUPED_CASES = {
    "surface-column-repeating": (2, 3, _SECTION, [_turning_generator],
                                 graph_grid(lambda x, y: x * x + y, n=17)),
    "surface-constant-returning": (2, 3, lambda x: _SECTION, [lambda x: _GENERATOR],
                                   graph_grid(lambda x, y: (x + y) ** 2, n=17)),
    "surface-signed-zero": (2, 3, _SECTION, [_signed_zero_generator],
                            graph_grid(lambda x, y: x * y, n=17, lo=-1.0)),
    "surface-mixed": (2, 3, _tilted_section, [_turning_generator, wedge(E3[0], E3[1])],
                      graph_grid(lambda x, y: x - y * y, n=17)),
    "curve-all-distinct": (1, 2, _drift, [_drift],
                           CurveGrid.sample(lambda t: (t, 0.3 * t * t), 0.0, 1.0, 101)),
    "curve-constant-returning": (1, 2, lambda x: [1.0, 0.0], [lambda x: (1.0, 0.0)],
                                 CurveGrid.sample(lambda t: (t, 0.3 * t * t), 0.0, 1.0, 101)),
    "curve-signed-zero": (1, 2, _drift, [lambda x: np.array([1.0, 0.0 * x[0]])],
                          CurveGrid.sample(lambda t: (t, 0.3 * t), -1.0, 1.0, 101)),
}


@pytest.mark.parametrize("case", sorted(GROUPED_CASES))
def test_grouped_annihilator_equals_per_node_reference_bitwise(case):
    degree, dim, section, generators, grid = GROUPED_CASES[case]
    constraint = (AffineConstraint1, AffineConstraint2)[degree - 1](dim, section, generators)
    interior = (slice(1, -1),) * degree
    x, w = grid.points[interior], velocity_prolongation(grid)[interior]
    a, stacks = ndindex_fields(degree, dim, [section, *generators], x)
    want = per_node_annihilator(degree, dim, stacks, x)
    defect = np.einsum("...rm,...km->...rk", want, _maps(w - a, degree, dim))
    residuals, ann = constraint_residual(grid, constraint)
    assert ann.shape == want.shape and np.array_equal(ann, want)
    assert np.array_equal(residuals, np.abs(defect).max(axis=-1))
    assert np.array_equal(constraint.annihilator_at(x), want)
    distinct = constraint._fields_at(x)[1]
    if "signed-zero" in case:  # -0.0 and +0.0 are not merged
        assert len(distinct) == 2


def _ambiguous_from(x):
    # a sliver of eps e1^e3 on e1^e2, eps = 1.2e-14 x1: ambiguous for x1 > 0.3, a
    # different stack on each such row; for x1 <= 0.3 the pair clearly spans rank 3
    eps = 1.2e-14 * x[0] if x[0] > 0.3 else 1e-13
    return Bivector(wedge(E3[0], E3[1]).slots + eps * wedge(E3[0], E3[2]).slots, 3)


def _dependent_from(x):
    # (e1 - f e2)^e3 with f = (x1 - 0.25)(x1 + 0.5) meets e1^e3 on two rows, as
    # two stacks that differ by the sign of a zero
    return wedge(np.array([1.0, -(x[0] - 0.25) * (x[0] + 0.5), 0.0]), E3[2])


def _changing_from(x):
    # e3^e4 alone (annihilator dx1, dx2) for x1 < 0.5; nondegenerate, and a
    # different stack on each row, for x1 >= 0.5, where the row x1 = 0.75 holds
    # the stack whose bytes sort first
    e = np.eye(4)
    return (1.5 - x[0]) * float(x[0] >= 0.5) * wedge(e[0], e[1]) + wedge(e[2], e[3])


# each failing stack repeats along x2 after its first node, and two or more
# distinct stacks fail; x1 runs up (forward) or down the grid rows
@pytest.mark.parametrize("dim, generators, error, forward, backward", [
    (3, [_dependent_from, wedge(E3[0], E3[2])], ValueError,
     r"linearly dependent at x = \[-0\.5, 0\.2, 0\.0\]",
     r"linearly dependent at x = \[0\.25, 0\.2, 0\.0\]"),
    (3, [lambda x: wedge(E3[0], E3[1]), _ambiguous_from], RankDecisionError,
     r"bivector annihilator at x = \[0\.5, 0\.2, 0\.0\]",
     r"bivector annihilator at x = \[0\.75, 0\.2, 0\.0\]"),
    (4, [_changing_from], RankDecisionError,
     r"changes from 2 to 0 at x = \[0\.5, 0\.2, 0\.0, 0\.0\]",
     r"changes from 0 to 2 at x = \[0\.25, 0\.2, 0\.0, 0\.0\]"),
])
@pytest.mark.parametrize("up", [1.0, -1.0])
def test_grouped_errors_name_the_first_node_in_c_order(dim, generators, error, forward,
                                                       backward, up):
    grid = SurfaceGrid.sample(lambda t, s: (up * t, s) + (0.0,) * (dim - 2), (-1.0, 1.0, 9),
                              (0.0, 1.0, 6))
    constraint = AffineConstraint2(dim, Bivector(np.zeros(pair_count(dim)), dim), generators)
    x = grid.points[1:-1, 1:-1]
    _, stacks = ndindex_fields(2, dim, [constraint._fields[0], *generators], x)
    with pytest.raises(error) as want:
        per_node_annihilator(2, dim, stacks, x)
    node = forward if up > 0 else backward
    for query in (lambda: constraint_residual(grid, constraint),
                  lambda: constraint.annihilator_at(x)):
        with pytest.raises(error, match=node) as got:
            query()
        assert str(got.value) == str(want.value)


def test_annihilator_at_a_stack_names_the_node():
    e = np.eye(4)
    changing = AffineConstraint2(4, Bivector(np.zeros(6), 4),
                                 [lambda x: wedge(e[0], e[1]) + x[0] * wedge(e[2], e[3])])
    with pytest.raises(RankDecisionError,
                       match=r"changes from 0 to 2 at x = \[0\.0, 0\.0, 0\.0, 0\.0\]"):
        changing.annihilator_at(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    u1 = wedge(E3[0], E3[1])
    u2 = Bivector(u1.slots + 3e-15 * wedge(E3[0], E3[2]).slots, 3)
    ambiguous = AffineConstraint2(3, _SECTION, [lambda x: u1, lambda x: u2])
    with pytest.raises(RankDecisionError,
                       match=r"bivector annihilator at x = \[0\.0, 0\.0, 0\.0\]: singular"):
        ambiguous.annihilator_at(np.zeros((2, 3)))


def test_each_distinct_generator_stack_is_decomposed_once(monkeypatch):
    counts = {"svd": 0, "matrix_rank": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(constraints.np.linalg, name, counting(name))
    # a generator of x1 alone repeats down the 31 columns of the 31 x 31 interior
    rotating = AffineConstraint2(3, _SECTION, [_turning_generator])
    grid = graph_grid(lambda x, y: x * x + y)
    nonholonomic_check(plateau_lagrangian(), grid, rotating, 1e-6)
    assert counts == {"svd": 31, "matrix_rank": 31}
    counts.update(svd=0, matrix_rank=0)
    nonholonomic_check(plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6)
    assert counts == {"svd": 1, "matrix_rank": 1}
    # a degree-1 stack is its own contraction matrix: its rank test reads the one SVD,
    # here of 99 distinct stacks, one per interior node of the curve
    curve = CurveGrid.sample(lambda t: (t, 0.3 * t * t), 0.0, 1.0, 101)
    for constraint, stacks in ((AffineConstraint1(2, _drift, [_drift]), 99),
                               (first_axis_drift_constraint(2), 1)):
        counts.update(svd=0, matrix_rank=0)
        nonholonomic_check(quadratic_curve_lagrangian(2), curve, constraint, 1e-6)
        assert counts == {"svd": stacks, "matrix_rank": 0}


def test_callables_are_called_once_per_interior_node():
    calls = {}

    def counted(name, field, dim):
        calls[name] = 0

        def call(x):
            assert x.shape == (dim,)
            calls[name] += 1
            return field(x)
        return call

    surface = AffineConstraint2(
        3, counted("section", _tilted_section, 3), [counted("generator", _turning_generator, 3)]
    )
    nonholonomic_check(plateau_lagrangian(), graph_grid(lambda x, y: x * x + y, n=9), surface, 1e-6)
    assert calls == {"section": 49, "generator": 49}

    curve = AffineConstraint1(2, counted("section", _drift, 2), [counted("generator", _drift, 2)])
    line = CurveGrid.sample(lambda t: (t, 0.3 * t * t), 0.0, 1.0, 21)
    nonholonomic_check_curve(quadratic_curve_lagrangian(2), line, curve, 1e-10)
    assert calls == {"section": 19, "generator": 19}


def test_curve_check_refuses_a_surface_grid():
    # the surface check would run: the grid's degree would pick it
    surface = SurfaceGrid.sample(lambda t, s: (t, s, t + s), (0.0, 1.0, 9), (0.0, 1.0, 9))
    with pytest.raises(ValueError, match="^nonholonomic_check_curve needs a CurveGrid$"):
        nonholonomic_check_curve(plateau_lagrangian(), surface, symmetric_slope_constraint(), 1e-6)


@pytest.mark.parametrize("degree", [1, 2])
def test_a_callable_serving_as_two_fields_is_called_once_per_node(degree):
    # the drift form a(x) + span{a(x)}: one callable is the section and the generator
    if degree == 1:
        L, grid = quadratic_curve_lagrangian(2), CurveGrid.sample(lambda t: (t, 0.3 * t * t),
                                                                  0.0, 1.0, 21)
        kind, dim, field, interior = AffineConstraint1, 2, _drift, 19
    else:
        L, grid = plateau_lagrangian(), graph_grid(lambda x, y: x * x + y, n=9)
        kind, dim, field, interior = AffineConstraint2, 3, _turning_generator, 49
    calls = []

    def shared(x):
        calls.append(x)
        return field(x)

    report = nonholonomic_check(L, grid, kind(dim, shared, [shared]), 1e-6)
    assert len(calls) == interior
    twin = nonholonomic_check(L, grid, kind(dim, lambda x: field(x), [lambda x: field(x)]), 1e-6)
    for part in dataclasses.fields(report):
        have, want = (np.asarray(getattr(r, part.name)) for r in (report, twin))
        assert (have.dtype, have.shape, have.tobytes()) == (want.dtype, want.shape, want.tobytes())


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
    assert np.abs(eta @ antisymmetric_from_slots(w.slots, 3)).max() > 0.5


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


def test_example7_check_memory_is_a_few_copies_of_the_points():
    # at 129^2 a dense (dim, dim) map per node alone is 3x the points; expanding them peaked at 13x
    grid = graph_grid(lambda x, y: (x + y) ** 2 + 0.1 * np.sin(3.0 * x), n=129)
    tracemalloc.start()
    try:
        nonholonomic_check(plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, 5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid.points.nbytes


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


# --- blocks of rows: a check streams over them (constraints._BLOCK_NODES) ---------------

def whole_grid_check(L, grid, constraint):
    """The check on the whole grid at once, as it ran before blocks: kept as the
    reference of the streamed check, outputs and raised faults alike."""
    residuals, ann = constraint_residual(grid, constraint)
    delta = (delta_L_surface if grid.degree == 2 else delta_L_curve)(L, grid).values
    multipliers, orthogonal = dalembert_decompose(delta, ann)
    return residuals, multipliers, np.abs(orthogonal).max(axis=-1)


def _tilted_area(x, w):
    # an FD-only field (value only) that depends on the base point
    return (1.0 + 0.25 * x[2] ** 2) * np.sqrt(2.0 * float(w.slots @ w.slots))


class _FDCurveField(CurveLagrangian):
    """A curve field with a value only: both gradients by finite differences."""

    def value_slots(self, x, v):
        return 0.5 * np.sum(v * v, axis=-1) * (1.0 + 0.1 * x[..., 0]) - np.cos(x[..., 1])


def _surface(n, m):
    t, s = np.linspace(-0.6, 0.9, n), np.linspace(-0.4, 0.5, m)
    return SurfaceGrid.from_graph(t, s, np.add.outer(0.3 * t * t, np.sin(2.0 * s))
                                  + 0.2 * np.outer(t, s))


def _curve(n):
    return CurveGrid.sample(lambda t: (t, np.sin(t), 0.3 * t * t), 0.0, 2.0, n)


_POINT_SURFACE = AffineConstraint2(3, _tilted_section, [_turning_generator])
_POINT_CURVE = AffineConstraint1(
    3, lambda x: np.array([1.0, 0.2 * x[1], 0.0]), [lambda x: np.array([1.0, 0.0, 0.1 * x[0]])])

# (field, grid, constraint): both degrees, constant and point-dependent constraints,
# closed-form and FD-only fields
_BLOCK_CASES = {
    "plateau-example7": (plateau_lagrangian(), _surface(41, 13), symmetric_slope_constraint()),
    "plateau-point": (plateau_lagrangian(), _surface(41, 13), _POINT_SURFACE),
    "nambu-goto-example7": (nambu_goto(Metric.euclidean(3)), _surface(29, 9),
                            symmetric_slope_constraint()),
    "nambu-goto-point": (nambu_goto(Metric.euclidean(3)), _surface(29, 9), _POINT_SURFACE),
    "fd-callable-example7": (CallableBivectorLagrangian(3, _tilted_area), _surface(17, 7),
                             symmetric_slope_constraint()),
    "fd-callable-point": (CallableBivectorLagrangian(3, _tilted_area), _surface(17, 7),
                          _POINT_SURFACE),
    "curve-drift": (quadratic_curve_lagrangian(3, omega=0.5), _curve(101),
                    first_axis_drift_constraint(3)),
    "curve-point": (quadratic_curve_lagrangian(3, omega=0.5), _curve(101), _POINT_CURVE),
    "fd-curve-point": (_FDCurveField(3), _curve(61), _POINT_CURVE),
}


@pytest.mark.parametrize("rows", [3, 4, 7])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocks_equal_the_whole_grid_bitwise(monkeypatch, case, rows):
    L, grid, constraint = _BLOCK_CASES[case]
    residuals, multipliers, orth_norms = whole_grid_check(L, grid, constraint)
    monkeypatch.setattr(constraints, "_BLOCK_NODES", rows * (grid.points[0].size // grid.dim))
    assert len(constraints._row_blocks(grid)) > 1
    report = nonholonomic_check(L, grid, constraint, 1e-6, 1e-3)
    for got, want in [(report.constraint_residuals, residuals),
                      (report.multipliers, multipliers), (report.orthogonal_norms, orth_norms)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    node_residuals = residuals.max(axis=-1, initial=0.0)
    assert report.constraint_max == node_residuals.max()
    assert report.constraint_worst == worst_node(node_residuals)
    assert report.dalembert_max == orth_norms.max()
    assert report.dalembert_worst == worst_node(orth_norms)


@pytest.mark.parametrize("shape", [(5, 5), (7, 400), (40, 7), (9,), (25,), (16386,)])
def test_row_blocks_cover_the_interior_rows_in_blocks_of_at_least_three(monkeypatch, shape):
    grid = (SurfaceGrid(0.1, 0.1, np.zeros(shape + (3,))) if len(shape) == 2
            else CurveGrid(0.1, np.zeros(shape + (2,))))
    for block in (1, 20, constraints._BLOCK_NODES):
        monkeypatch.setattr(constraints, "_BLOCK_NODES", block)
        blocks = constraints._row_blocks(grid)
        assert blocks[0][0] == 1 and blocks[-1][1] == shape[0] - 1
        assert all(b - a >= 3 for a, b in blocks)
        assert all(b == a for (_, b), (a, _) in zip(blocks, blocks[1:]))
        nodes = int(np.prod(shape[1:]))
        if len(blocks) > 1:  # no block is more than twice the nodes of a block
            assert max(b - a for a, b in blocks) * nodes < 2 * max(block, 3 * nodes)


def test_callables_are_called_once_per_interior_node_across_blocks(monkeypatch):
    monkeypatch.setattr(constraints, "_BLOCK_NODES", 1)  # 3-row blocks
    calls = {}

    def counted(name, field):
        calls[name] = 0

        def call(x):
            calls[name] += 1
            return field(x)
        return call

    surface = AffineConstraint2(3, counted("section", _tilted_section),
                                [counted("generator", _turning_generator)])
    grid = graph_grid(lambda x, y: x * x + y, n=13)
    assert len(constraints._row_blocks(grid)) == 3
    nonholonomic_check(plateau_lagrangian(), grid, surface, 1e-6)
    assert calls == {"section": 121, "generator": 121}

    curve = AffineConstraint1(2, counted("section", _drift), [counted("generator", _drift)])
    line = CurveGrid.sample(lambda t: (t, 0.3 * t * t), 0.0, 1.0, 21)
    assert len(constraints._row_blocks(line)) == 6
    nonholonomic_check_curve(quadratic_curve_lagrangian(2), line, curve, 1e-10)
    assert calls == {"section": 19, "generator": 19}


def _same_fault(monkeypatch, L, grid, constraint):
    """The streamed check over 3-row blocks raises what the whole grid does."""
    with pytest.raises(Exception) as whole:
        whole_grid_check(L, grid, constraint)
    monkeypatch.setattr(constraints, "_BLOCK_NODES", 1)
    assert len(constraints._row_blocks(grid)) > 2
    with pytest.raises(type(whole.value)) as streamed:
        nonholonomic_check(L, grid, constraint, 1e-6, 1e-3)
    assert str(streamed.value) == str(whole.value)
    return str(whole.value)


@pytest.mark.parametrize("row", range(1, 16))
def test_a_callable_fault_in_any_block_keeps_its_message(monkeypatch, row):
    grid = _surface(17, 7)

    def section(x):  # not a bivector at one node of the row
        return np.zeros(3) if np.array_equal(x, grid.points[row, 4]) else _tilted_section(x)

    message = _same_fault(monkeypatch, plateau_lagrangian(), grid,
                          AffineConstraint2(3, section, [_turning_generator]))
    assert message.startswith(f"section at x = {grid.points[row, 4].tolist()} must be a Bivector")


@pytest.mark.parametrize("row", range(0, 17))
@pytest.mark.parametrize("column", [0, 3])
def test_an_overflowing_tangent_in_any_block_keeps_its_node(monkeypatch, row, column):
    # a point past half the range makes the differences across it overflow, and the
    # one-sided difference of a block's halo row overflows where the whole grid's need not
    points = _surface(17, 7).points.copy()
    points[row, column, 2] = 1e308
    message = _same_fault(monkeypatch, plateau_lagrangian(), SurfaceGrid(0.1, 0.1, points),
                          symmetric_slope_constraint())
    assert message.startswith("tangent or velocity element not finite at node (")


@pytest.mark.parametrize("row", range(0, 41))
def test_an_overflowing_curve_tangent_in_any_block_keeps_its_node(monkeypatch, row):
    points = _curve(41).points.copy()
    points[row, 1] = 1e308
    message = _same_fault(monkeypatch, quadratic_curve_lagrangian(3), CurveGrid(0.05, points),
                          first_axis_drift_constraint(3))
    assert message.startswith("tangent or velocity element not finite at node (")


@pytest.mark.parametrize("row", range(1, 16))
def test_a_rank_change_in_any_block_keeps_its_message(monkeypatch, row):
    # e1^e2 + x1 e3^e4 leaves an annihilator only where x1 = 0: on one row of the grid
    e = np.eye(4)
    constraint = AffineConstraint2(4, Bivector(np.zeros(6), 4),
                                   [lambda x: wedge(e[0], e[1]) + x[0] * wedge(e[2], e[3])])
    ts = np.linspace(0.0, 1.6, 17)
    grid = SurfaceGrid.sample(lambda t, s: (t - ts[row], s, 0.1 * t * s, 0.0), (0.0, 1.6, 17),
                              (0.0, 1.0, 7))
    message = _same_fault(monkeypatch, plateau_lagrangian(4), grid, constraint)
    assert message.startswith("annihilator dimension changes from ")


def test_a_fault_of_a_halo_row_alone_leaves_the_whole_grid_result(monkeypatch):
    # a plateau at 1e308 reached by 4-row ramps: every central difference is finite, but
    # a one-sided difference inside the plateau (a block's halo row) overflows
    ramp = np.clip(np.minimum(np.arange(41) - 10, 30 - np.arange(41)) / 4.0, 0.0, 1.0)
    points = np.stack([np.arange(41.0), 1e308 * ramp, np.zeros(41)], axis=-1)
    grid, L = CurveGrid(1.0, points), quadratic_curve_lagrangian(3)
    residuals, multipliers, orth_norms = whole_grid_check(L, grid, first_axis_drift_constraint(3))
    monkeypatch.setattr(constraints, "_BLOCK_NODES", 1)
    with pytest.raises(NodeDomainError, match="tangent or velocity element not finite"):
        constraint_residual(CurveGrid(1.0, points[16:21]), first_axis_drift_constraint(3))
    report = nonholonomic_check(L, grid, first_axis_drift_constraint(3), 1e-6, 1e-3)
    for got, want in [(report.constraint_residuals, residuals),
                      (report.multipliers, multipliers), (report.orthogonal_norms, orth_norms)]:
        assert got.tobytes() == want.tobytes()


def test_example7_check_memory_at_257_is_under_three_copies_of_the_points():
    # whole-grid arrays took 6.1x the points at 257^2; blocks hold about 8,192 nodes each
    grid = graph_grid(lambda x, y: (x + y) ** 2 + 0.1 * np.sin(3.0 * x), n=257)
    assert len(constraints._row_blocks(grid)) > 4
    tracemalloc.start()
    try:
        nonholonomic_check(plateau_lagrangian(), grid, symmetric_slope_constraint(), 1e-6, 5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * grid.points.nbytes

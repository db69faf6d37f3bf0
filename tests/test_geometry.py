"""Bivector storage, wedge, and the fiber metrics' slot matrices.

Oracles are deliberately dumb: explicit index loops and textbook
identities (Gram determinant, Cauchy-Binet), independent of the slot
bookkeeping under test.
"""

import numpy as np
import pytest

from conftest import dense_fiber_metric, four_index_sum
from wedgemech.geometry import (
    Bivector,
    FiberMetric,
    Metric,
    MomentumBivector,
    antisymmetric_from_slots,
    dual_fiber_metric,
    index_pairs,
    induced_fiber_metric,
    pair_count,
    pair_slot,
    wedge,
    wedge_slots,
)


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


def test_pair_ordering_dim4():
    assert index_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert pair_count(4) == 6


def test_pair_slot_closed_form_matches_index_pairs():
    for dim in range(2, 41):
        assert [pair_slot(dim, mu, nu) for mu, nu in index_pairs(dim)] == list(range(pair_count(dim)))
        for mu, nu in [(0, 0), (dim - 1, dim - 1), (1, 0), (dim - 1, 0), (-1, 0), (-1, 1),
                       (0, dim), (dim - 1, dim), (dim, dim + 1)]:
            with pytest.raises(KeyError):
                pair_slot(dim, mu, nu)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_slot_full_round_trip(dim):
    rng = np.random.default_rng(10 + dim)
    slots = rng.normal(size=pair_count(dim))
    u = Bivector(slots, dim)
    full = antisymmetric_from_slots(u.slots, dim)
    # exact antisymmetry is structural, not approximate
    assert np.array_equal(full, -full.T)
    assert Bivector([full[a, b] for a, b in index_pairs(dim)], dim) == u
    for i, (a, b) in enumerate(index_pairs(dim)):
        assert u.slots[i] == full[a, b]
        assert -u.slots[i] == full[b, a]
    assert full[0, 0] == 0.0


def test_bivector_validation():
    with pytest.raises(ValueError):
        Bivector([1.0, 2.0], 3)  # needs 3 slots
    with pytest.raises(ValueError):
        Bivector([1.0, np.inf, 0.0], 3)
    with pytest.raises(AttributeError):
        Bivector([1.0, 0.0, 0.0], 3).dim = 4
    u = Bivector([1.0, 0.0, 0.0], 3)
    with pytest.raises(ValueError):
        u.slots[0] = 2.0


@pytest.mark.parametrize("dim", [0, 1])
def test_bivector_needs_dimension_two(dim):
    # pair_count is 0 there, so no slots would pass the shape test
    with pytest.raises(ValueError, match=f"^need dimension >= 2, got {dim}$"):
        Bivector([], dim)


def test_bivector_sum_needs_one_dimension():
    # one slot broadcasts against three: only the dimension test names the fault
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        Bivector([1.0], 2) + Bivector([1.0, 0.0, 0.0], 3)


def test_momentum_is_a_distinct_type():
    u = Bivector([1.0, 0.0, 0.0], 3)
    p = MomentumBivector([1.0, 0.0, 0.0], 3)
    assert u != p
    with pytest.raises(TypeError):
        u + p


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_wedge_against_index_loop(dim):
    rng = np.random.default_rng(20 + dim)
    v = rng.normal(size=dim)
    u = rng.normal(size=dim)
    w = wedge(v, u)
    expected = np.outer(v, u) - np.outer(u, v)
    assert np.array_equal(antisymmetric_from_slots(w.slots, dim), expected)
    # antisymmetry in the arguments is exact (float subtraction negates exactly)
    assert wedge(u, v) == -w
    assert np.all(wedge(v, v).slots == 0.0)


def test_wedge_bilinearity():
    rng = np.random.default_rng(3)
    v, u, z = rng.normal(size=(3, 4))
    a, b = 0.7, -1.3
    lhs = wedge(a * v + b * z, u)
    rhs = a * wedge(v, u) + b * wedge(z, u)
    np.testing.assert_allclose(lhs.slots, rhs.slots, rtol=1e-14, atol=1e-14)


def test_wedge_slots_shape_mismatch():
    with pytest.raises(ValueError):
        wedge_slots(np.ones(3), np.ones(4))


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_wedge_equals_wedge_slots_bitwise(dim):
    rng = np.random.default_rng(60 + dim)
    for v, u in rng.normal(size=(5, 2, dim)) * [[1.0], [1e-3]]:
        w = wedge(v, u)
        assert w.dim == dim and not w.slots.flags.writeable
        assert np.array_equal(w.slots, wedge_slots(v, u))
    assert np.array_equal(wedge([1, 2, 3], (4, 5, 6)).slots, wedge_slots([1, 2, 3], [4, 5, 6]))


# signed zeros (in the inputs, and minors that round to -0.0), integer and tuple
# inputs, mixed sequences, subnormal and underflowing products
_WEDGE_INPUTS = {
    "signed-zeros": ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]),
    "negative-zero-minors": ([-0.0, 2.0, -3.0, 0.0], [5.0, -0.0, 0.0, -0.0]),
    "integers": (np.array([1, -2, 3]), np.array([4, 5, -6])),
    "tuples": ((1, 2.5, -3), (0.5, 4, 6)),
    "tuple-and-list": ((1, 2, 3, 4, 5), [0.25, -1.0, 8.0, 2.0, -0.0]),
    "subnormal": ([5e-324, 1.0], [1.0, 5e-324]),
    "underflow": ([1e-200, -1e-200, 3.0], [1e-200, 2e-200, -0.0]),
    "large-finite": ([1e150, -2e150, 1.0], [3e150, 1e150, -1e150]),
}


@pytest.mark.parametrize("case", sorted(_WEDGE_INPUTS))
def test_wedge_equals_the_constructor_over_wedge_slots(case):
    v, u = _WEDGE_INPUTS[case]
    dim = len(v)
    with np.errstate(under="ignore"):
        want = Bivector(wedge_slots(v, u), dim)
    got = wedge(v, u)
    assert type(got) is Bivector and got.dim == want.dim == dim
    assert got == want and hash(got) == hash(want)
    assert got.slots.dtype == want.slots.dtype and got.slots.shape == (pair_count(dim),)
    assert got.slots.tobytes() == want.slots.tobytes()  # bitwise, signs of zeros included
    for flag in ("writeable", "owndata", "c_contiguous"):
        assert getattr(got.slots.flags, flag) == getattr(want.slots.flags, flag)
    assert not got.slots.flags.writeable
    with pytest.raises(ValueError):
        got.slots[0] = 1.0


# a NaN or infinite entry meets a zero or another infinity in some minor; finite
# entries whose products overflow, or whose difference is inf - inf
@pytest.mark.parametrize("v, u", [
    ([np.nan, 0.0, 1.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [0.0, np.inf, 0.0]),
    ([-np.inf, 1.0], [np.inf, 1.0]),
    ([1e200, 0.0, 1.0], [0.0, 1e200, 1.0]),
    ([1e200, 1e200], [1e200, 1e200]),
], ids=["nan", "inf", "inf-and-inf", "overflow", "inf-minus-inf"])
def test_wedge_refuses_non_finite_minors_as_the_constructor_does(v, u):
    with np.errstate(all="ignore"), pytest.raises(ValueError) as want:
        Bivector(wedge_slots(v, u), len(v))
    with pytest.raises(ValueError) as got:
        wedge(v, u)
    assert str(got.value) == str(want.value) == "components must be finite"


def test_wedge_rejects_stacks_and_mismatched_vectors():
    with pytest.raises(ValueError, match="rank-1"):
        wedge(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="rank-1"):
        wedge(1.0, np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        wedge(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="dimension >= 2"):
        wedge(np.ones(1), np.ones(1))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        wedge(np.array([1e200, 0.0]), np.array([0.0, 1e200]))


@pytest.mark.parametrize("nodes", [(), (6,), (4, 5)])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_wedge_slots_matches_per_pair_reference_bitwise(dim, nodes):
    rng = np.random.default_rng(40 + dim)
    v, u = rng.normal(size=(2,) + nodes + (dim,))
    reference = np.stack(
        [v[..., a] * u[..., b] - v[..., b] * u[..., a] for a, b in index_pairs(dim)], axis=-1
    )
    got = wedge_slots(v, u)
    assert got.shape == nodes + (pair_count(dim),)
    assert np.array_equal(got, reference)
    a, b = np.array(index_pairs(dim)).T
    assert np.array_equal(antisymmetric_from_slots(got, dim)[..., a, b], got)


def test_bivector_stacks_over_node_axes():
    rng = np.random.default_rng(12)
    stack = Bivector(rng.normal(size=(4, 5, 3)), 3)
    assert antisymmetric_from_slots(stack.slots, 3).shape == (4, 5, 3, 3)
    assert np.array_equal((stack - stack).slots, np.zeros((4, 5, 3)))
    with pytest.raises(ValueError):
        Bivector(np.zeros((4, 2)), 3)  # trailing axis needs 3 slots
    with pytest.raises(ValueError):
        Bivector(np.full((4, 3), np.nan), 3)


def test_contraction_sign_convention():
    # dx^2 into e1 ^ e2 gives -e1 (indices written 1-based): eta_mu u^{mu nu}
    u = wedge(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    eta = np.array([0.0, 1.0, 0.0])
    np.testing.assert_array_equal(eta @ antisymmetric_from_slots(u.slots, 3), [-1.0, 0.0, 0.0])


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        Metric(np.ones((2, 2)))  # degenerate
    with pytest.raises(ValueError, match="3 negative eigenvalues"):
        Metric(-np.eye(3))
    with pytest.raises(ValueError, match="2 negative eigenvalues"):
        Metric(np.diag([-1.0, -1.0, 1.0]))
    assert Metric(np.diag([-1.0, 1.0, 1.0])).signature == "lorentz"


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.ones((2, 3)), r"^metric must be a square matrix, got shape \(2, 3\)$"),
        (np.ones(3), r"^metric must be a square matrix, got shape \(3,\)$"),
        ([[1.0, np.nan], [np.nan, 1.0]], "^metric entries must be finite$"),
        (np.diag([1.0, np.inf]), "^metric entries must be finite$"),
    ],
    ids=["rectangular", "vector", "nan", "inf"],
)
def test_metric_must_be_a_finite_square_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        Metric(matrix)


def test_metric_degeneracy_is_relative_to_scale():
    # |det| = 1.25e-13, yet every eigenvalue is the same: well conditioned
    assert Metric(5e-5 * np.eye(3)).dim == 3
    with pytest.raises(ValueError, match="degenerate"):
        Metric(np.diag([2.0, 1.0, 0.0]))  # singular
    with pytest.raises(ValueError, match="degenerate"):
        Metric(np.diag([1.0, 1.0, 1e-13]))  # condition number 1e13
    with pytest.raises(ValueError, match="degenerate"):
        Metric(np.zeros((2, 2)))


@pytest.mark.parametrize("k", [-50, -20, 0, 10, 30])
def test_metric_symmetry_verdict_does_not_depend_on_units(k):
    # scaling by 2^k is exact, so the symmetry test, relative to max |g|, keeps its verdict
    scale = 2.0 ** k
    with pytest.raises(ValueError, match="not symmetric"):
        Metric(scale * np.array([[2.0, 1.0], [0.0, 2.0]]))
    near = scale * np.array([[2.0, 1.0 + 2.0 ** -50], [1.0, 2.0]])
    g = Metric(near)
    assert np.array_equal(g.matrix, (near + near.T) / 2.0)


def test_metric_constructors_and_inverse():
    g = Metric.minkowski(4)
    assert g.signature == "lorentz"
    assert g.dim == 4
    np.testing.assert_array_equal(g.matrix @ g.inverse, np.eye(4))
    rng = np.random.default_rng(5)
    m = random_spd(rng, 3)
    h = Metric(m)
    assert h.signature == "euclidean"
    np.testing.assert_allclose(h.matrix @ h.inverse, np.eye(3), atol=1e-12)


def test_metric_compares_and_hashes_by_identity():
    # like FiberMetric: comparing the ndarray field would raise, not answer
    g, h = Metric.euclidean(3), Metric.euclidean(3)
    assert (g == h) is False and (g == g) is True and (g != h) is True
    assert hash(g) == hash(g)
    assert {g: "g", h: "h"}[g] == "g"
    assert g.signature == "euclidean" and Metric.minkowski(3).signature == "lorentz"
    np.testing.assert_array_equal(g.inverse, np.eye(3))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_induced_fiber_metric_index_identity(dim):
    rng = np.random.default_rng(40 + dim)
    g = Metric(random_spd(rng, dim))
    h = dense_fiber_metric(induced_fiber_metric(g))
    gm = g.matrix
    for m in range(dim):
        for n in range(dim):
            for k in range(dim):
                for l in range(dim):
                    assert h[m, n, k, l] == gm[m, k] * gm[n, l] - gm[m, l] * gm[n, k]


def test_fiber_metric_slot_matrix_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        FiberMetric(np.triu(np.ones((3, 3))), 3)
    with pytest.raises(ValueError, match="finite"):
        FiberMetric(np.diag([1.0, np.inf, 1.0]), 3)
    with pytest.raises(ValueError, match="shape"):
        FiberMetric(np.eye(6), 3)  # the slot matrix of dimension 4
    with pytest.raises(ValueError, match="dimension >= 2"):
        FiberMetric(np.zeros((0, 0)), 1)
    with pytest.raises(ValueError, match="square"):
        FiberMetric.from_point_metric(np.ones((3, 4)))
    with pytest.raises(AttributeError):
        FiberMetric(np.eye(3), 3).dim = 4


def test_fiber_metric_copies_what_it_does_not_own():
    given = np.eye(3)
    h = FiberMetric(given, 3)
    given[0, 0] = 5.0
    assert h.slot_matrix[0, 0] == 1.0 and not h.slot_matrix.flags.writeable
    view = given[:, :]
    view.flags.writeable = False  # read-only, but its memory is writable through given
    assert not np.shares_memory(FiberMetric(view, 3).slot_matrix, given)
    owned = np.eye(3)
    owned.flags.writeable = False  # a frozen array of its own is kept, not copied
    assert FiberMetric(owned, 3).slot_matrix is owned


def dense_reference(g):
    """The dense ``h`` of a point metric and its slot gather, as stored before
    fiber metrics kept only their slot matrix."""
    h = np.einsum("mk,nl->mnkl", g, g) - np.einsum("ml,nk->mnkl", g, g)
    pairs = index_pairs(g.shape[0])
    loop = np.empty((len(pairs), len(pairs)))
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            loop[i, j] = h[a, b, c, d]
    return h, loop


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["euclidean", "minkowski", "spd"])
def test_slot_matrix_equals_dense_reference_bitwise(dim, kind):
    if kind == "spd":
        g = Metric(random_spd(np.random.default_rng(90 + dim), dim))
    else:
        g = getattr(Metric, kind)(dim)
    for point, h in ((g.matrix, induced_fiber_metric(g)), (g.inverse, dual_fiber_metric(g)),
                     (g.matrix, FiberMetric.from_point_metric(g.matrix))):
        dense, slot = dense_reference(point)
        assert h.slot_matrix.tobytes() == slot.tobytes()  # the signs of zeros too
        assert np.array_equal(dense_fiber_metric(h), dense)


def test_fiber_metric_frozen_components():
    h = induced_fiber_metric(Metric.euclidean(3))
    assert dense_fiber_metric(h)[0, 1, 0, 1] == 1.0
    assert dense_fiber_metric(h)[0, 1, 1, 0] == -1.0
    np.testing.assert_array_equal(h.slot_matrix, np.eye(3))
    hm = induced_fiber_metric(Metric.minkowski(4))
    assert dense_fiber_metric(hm)[0, 1, 0, 1] == -1.0

    # dual of diag(2, 2, 2): inverse metric diag(1/2), minors 1/4
    hd = dual_fiber_metric(Metric(2.0 * np.eye(3)))
    assert dense_fiber_metric(hd)[0, 1, 0, 1] == 0.25


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_slot_matrix_is_the_minor_matrix(dim):
    rng = np.random.default_rng(50 + dim)
    g = random_spd(rng, dim)
    h = FiberMetric.from_point_metric(g)
    for i, (a, b) in enumerate(index_pairs(dim)):
        for j, (c, d) in enumerate(index_pairs(dim)):
            minor = np.linalg.det(g[np.ix_([a, b], [c, d])])
            assert abs(h.slot_matrix[i, j] - minor) < 1e-12 * max(1.0, abs(minor))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_slot_matrix_equals_pairwise_loop_bitwise(dim):
    rng = np.random.default_rng(70 + dim)
    h = FiberMetric.from_point_metric(random_spd(rng, dim))
    dense = dense_fiber_metric(h)
    pairs = index_pairs(dim)
    loop = np.empty((len(pairs), len(pairs)))
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            loop[i, j] = dense[a, b, c, d]
    assert np.array_equal(h.slot_matrix, loop)
    assert not h.slot_matrix.flags.writeable


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_dual_slot_matrix_inverts_primal(dim):
    # Cauchy-Binet: the minor matrix of the inverse is the inverse minor matrix
    rng = np.random.default_rng(60 + dim)
    g = Metric(random_spd(rng, dim))
    prod = dual_fiber_metric(g).slot_matrix @ induced_fiber_metric(g).slot_matrix
    np.testing.assert_allclose(prod, np.eye(pair_count(dim)), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_product_gram_oracle(dim, seed):
    # (v^u | v^u) = 4 * (|v|^2 |u|^2 - <v,u>^2), the Gram determinant, for
    # any point metric; the 4 pins the unrestricted-sum convention.
    rng = np.random.default_rng(100 * dim + seed)
    g = Metric(random_spd(rng, dim))
    h = induced_fiber_metric(g)
    v, u = rng.normal(size=(2, dim))
    gram = np.linalg.det(np.array([v, u]) @ g.matrix @ np.array([v, u]).T)
    got = four_index_sum(h, wedge(v, u), wedge(v, u))
    np.testing.assert_allclose(got, 4.0 * gram, rtol=1e-12)


def test_scalar_product_frozen_values():
    e = np.eye(3)
    w = wedge(e[0], e[1])
    h = induced_fiber_metric(Metric.euclidean(3))
    assert four_index_sum(h, w, w) == 4.0

    e4 = np.eye(4)
    w01 = wedge(e4[0], e4[1])
    hm = induced_fiber_metric(Metric.minkowski(4))
    assert four_index_sum(hm, w01, w01) == -4.0


def test_antisymmetric_from_slots_vectorized():
    rng = np.random.default_rng(9)
    slots = rng.normal(size=(5, 7, 3))
    full = antisymmetric_from_slots(slots, 3)
    assert full.shape == (5, 7, 3, 3)
    assert np.array_equal(full, -np.swapaxes(full, -1, -2))
    assert np.array_equal(full[2, 3], antisymmetric_from_slots(slots[2, 3], 3))

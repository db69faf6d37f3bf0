"""Shared helpers: random test elements, the fiber metric's four-index form, and
line mutations for the fuzz tests."""

import numpy as np
from hypothesis import strategies as st

from wedgemech.geometry import Bivector, MomentumBivector, antisymmetric_from_slots, pair_count
from wedgemech.tulczyjew import PhaseElement2


def random_bivector(rng, dim):
    return Bivector(rng.normal(size=pair_count(dim)), dim)


def random_momentum(rng, dim):
    return MomentumBivector(rng.normal(size=pair_count(dim)), dim)


def random_phase_element2(rng, dim, nodes=()):
    """One random element, or a stack of them over the leading axes ``nodes``."""
    k = pair_count(dim)
    a = rng.normal(size=nodes + (k, k))
    return PhaseElement2(
        x=rng.normal(size=nodes + (dim,)),
        p=MomentumBivector(rng.normal(size=nodes + (k,)), dim),
        xdot=Bivector(rng.normal(size=nodes + (k,)), dim),
        y=rng.normal(size=nodes + (dim, k)),
        pdot=a - np.swapaxes(a, -1, -2),  # float subtraction anticommutes exactly
    )


def four_index_sum(h, u, w):
    """``(u|w) = h_{mu nu kappa lambda} u^{mu nu} w^{kappa lambda}`` over all
    four indices: four times the slot form ``u.H.w`` of the fiber metric."""
    return 4.0 * float(u.slots @ h.slot_matrix @ w.slots)


def dense_fiber_metric(h):
    """Dense ``h_{mu nu kappa lambda}`` (dim, dim, dim, dim) of a fiber metric,
    its slot matrix expanded on both axes."""
    rows = antisymmetric_from_slots(h.slot_matrix, h.dim)  # (I, kappa, lambda)
    # the matrix is symmetric, so expanding its first axis last gives h itself
    return antisymmetric_from_slots(np.moveaxis(rows, 0, -1), h.dim)


def mutate_lines(lines, data, replacements):
    """Drop, duplicate or replace (by one of ``replacements``) one line, or
    one token of a line, of a text file held as a list of lines."""
    # half the draws hit the first five lines: few lines, most of the structure
    head = st.integers(0, min(4, len(lines) - 1))
    n = data.draw(st.one_of(head, st.integers(0, len(lines) - 1)), label="line")
    action = data.draw(st.sampled_from(replacements + ("drop", "duplicate")), label="action")
    if data.draw(st.booleans(), label="whole line"):
        items, k = lines, n
    else:
        items = lines[n].split()
        if not items:
            return
        k = data.draw(st.integers(0, len(items) - 1), label="token")
    if action == "drop":
        del items[k]
    elif action == "duplicate":
        items.insert(k, items[k])
    else:
        items[k] = action
    if items is not lines:
        lines[n] = " ".join(items)

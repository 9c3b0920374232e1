"""The monomial map phi and the sorting facts behind it.

The sorting map acts on pairs of equal-degree monomials over an ordered
alphabet: merge the two sorted variable-id sequences and deal the merged
sequence out alternately.  Under phi the images of the ring variables form
a sortable set (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 14;
Hibi 1987).  The sort here works on flat id tuples, with the x, y and z
blocks laid out one after another, and serves as the reference for
``phi_monomial`` and ``in_kernel``.
"""

from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from doubledet.grid import comparable, grid_points, join, meet
from doubledet.ring import Binomial
from doubledet.sorting import in_kernel, phi_monomial

BOARDS = [(m, n, r) for m in range(1, 4) for n in range(1, 4)
          for r in range(1, 4)]


def flat_phi(variables, m, n, r):
    """Reference phi: the image as one sorted tuple of flat ids, x_i as
    i - 1, y_j as m + j - 1 and z_k as m + n + k - 1."""
    return tuple(sorted(id_ for i, j, k in variables
                        for id_ in (i - 1, m + j - 1, m + n + k - 1)))


def sort_ids(u, v):
    """The sorting of two equal-degree flat id tuples."""
    merged = sorted(u + v)
    return tuple(merged[0::2]), tuple(merged[1::2])


def fixed_by_sorting(u, v):
    """True iff the unordered pair {u, v} is fixed by the sorting map."""
    return set(sort_ids(u, v)) == {u, v}


def variable_images(m, n, r):
    """The images x_i*y_j*z_k of the ring variables, as flat id tuples."""
    return [flat_phi((p,), m, n, r) for p in grid_points(m, n, r)]


def test_sort_pair_block_example():
    # sorting x2*y1*z2 with x1*y2*z1 gives the meet/join monomials
    u3, u4 = sort_ids(flat_phi(((2, 1, 2),), 2, 2, 2),
                      flat_phi(((1, 2, 1),), 2, 2, 2))
    assert u3 == flat_phi(((1, 1, 1),), 2, 2, 2)
    assert u4 == flat_phi(((2, 2, 2),), 2, 2, 2)


def test_sort_pair_identity_on_sorted():
    u = flat_phi(((1, 1, 1),), 2, 2, 2)
    assert sort_ids(u, u) == (u, u)
    assert fixed_by_sorting(u, u)


def test_sort_pair_general_degree():
    # one block t1, t2, t3, degree 2: t1*t3 and t2*t2 merge to t1*t2, t2*t3
    assert sort_ids((0, 2), (1, 1)) == ((0, 1), (1, 2))
    assert not fixed_by_sorting((0, 2), (1, 1))


@given(st.integers(1, 6), st.data())
def test_sort_pair_properties(width, data):
    degree = data.draw(st.integers(0, 5))
    ids = st.lists(st.integers(0, width - 1), min_size=degree,
                   max_size=degree).map(lambda xs: tuple(sorted(xs)))
    u1, u2 = data.draw(ids), data.draw(ids)
    u3, u4 = sort_ids(u1, u2)
    # conserves the product, is symmetric, and is idempotent
    assert sorted(u3 + u4) == sorted(u1 + u2)
    assert sort_ids(u2, u1) == (u3, u4)
    assert sort_ids(u3, u4) == (u3, u4)
    assert fixed_by_sorting(u3, u4)


def test_a_mnr_counts_and_order():
    # phi is injective on the variables, and its images in lexicographic
    # (i, j, k) order are increasing, under either form of the image
    for m, n, r in [(1, 1, 1), (2, 2, 2), (3, 2, 4)]:
        points = grid_points(m, n, r)
        images = [phi_monomial((p,), m, n, r) for p in points]
        assert len(set(images)) == len(points) == m * n * r
        assert images == sorted(images)
        assert variable_images(m, n, r) == sorted(variable_images(m, n, r))
    with pytest.raises(ValueError):
        variable_images(0, 1, 1)


def test_a_mnr_sortable_closure():
    for m, n, r in [(2, 2, 2), (3, 3, 3), (1, 2, 3)]:
        mons = set(variable_images(m, n, r))
        for u1, u2 in product(mons, repeat=2):
            u3, u4 = sort_ids(u1, u2)
            assert u3 in mons and u4 in mons


def test_unsorted_iff_incomparable():
    for m, n, r in [(2, 2, 2), (3, 2, 3), (3, 3, 3)]:
        for a, b in combinations(grid_points(m, n, r), 2):
            sorted_pair = fixed_by_sorting(flat_phi((a,), m, n, r),
                                           flat_phi((b,), m, n, r))
            assert sorted_pair == comparable(a, b)


def test_sort_matches_meet_join_on_grid():
    for a, b in product(grid_points(2, 2, 2), repeat=2):
        assert sort_ids(flat_phi((a,), 2, 2, 2), flat_phi((b,), 2, 2, 2)) == (
            flat_phi((meet(a, b),), 2, 2, 2), flat_phi((join(a, b),), 2, 2, 2))


def test_phi_examples():
    assert phi_monomial(((1, 2, 3),), 2, 2, 3) == ((1,), (2,), (3,))
    assert phi_monomial(((2, 1, 1), (1, 2, 2)), 2, 2, 2) == (
        (1, 2), (1, 2), (1, 2))
    assert phi_monomial((), 2, 2, 2) == ((), (), ())
    for off in ((3, 1, 1), (1, 0, 1), (1, 1, 3)):
        with pytest.raises(ValueError):
            phi_monomial(((1, 1, 1), off), 2, 2, 2)


def test_in_kernel_examples():
    m1 = Binomial.make(((1, 1, 1), (2, 2, 2)),
                       ((2, 1, 1), (1, 2, 2)))
    assert in_kernel(m1, 2, 2, 2)
    not_in = Binomial.make(((1, 1, 1), (1, 2, 1)),
                           ((1, 1, 1), (1, 1, 2)))
    assert not in_kernel(not_in, 2, 2, 2)
    # the degenerate equal-terms case is vacuous: a term always shares its
    # own image (Binomial itself forbids equal terms)
    t = ((1, 1, 1), (1, 1, 1))
    assert phi_monomial(t, 2, 2, 2) == phi_monomial(t, 2, 2, 2)
    with pytest.raises(ValueError):
        Binomial.make(t, t)


def test_in_kernel_matches_flat_phi_on_every_quadric():
    # every binomial of two distinct degree-2 monomials on every board
    # up to (3,3,3)
    for m, n, r in BOARDS:
        terms = list(combinations_with_replacement(grid_points(m, n, r), 2))
        flat = {t: flat_phi(t, m, n, r) for t in terms}
        for a, b in combinations(terms, 2):
            assert in_kernel(Binomial.make(a, b), m, n, r) == (
                flat[a] == flat[b])


def phi_as_flat_ids(variables, m, n, r):
    """phi_monomial's image written as flat_phi writes it: its three
    tuples, in block order, as flat ids."""
    rows, cols, mats = phi_monomial(variables, m, n, r)
    return (tuple(i - 1 for i in rows) + tuple(m + j - 1 for j in cols)
            + tuple(m + n + k - 1 for k in mats))


def test_quadric_branch_matches_flat_phi():
    # every ordered pair, so both orders and the squares, on every board
    for m, n, r in BOARDS:
        for term in product(grid_points(m, n, r), repeat=2):
            assert phi_as_flat_ids(term, m, n, r) == flat_phi(term, m, n, r)


@pytest.mark.parametrize("variables", [
    ((3, 1, 1), (1, 1, 1)),
    ((1, 1, 1), (3, 1, 1)),
    ((3, 1, 1), (1, 0, 1)),
    ((3, 1, 1),),
    ((1, 1, 1), (1, 2, 2), (3, 1, 1)),
])
def test_off_grid_variable_is_named_at_every_degree(variables):
    # the first off-grid variable is x[3,1,1] in each, in first or later
    # place, with or without a second off-grid variable after it
    with pytest.raises(ValueError) as caught:
        phi_monomial(variables, 2, 2, 2)
    assert str(caught.value) == "x[3,1,1] is off the 2x2x2 grid"

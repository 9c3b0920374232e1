from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from doubledet.grid import comparable
from doubledet.ring import Binomial
from doubledet.sorting import (BlockAlphabet, BlockMonomial, a_mnr, in_kernel,
                               is_sorted, phi_monomial, sort_pair)


def xyz_monomial(m, n, r, i, j, k):
    return phi_monomial(((i, j, k),), m, n, r)


def test_alphabet_layout():
    alpha = BlockAlphabet.xyz(3, 2, 4)
    assert alpha.size == 9
    assert alpha.var_id(0, 1) == 0 and alpha.var_id(0, 3) == 2
    assert alpha.var_id(1, 1) == 3 and alpha.var_id(2, 4) == 8
    assert alpha.var_label(0) == "x1"
    assert alpha.var_label(3) == "y1"
    assert alpha.var_label(8) == "z4"
    with pytest.raises(ValueError):
        alpha.var_id(0, 4)
    with pytest.raises(ValueError):
        alpha.var_id(3, 1)


def test_sort_pair_block_example():
    # sorting x2*y1*z2 with x1*y2*z1 gives the meet/join monomials
    u1 = xyz_monomial(2, 2, 2, 2, 1, 2)
    u2 = xyz_monomial(2, 2, 2, 1, 2, 1)
    u3, u4 = sort_pair(u1, u2)
    assert u3 == xyz_monomial(2, 2, 2, 1, 1, 1)
    assert u4 == xyz_monomial(2, 2, 2, 2, 2, 2)


def test_sort_pair_identity_on_sorted():
    u = xyz_monomial(2, 2, 2, 1, 1, 1)
    assert sort_pair(u, u) == (u, u)
    assert is_sorted(u, u)


def test_sort_pair_general_degree():
    # general alphabet, degree 2: t1*t3 and t2*t2 merge to t1*t2, t2*t3
    alpha = BlockAlphabet(("t",), (3,))
    u1 = BlockMonomial.make(alpha, (0, 2))
    u2 = BlockMonomial.make(alpha, (1, 1))
    u3, u4 = sort_pair(u1, u2)
    assert u3.ids == (0, 1) and u4.ids == (1, 2)
    assert not is_sorted(u1, u2)


def test_sort_pair_errors():
    alpha = BlockAlphabet(("t",), (3,))
    with pytest.raises(ValueError):
        sort_pair(BlockMonomial.make(alpha, (0,)),
                  BlockMonomial.make(alpha, (0, 1)))
    other = BlockAlphabet(("s",), (3,))
    with pytest.raises(ValueError):
        sort_pair(BlockMonomial.make(alpha, (0,)),
                  BlockMonomial.make(other, (0,)))


@given(st.integers(1, 6), st.data())
def test_sort_pair_properties(width, data):
    alpha = BlockAlphabet(("t",), (width,))
    degree = data.draw(st.integers(0, 5))
    ids = st.tuples(*[st.integers(0, width - 1)] * degree)
    u1 = BlockMonomial.make(alpha, data.draw(ids))
    u2 = BlockMonomial.make(alpha, data.draw(ids))
    u3, u4 = sort_pair(u1, u2)
    # conserves the product, is symmetric, and is idempotent
    assert sorted(u3.ids + u4.ids) == sorted(u1.ids + u2.ids)
    assert sort_pair(u2, u1) == (u3, u4)
    assert sort_pair(u3, u4) == (u3, u4)
    assert is_sorted(u3, u4)


def test_a_mnr_counts_and_order():
    assert [str(u) for u in a_mnr(1, 1, 1)] == ["x1*y1*z1"]
    assert len(a_mnr(2, 2, 2)) == 8
    mons = a_mnr(3, 2, 4)
    assert len(mons) == 24
    assert len(set(mons)) == 24
    assert mons == sorted(mons, key=lambda u: u.ids)
    with pytest.raises(ValueError):
        a_mnr(0, 1, 1)


def test_a_mnr_sortable_closure():
    for m, n, r in [(2, 2, 2), (3, 3, 3), (1, 2, 3)]:
        mons = set(a_mnr(m, n, r))
        for u1, u2 in product(mons, repeat=2):
            u3, u4 = sort_pair(u1, u2)
            assert u3 in mons and u4 in mons


def test_unsorted_iff_incomparable():
    for m, n, r in [(2, 2, 2), (3, 2, 3), (3, 3, 3)]:
        triples = list(product(range(1, m + 1), range(1, n + 1),
                               range(1, r + 1)))
        for a, b in combinations(triples, 2):
            ua = xyz_monomial(m, n, r, *a)
            ub = xyz_monomial(m, n, r, *b)
            assert is_sorted(ua, ub) == comparable(a, b)


def test_sort_matches_meet_join_on_grid():
    for a, b in product(product((1, 2), repeat=3), repeat=2):
        ua = xyz_monomial(2, 2, 2, *a)
        ub = xyz_monomial(2, 2, 2, *b)
        lo = tuple(map(min, a, b))
        hi = tuple(map(max, a, b))
        assert sort_pair(ua, ub) == (xyz_monomial(2, 2, 2, *lo),
                                     xyz_monomial(2, 2, 2, *hi))


def test_phi_examples():
    assert str(phi_monomial(((1, 2, 3),), 2, 2, 3)) == "x1*y2*z3"
    u = phi_monomial(((1, 1, 1), (2, 2, 2)), 2, 2, 2)
    assert str(u) == "x1*x2*y1*y2*z1*z2"
    with pytest.raises(ValueError):
        phi_monomial(((3, 1, 1),), 2, 2, 2)


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

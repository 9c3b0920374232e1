import json
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from doubledet import invariants
from doubledet.errors import (DEFAULT_BUDGET, BudgetExceededError,
                              SizeGuardError, bound)
from doubledet.grid import comparable, grid_points
from doubledet.invariants import (check_symmetry, compute_invariants,
                                  h_poly_via_linear_extensions,
                                  h_poly_via_series, h_poly_via_words,
                                  hilbert_function, is_gorenstein,
                                  macmahon_check, minimal_generator_count,
                                  multiplicity, order_preserving_map_counts,
                                  poset_descent_polynomial)
from doubledet.intpoly import IntPolynomial
from doubledet.multiset import descents
from doubledet.poset import Poset, make_pmnr

SIZES4 = [(m, n, r) for m in range(1, 5) for n in range(1, 5)
          for r in range(1, 5)]

# frozen via brute enumeration of multiset permutations and their descents
H_POLYS = {
    (2, 2, 2): [1, 4, 1],
    (2, 2, 3): [1, 7, 4],
    (3, 2, 4): [1, 17, 33, 9],
    (2, 2, 4): [1, 10, 9],
    (3, 3, 3): [1, 20, 48, 20, 1],
    (1, 1, 5): [1],
    (4, 4, 4): [1, 54, 405, 760, 405, 54, 1],
    (2, 3, 3): [1, 12, 15, 2],
    (1, 2, 3): [1, 2],
    (1, 1, 1): [1],
}


def incomparable_pairs_bruteforce(m, n, r):
    points = grid_points(m, n, r)
    return sum(1 for p, q in combinations(points, 2) if not comparable(p, q))


def test_report_222():
    report = compute_invariants(2, 2, 2)
    assert (report.mu, report.dim, report.multiplicity) == (9, 4, 6)
    assert (report.regularity, report.a_invariant) == (2, -2)
    assert report.gorenstein
    assert list(report.h_polynomial.coeffs) == [1, 4, 1]


def test_report_324():
    report = compute_invariants(3, 2, 4)
    assert (report.mu, report.dim, report.multiplicity) == (120, 7, 60)
    assert (report.regularity, report.a_invariant) == (3, -4)
    assert not report.gorenstein


def test_report_degenerate_11r():
    for r in (1, 2, 5):
        report = compute_invariants(1, 1, r)
        assert (report.mu, report.dim, report.multiplicity) == (0, r, 1)
        assert (report.regularity, report.a_invariant) == (0, -r)
        assert report.gorenstein


def test_report_rejects_bad_sizes():
    with pytest.raises(ValueError):
        compute_invariants(0, 2, 2)


def test_mu_equals_incomparable_pairs():
    for m, n, r in SIZES4:
        assert (minimal_generator_count(m, n, r)
                == incomparable_pairs_bruteforce(m, n, r))


def test_json_schema():
    data = compute_invariants(2, 2, 2).to_dict()
    assert list(data.keys()) == ["mu", "dim", "multiplicity", "regularity",
                                 "a_invariant", "gorenstein", "h_polynomial"]
    assert json.dumps(data, separators=(",", ":")) == (
        '{"mu":9,"dim":4,"multiplicity":6,"regularity":2,'
        '"a_invariant":-2,"gorenstein":true,"h_polynomial":[1,4,1]}')


# ----------------------------------------------------------------------
# Hilbert function

def test_hilbert_function_values():
    for m, n, r in [(2, 2, 2), (3, 2, 4), (1, 1, 1)]:
        assert hilbert_function(m, n, r, 0) == 1
        assert hilbert_function(m, n, r, 1) == m * n * r
    assert hilbert_function(2, 2, 2, 2) == 27
    assert hilbert_function(3, 2, 4, 2) == 180
    with pytest.raises(ValueError):
        hilbert_function(2, 2, 2, -1)


#: fixed cap on the monomials hilbert_function_bruteforce counts
MAX_MONOMIALS = 10 ** 6


def hilbert_function_bruteforce(m, n, r, d):
    """Oracle for small inputs: count degree-d monomials in the subring
    generated by the x_i y_j z_k, i.e. triples of degree-d monomials in
    m, n and r variables respectively."""
    bound(hilbert_function(m, n, r, d), MAX_MONOMIALS,
          "hilbert_function_bruteforce", "monomials")

    def count_monomials(width):
        return sum(1 for _ in combinations_with_replacement(range(width), d))

    return count_monomials(m) * count_monomials(n) * count_monomials(r)


def test_hilbert_function_bruteforce_agrees():
    for m, n, r in [(2, 2, 2), (3, 2, 2), (2, 3, 4)]:
        for d in range(4):
            assert (hilbert_function(m, n, r, d)
                    == hilbert_function_bruteforce(m, n, r, d))


def test_order_preserving_maps(monkeypatch):
    assert order_preserving_map_counts(Poset(0), 7) == [1] * 8
    assert order_preserving_map_counts(make_pmnr(2, 2, 2), 1) == [1, 8]
    assert order_preserving_map_counts(make_pmnr(3, 2, 4), 2)[2] == 180
    # refused while its ideals are listed: the 2^40 of an antichain never are
    with pytest.raises(SizeGuardError, match="invariants.order_preserving_"
                       r"map_counts: \d+ steps exceed guard 10000000"):
        order_preserving_map_counts(Poset(40), 1)
    with pytest.raises(ValueError):
        order_preserving_map_counts(Poset(2), -1)
    # the cap is on ideals x |P| x degrees: 8 x 3 x 2 for (2, 2, 2), d <= 1
    monkeypatch.setattr(invariants, "MAX_MULTICHAIN_STEPS", 48)
    assert order_preserving_map_counts(make_pmnr(2, 2, 2), 1) == [1, 8]
    monkeypatch.setattr(invariants, "MAX_MULTICHAIN_STEPS", 47)
    with pytest.raises(SizeGuardError, match="48 steps exceed guard 47"):
        order_preserving_map_counts(make_pmnr(2, 2, 2), 1)


def test_hilbert_equals_order_preserving_maps():
    for m in range(1, 4):
        for n in range(1, 4):
            for r in range(1, 4):
                p = make_pmnr(m, n, r)
                assert (order_preserving_map_counts(p, 4)
                        == [hilbert_function(m, n, r, d) for d in range(5)])
    # every d < dim, where the two polynomials of degree dim - 1 meet
    for m, n, r in [(1, 1, 14), (4, 4, 5), (8, 8, 8), (10, 10, 10)]:
        p = make_pmnr(m, n, r)
        assert (order_preserving_map_counts(p, p.n)
                == [hilbert_function(m, n, r, d) for d in range(p.n + 1)])


# ----------------------------------------------------------------------
# h-polynomial, three ways

def test_h_poly_frozen_values():
    for sizes, coeffs in H_POLYS.items():
        assert list(h_poly_via_words(*sizes).coeffs) == coeffs
        assert list(h_poly_via_series(*sizes).coeffs) == coeffs
        assert list(h_poly_via_linear_extensions(*sizes).coeffs) == coeffs


def test_h_poly_methods_agree_up_to_4():
    for m, n, r in SIZES4:
        words = h_poly_via_words(m, n, r)
        assert words == h_poly_via_linear_extensions(m, n, r)
        assert words == h_poly_via_series(m, n, r)
        report = compute_invariants(m, n, r)
        assert words.degree == report.regularity
        assert words(1) == report.multiplicity == multiplicity(m, n, r)


def test_h_poly_via_series_long_chain():
    # (m, 2, 2): the words with m - 1 ones, one 2 and one 3 give
    # h = 1 + (3m - 2) t + (m - 1)^2 t^2; dim = m + 2 rounds of differences
    # over four series values, never all of (1 - t)^dim
    m = 20000
    assert h_poly_via_series(m, 2, 2).coeffs == (1, 3 * m - 2, (m - 1) ** 2)


def test_h_poly_recursions_take_no_budget():
    # no extension is listed, so an h(1) far past the enumeration budget
    # is computed, not refused
    h = h_poly_via_linear_extensions(8, 8, 8)
    assert h == h_poly_via_words(8, 8, 8) == h_poly_via_series(8, 8, 8)
    assert h(1) == multiplicity(8, 8, 8) > DEFAULT_BUDGET
    # the 12-element antichain: the Eulerian numbers, 12! > DEFAULT_BUDGET
    eulerian = [1, 4083, 478271, 10187685, 66318474, 162512286]
    assert list(poset_descent_polynomial(Poset(12)).coeffs) == (
        eulerian + eulerian[::-1])


def test_poset_descent_polynomial_general():
    # antichain of 3: all 6 permutations, Eulerian 1,4,1
    assert list(poset_descent_polynomial(Poset(3)).coeffs) == [1, 4, 1]
    # chain: single extension, no descent
    assert list(poset_descent_polynomial(
        Poset(3, [(0, 1), (1, 2)])).coeffs) == [1]


def descent_polynomial_by_listing(p):
    """Oracle: sum of t^descents over the listed linear extensions."""
    coeffs = [0] * max(1, p.n)
    for ext in p.linear_extensions():
        coeffs[descents(ext)] += 1
    return IntPolynomial(coeffs)


def natural_posets_up_to(size):
    """Every naturally labeled poset on at most ``size`` elements, as each
    subset of the pairs a < b (many subsets give the same poset)."""
    for n in range(size + 1):
        pairs = list(combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for chosen in combinations(pairs, k):
                yield Poset(n, chosen)


@st.composite
def natural_posets(draw, max_size):
    n = draw(st.integers(0, max_size))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Poset(n, [pair for pair, k in zip(pairs, keep) if k])


def test_poset_descent_polynomial_every_poset_up_to_5():
    assert list(poset_descent_polynomial(Poset(0)).coeffs) == [1]
    for p in natural_posets_up_to(5):
        assert poset_descent_polynomial(p) == descent_polynomial_by_listing(p)


@given(natural_posets(8))
def test_poset_descent_polynomial_against_listing(p):
    assert poset_descent_polynomial(p) == descent_polynomial_by_listing(p)


def test_poset_descent_polynomial_states_guard(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_POSET_STATES", 6)
    # a layer never holds more states than there are extensions
    assert list(poset_descent_polynomial(Poset(3)).coeffs) == [1, 4, 1]
    with pytest.raises(SizeGuardError, match="invariants.poset_descent_"
                       r"polynomial: \d+ states exceed guard 6") as info:
        poset_descent_polynomial(Poset(4))
    assert not isinstance(info.value, BudgetExceededError)


def test_poset_descent_polynomial_elements_and_steps_guards(monkeypatch):
    chain = Poset(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(invariants, "MAX_POSET_ELEMENTS", 3)
    monkeypatch.setattr(invariants, "MAX_POSET_STEPS", 9)
    # a chain's layers hold one state each: 3 layers x 3 elements
    assert list(poset_descent_polynomial(chain).coeffs) == [1]
    with pytest.raises(SizeGuardError, match="invariants.poset_descent_"
                       "polynomial: 4 elements exceed guard 3"):
        poset_descent_polynomial(Poset(4))
    # the antichain's second layer holds 3 states: 3 + 3 x 3 steps
    with pytest.raises(SizeGuardError, match="invariants.poset_descent_"
                       "polynomial: 12 steps exceed guard 9"):
        poset_descent_polynomial(Poset(3))


# ----------------------------------------------------------------------
# MacMahon and symmetry

def test_macmahon_examples():
    assert macmahon_check((1, 1, 1), 5)
    assert macmahon_check((0, 0, 4), 5)
    assert macmahon_check((2, 1, 3), 6)
    assert macmahon_check((3,), 4)
    with pytest.raises(ValueError):
        macmahon_check((1, -1), 3)


def test_symmetry():
    assert check_symmetry(2, 3, 4)
    assert check_symmetry(2, 2, 2)
    assert check_symmetry(1, 2, 5)


# ----------------------------------------------------------------------
# Gorenstein

def test_gorenstein_criterion_cases():
    assert is_gorenstein(2, 2, 2)
    assert is_gorenstein(1, 1, 7)
    assert is_gorenstein(1, 3, 3)
    assert not is_gorenstein(3, 2, 4)
    assert not is_gorenstein(1, 2, 3)


def test_gorenstein_iff_palindromic_iff_pure():
    for m, n, r in SIZES4:
        gor = is_gorenstein(m, n, r)
        assert gor == h_poly_via_words(m, n, r).is_palindromic()
        assert gor == make_pmnr(m, n, r).is_pure()

import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from doubledet.errors import SizeGuardError
from doubledet.intpoly import IntPolynomial
from doubledet.multiset import (MAX_WORD_STATES, descent_polynomial, descents,
                                multinomial, multiset_permutations)


def brute_permutations(items):
    """Oracle: dedup itertools.permutations, sorted."""
    return sorted(set(itertools.permutations(items)))


def test_empty_multiset_yields_single_empty_word():
    assert list(multiset_permutations([])) == [()]
    assert multinomial([]) == 1
    assert multinomial([0, 0]) == 1


def test_small_examples():
    assert list(multiset_permutations("aab")) == [
        ("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]
    assert list(multiset_permutations([1, 2, 3])) == brute_permutations([1, 2, 3])


@given(st.lists(st.integers(1, 3), max_size=7))
def test_matches_itertools_oracle(items):
    assert list(multiset_permutations(items)) == brute_permutations(items)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=3))
def test_multinomial_counts(counts):
    items = [letter for letter, c in enumerate(counts) for _ in range(c)]
    assert multinomial(counts) == len(brute_permutations(items))


def test_multinomial_closed_form():
    assert multinomial([2, 1, 3]) == factorial(6) // (2 * 6)
    with pytest.raises(ValueError):
        multinomial([-1, 2])


def test_descents():
    assert descents((1, 2, 3)) == 0
    assert descents((3, 2, 1)) == 2
    assert descents((1, 3, 4, 2, 5, 6)) == 1
    assert descents(()) == 0


def test_descent_polynomial_eulerian():
    # permutations of {1,2,3}: Eulerian numbers 1, 4, 1
    assert list(descent_polynomial([1, 2, 3]).coeffs) == [1, 4, 1]
    assert list(descent_polynomial([]).coeffs) == [1]
    assert list(descent_polynomial([1, 1, 1]).coeffs) == [1]


@given(st.lists(st.integers(1, 4), max_size=9))
def test_descent_polynomial_matches_enumeration(items):
    # the enumeration stays here as the reference for the recursion
    coeffs = [0] * max(1, len(items))
    for w in multiset_permutations(items):
        coeffs[descents(w)] += 1
    assert descent_polynomial(items) == IntPolynomial(coeffs)


def test_descent_polynomial_state_cap():
    # three letters 50 times each: 51^3 * 4 states
    with pytest.raises(SizeGuardError, match="multiset.descent_polynomial: "
                       f"530604 states exceed guard {MAX_WORD_STATES}"):
        descent_polynomial([1, 2, 3] * 50)

import pytest
from hypothesis import given, strategies as st

from doubledet.intpoly import IntPolynomial, difference

small_polys = st.lists(st.integers(-50, 50), max_size=8)


def naive_convolution(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# the library adds polynomials only; negation, difference and the full
# product are the tests' own, the product as the oracle for difference()

def neg(p):
    return IntPolynomial([-c for c in p.coeffs])


def sub(p, q):
    return p + neg(q)


def mul(p, q):
    if not p.coeffs or not q.coeffs:
        return IntPolynomial()
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a:
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
    return IntPolynomial(out)


def test_trailing_zeros_stripped():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert not IntPolynomial([])
    assert IntPolynomial([]).degree == -1


def test_degree_and_indexing():
    p = IntPolynomial([1, 4, 1])
    assert p.degree == 2
    assert p[0] == 1 and p[1] == 4 and p[2] == 1
    assert p[5] == 0 and p[-1] == 0


def test_evaluation():
    p = IntPolynomial([1, 4, 1])
    assert p(1) == 6
    assert p(0) == 1
    assert p(2) == 13


def test_palindromic():
    assert IntPolynomial([1, 4, 1]).is_palindromic()
    assert IntPolynomial([1]).is_palindromic()
    assert IntPolynomial([]).is_palindromic()
    assert not IntPolynomial([1, 7, 4]).is_palindromic()


def test_str():
    assert str(IntPolynomial([1, 4, 1])) == "1 + 4*t + t^2"
    assert str(IntPolynomial([])) == "0"
    assert str(IntPolynomial([0, 1])) == "t"
    assert str(IntPolynomial([2, -3])) == "2 - 3*t"


@given(small_polys, small_polys)
def test_mul_matches_naive_convolution(a, b):
    assert mul(IntPolynomial(a), IntPolynomial(b)).coeffs == tuple(
        IntPolynomial(naive_convolution(a, b)).coeffs)


@given(small_polys, small_polys)
def test_add_sub_roundtrip(a, b):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    assert sub(pa + pb, pb) == pa


def one_minus_t(e):
    """(1 - t)^e by the full product, as the reference."""
    p = IntPolynomial([1])
    for _ in range(e):
        p = mul(p, IntPolynomial([1, -1]))
    return p


@given(small_polys, st.integers(0, 12), st.integers(0, 10))
def test_difference_matches_full_product(a, e, cutoff):
    values = [IntPolynomial(a)[d] for d in range(cutoff + 1)]
    full = mul(one_minus_t(e), IntPolynomial(a))
    assert difference(values, e) == [full[d] for d in range(cutoff + 1)]


def test_one_minus_t_power():
    # differencing the series 1 gives the coefficients of (1 - t)^e
    assert difference([1], 0) == [1]
    assert difference([1, 0, 0], 2) == [1, -2, 1]
    assert difference([1, 0, 0, 0, 0, 0], 4) == [1, -4, 6, -4, 1, 0]
    assert sum(difference([1] + [0] * 7, 7)) == 0
    with pytest.raises(ValueError):
        difference([1], -1)

"""Closed-form ring invariants and the h-polynomial by three routes.

The quotient by the minor ideal is isomorphic to the Hibi ring of the grid
lattice of an (m, n, r) triple of chains, so every invariant reduces to
chain combinatorics: minimal generators count incomparable grid pairs,
multiplicity counts maximal chains, the Hilbert function counts triples of
monomials, and the h-polynomial is a descent generating function.  The
three h-polynomial routes cross-check each other: descents of words and
of the linear extensions of the three-chain poset, by one loop over letter
counts or order ideals (``multiset._descent_transfer``), and the truncated
Hilbert series, kept off that loop so that a fault in it still shows.  No
route lists the extensions; that listing is only the brute-force oracle of
``verify``'s ``multiplicity-extensions`` check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import comb, factorial, prod

from . import grid, poset as poset_mod
from .errors import bound, check_sizes
from .intpoly import IntPolynomial, difference
from .multiset import _descent_transfer, descent_polynomial, multinomial

#: fixed cap on order_preserving_map_counts: ideals x |P| x degrees
MAX_MULTICHAIN_STEPS = 10 ** 7
#: fixed caps on poset_descent_polynomial: its elements, its states in one
#: layer, and its steps (the ready elements tried from each state expanded)
MAX_POSET_ELEMENTS = 2_000
MAX_POSET_STATES = 200_000
MAX_POSET_STEPS = 10 ** 7

# exponent in the paper-style Hilbert function display is read as d in all
# three binomials: the proof counts order-preserving maps chain by chain,
# and symmetry in (m, n, r) forces the same form in each factor


class InvariantReport(namedtuple("InvariantReport", (
        "mu", "dim", "multiplicity", "regularity", "a_invariant",
        "gorenstein", "h_polynomial"))):
    """Invariants of the quotient ring for one (m, n, r).

    Always satisfies regularity = dim + a_invariant, multiplicity = h(1)
    and regularity = deg h; construction raises ArithmeticError otherwise,
    on every route: the constructor, ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        h = self.h_polynomial
        if self.regularity != self.dim + self.a_invariant:
            raise ArithmeticError(f"regularity {self.regularity} != dim + a "
                                  f"= {self.dim + self.a_invariant}")
        if self.multiplicity != h(1):
            raise ArithmeticError(
                f"multiplicity {self.multiplicity} != h(1) = {h(1)}")
        if self.regularity != h.degree:
            raise ArithmeticError(
                f"regularity {self.regularity} != deg h = {h.degree}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def to_dict(self):
        """The fields in declaration order (a stable key order for JSON
        output), with the h-polynomial as its coefficient list."""
        return self._asdict() | {
            "h_polynomial": list(self.h_polynomial.coeffs)}


def minimal_generator_count(m, n, r):
    """One minimal generator per pair of incomparable grid points: all
    unordered pairs, less the comparable ones."""
    check_sizes(m, n, r)
    return comb(m * n * r + 1, 2) - grid.count_comparable_pairs(m, n, r)


def multiplicity(m, n, r):
    check_sizes(m, n, r)
    return multinomial((m - 1, n - 1, r - 1))


def is_gorenstein(m, n, r):
    """Every chain is either empty or of maximal length."""
    check_sizes(m, n, r)
    return {m, n, r} <= {1, max(m, n, r)}


def compute_invariants(m, n, r):
    check_sizes(m, n, r)
    dim = m + n + r - 2
    reg = dim - max(m, n, r)
    return InvariantReport(
        mu=minimal_generator_count(m, n, r),
        dim=dim,
        multiplicity=multiplicity(m, n, r),
        regularity=reg,
        a_invariant=-max(m, n, r),
        gorenstein=is_gorenstein(m, n, r),
        h_polynomial=h_poly_via_series(m, n, r),
    )


def hilbert_function(m, n, r, d):
    check_sizes(m, n, r)
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return comb(m - 1 + d, d) * comb(n - 1 + d, d) * comb(r - 1 + d, d)


def order_preserving_map_counts(p, top):
    """Oracle: for d = 0..top, the number of maps f: p -> {0..d} with
    f(a) <= f(b) whenever a precedes b.

    Such a map is the multichain of order ideals I_1 <= ... <= I_d, with
    I_k the elements f sends below k (Stanley, EC1 3.12).  So the count
    for d is Z_d(P), where Z_0 is 1 on every ideal and Z_d(I) sums
    Z_{d-1} over the ideals J <= I.  Each sum is taken one element at a
    time, in increasing label order: once e is done, an ideal's value sums
    over the ideals below it that agree with it above e, and an ideal I
    holding e gains the value of I - {e} when that is an ideal.  The
    ideals are the bitmasks of ``Poset.order_ideals``, which refuses past
    its own cap.  The work is ideals x |P| x (top + 1): SizeGuardError
    past MAX_MULTICHAIN_STEPS.  An n-element poset has at least n + 1
    ideals (those of any one linear extension's prefixes), so the guard is
    first checked with n + 1 in place of the ideal count, before any ideal
    is listed, and again once they are, before any sum.
    """
    if top < 0:
        raise ValueError("degree must be nonnegative")
    bound((p.n + 1) * p.n * (top + 1), MAX_MULTICHAIN_STEPS,
          "invariants.order_preserving_map_counts", "steps")
    ideals = p.order_ideals()
    bound(len(ideals) * p.n * (top + 1), MAX_MULTICHAIN_STEPS,
          "invariants.order_preserving_map_counts", "steps")
    z = dict.fromkeys(ideals, 1)
    counts = [1]
    for _ in range(top):
        for e in range(p.n):
            bit = 1 << e
            for i in ideals:
                if i & bit and i ^ bit in z:
                    z[i] += z[i ^ bit]
        counts.append(z[(1 << p.n) - 1])
    return counts


def h_poly_via_words(m, n, r):
    """Descent generating polynomial over words with m-1 ones, n-1 twos
    and r-1 threes."""
    check_sizes(m, n, r)
    return descent_polynomial([1] * (m - 1) + [2] * (n - 1) + [3] * (r - 1))


def h_poly_via_linear_extensions(m, n, r):
    """Descent generating polynomial over linear extensions of the
    three-chain poset, by poset_descent_polynomial's recursion; agrees with
    the word count via the label-to-letter bijection."""
    return poset_descent_polynomial(poset_mod.make_pmnr(m, n, r))


def bound_poset_elements(n):
    """Refuse a poset of n elements, n > MAX_POSET_ELEMENTS, as
    ``poset_descent_polynomial`` does.  A poset read from outside is checked
    by its element count before its order (n^2 / 8 bytes) is built."""
    bound(n, MAX_POSET_ELEMENTS, "invariants.poset_descent_polynomial",
          "elements")


def poset_descent_polynomial(p):
    """Sum of t^descents over all linear extensions of an arbitrary
    naturally labeled poset (Stanley's W-polynomial), without listing them.

    By ``multiset._descent_transfer``: a state is (bitmask of the placed
    elements, an order ideal; bitmask of the ready ones, a function of the
    ideal), and placing a ready e readies only upper covers of e.  No
    coefficient exceeds n!.  The work is (order ideals) x n, against e(P)
    for listing the extensions.  SizeGuardError past MAX_POSET_ELEMENTS
    elements, once the ready elements tried take the steps past
    MAX_POSET_STEPS, and once a layer passes MAX_POSET_STATES states
    (never more than P's extensions).  These caps are its only bound: it
    lists no extension, so h(1) itself is never capped.
    """
    bound_poset_elements(p.n)
    below, above = p.below, p._above

    def successors(state):
        placed, ready = state
        out, left = [], ready
        while left:
            low = left & -left
            left ^= low
            e = low.bit_length() - 1
            now, after = placed | low, ready ^ low
            for b in above[e]:
                if below[b] & now == below[b]:
                    after |= 1 << b
            out.append(((now, after), e))
        return out

    return _descent_transfer(
        (0, sum(1 << e for e, need in enumerate(below) if not need)),
        successors, p.n, factorial(p.n).bit_length(), MAX_POSET_STATES,
        MAX_POSET_STEPS, "invariants.poset_descent_polynomial")


def h_poly_via_series(m, n, r):
    """Numerator of the reduced Hilbert series.

    Multiplies the Hilbert function series, truncated one past the known
    regularity, by (1-t)^dim; the coefficient beyond the regularity must
    vanish and the survivors must be nonnegative.
    """
    check_sizes(m, n, r)
    dim = m + n + r - 2
    reg = dim - max(m, n, r)
    cutoff = reg + 1
    coeffs = difference([hilbert_function(m, n, r, d)
                         for d in range(cutoff + 1)], dim)
    if coeffs[cutoff] != 0 or any(c < 0 for c in coeffs):
        raise ArithmeticError(
            f"truncated series product is not an h-polynomial: {coeffs}")
    return IntPolynomial(coeffs[:cutoff])


def macmahon_check(counts, max_degree):
    """Check descent-count against binomial-product series up to max_degree:
    sum over multiset permutations of t^descents must equal
    (1-t)^(a+1) * sum_d prod_i C(a_i + d, d) t^d with a the total size."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts) or max_degree < 0:
        raise ValueError("multiplicities and degree bound must be nonnegative")
    items = [letter for letter, c in enumerate(counts, start=1)
             for _ in range(c)]
    lhs = descent_polynomial(items)
    rhs = difference([prod(comb(ai + d, d) for ai in counts)
                      for d in range(max_degree + 1)], sum(counts) + 1)
    return [lhs[d] for d in range(max_degree + 1)] == rhs


def check_symmetry(m, n, r):
    """All invariants and both descent polynomials must be unchanged under
    every permutation of (m, n, r)."""
    check_sizes(m, n, r)
    base_report = compute_invariants(m, n, r)
    base_words = h_poly_via_words(m, n, r)
    for pm, pn, pr in set(permutations((m, n, r))) - {(m, n, r)}:
        if compute_invariants(pm, pn, pr) != base_report:
            return False
        if h_poly_via_words(pm, pn, pr) != base_words:
            return False
    return True


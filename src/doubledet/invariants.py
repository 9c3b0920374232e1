"""Closed-form ring invariants and the h-polynomial by three routes.

The quotient by the minor ideal is isomorphic to the Hibi ring of the grid
lattice of an (m, n, r) triple of chains, so every invariant reduces to
chain combinatorics: minimal generators count incomparable grid pairs,
multiplicity counts maximal chains, the Hilbert function counts triples of
monomials, and the h-polynomial is a descent generating function.  The
three independent h-polynomial computations exist to cross-check each
other: descents of words by a recursion over letter counts, descents of
the linear extensions of the three-chain poset by a recursion over its
order ideals, and the truncated Hilbert series.  No route lists the
linear extensions one by one; that enumeration survives only as the
brute-force oracle of ``verify``'s ``multiplicity-extensions`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import permutations
from math import comb, factorial, prod

from . import grid, poset as poset_mod
from .errors import bound, check_sizes
from .intpoly import IntPolynomial, difference
from .multiset import descent_polynomial, multinomial

#: fixed cap on order_preserving_map_counts: ideals x |P| x degrees
MAX_MULTICHAIN_STEPS = 10 ** 7
#: fixed caps on poset_descent_polynomial: its elements, its states in one
#: layer, and its steps (|layer| x n, summed over the layers expanded)
MAX_POSET_ELEMENTS = 2_000
MAX_POSET_STATES = 200_000
MAX_POSET_STEPS = 10 ** 7

# exponent in the paper-style Hilbert function display is read as d in all
# three binomials: the proof counts order-preserving maps chain by chain,
# and symmetry in (m, n, r) forces the same form in each factor


@dataclass(frozen=True)
class InvariantReport:
    """Invariants of the quotient ring for one (m, n, r).

    Always satisfies regularity = dim + a_invariant, multiplicity = h(1)
    and regularity = deg h; construction raises ArithmeticError otherwise.
    """

    mu: int
    dim: int
    multiplicity: int
    regularity: int
    a_invariant: int
    gorenstein: bool
    h_polynomial: IntPolynomial

    def __post_init__(self):
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

    def to_dict(self):
        """The fields in declaration order (a stable key order for JSON
        output), with the h-polynomial as its coefficient list."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "h_polynomial": list(self.h_polynomial.coeffs)}


def minimal_generator_count(m, n, r):
    """One minimal generator per pair of incomparable grid points."""
    return grid.count_incomparable_pairs(m, n, r)


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
    ideals are bitmasks, listed by the sweep of ``Poset.order_ideals``.
    The work is ideals x |P| x (top + 1): SizeGuardError past
    MAX_MULTICHAIN_STEPS, checked as the ideals are listed, before any sum.
    """
    if top < 0:
        raise ValueError("degree must be nonnegative")
    below = [sum(1 << a for a in p.lower_covers(e)) for e in range(p.n)]
    ideals = [0]
    for e, need in enumerate(below):
        ideals += [i | 1 << e for i in ideals if i & need == need]
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

    Built one position at a time, like ``multiset.descent_polynomial``.  A
    state is (bitmask of the placed elements, an order ideal; the last
    element placed, -1 before the first); its value counts the prefixes
    reaching it by descents.  An element is ready once its lower covers
    are placed, and placing e after ``last`` is a descent iff last > e.
    Only the current layer is kept, so the work is (number of order
    ideals) x n, against e(P) for listing the extensions.

    Each state holds an n-bit mask and a value of up to n slots of
    log2(n!) bits, and expanding a layer takes |layer| x n steps, so three
    fixed caps refuse the work before it is done: SizeGuardError for more
    than MAX_POSET_ELEMENTS elements, for a layer whose expansion would
    take the steps so far past MAX_POSET_STEPS, and once a layer passes
    MAX_POSET_STATES states (it stops building that layer there; no layer
    holds more states than P has extensions).  These caps are its only
    bound: it lists no extension, so h(1) itself is never capped.
    """
    where = "invariants.poset_descent_polynomial"
    bound_poset_elements(p.n)
    below = [sum(1 << a for a in p.lower_covers(e)) for e in range(p.n)]
    # a value is its polynomial evaluated at t = 2^width: a coefficient
    # counts prefixes, never more than n!, so the coefficients sit in
    # disjoint width-bit slots, adding values adds the polynomials and
    # << width multiplies by t
    width = factorial(p.n).bit_length()
    layer = {(0, -1): 1}
    steps = 0
    for _ in range(p.n):
        steps += len(layer) * p.n
        bound(steps, MAX_POSET_STEPS, where, "steps")
        nxt = {}
        for (placed, last), value in layer.items():
            for e, need in enumerate(below):
                if not placed >> e & 1 and need & placed == need:
                    key = (placed | 1 << e, e)
                    nxt[key] = nxt.get(key, 0) + (
                        value << width if last > e else value)
            if len(nxt) > MAX_POSET_STATES:
                break  # the layer is already too big; bound() refuses it
        bound(len(nxt), MAX_POSET_STATES, where, "states")
        layer = nxt
    total = sum(layer.values())
    mask = (1 << width) - 1
    return IntPolynomial([total >> (width * d) & mask
                          for d in range(max(1, p.n))])


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
    for pm, pn, pr in set(permutations((m, n, r))):
        if compute_invariants(pm, pn, pr) != base_report:
            return False
        if h_poly_via_words(pm, pn, pr) != base_words:
            return False
    return True


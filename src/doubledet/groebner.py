"""Division and the Buchberger certificate under the diagonal order.

Everything here is exact: coefficients are Python ints, monomials are
canonical tuples from the ring module, and the reduction strategy is
fixed (largest reducible term, divisor with the largest leading term and,
on a tie of leading terms, the first basis element), so remainders are
reproducible.

Division is by differences of two monomials only, such as the 2x2 minors
(``SparsePoly.from_binomial``); ``_prepare`` refuses any other basis
element.  One step then turns a term c*t into one smaller term c*t',
so each monomial has one normal form, the end of its chain of steps, and
a remainder is the sum of its terms' normal forms: the binomial rewriting
behind toric Groebner bases (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, ch. 4-5).  ``_prepare`` indexes each leading term to
the other monomial of the first basis element that has it, so the
divisors of a term are found by looking up its sub-monomials, not by
scanning the basis.  ``remainders`` is the batch form of ``reduce``: it
builds the index once, divides every polynomial of a stream by it and
memoises each monomial's normal form for the stream, so
``verify_groebner`` and ``verify``'s sorting relations index their basis
once and walk each chain once.  ``divides`` and ``quotient`` work on the
sorted variable tuples directly.

Nothing here decides an order or a map: leading terms, the reduction
strategy and the printed term order read the diagonal order from ``ring``
(``_monomial_key``, ``lex_greater``), and kernel membership is
``sorting.in_kernel``.
"""

from __future__ import annotations

from itertools import chain, combinations

from . import generators
from .errors import DEFAULT_BUDGET, BudgetExceededError, bound
from .ring import (Binomial, _monomial_key, lex_greater, monomial,
                   monomial_str)
from .sorting import in_kernel


class SparsePoly:
    """Integer polynomial as a dict from canonical monomials to nonzero
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = dict(terms)
        self.terms = {t: c for t, c in data.items() if c != 0}

    @classmethod
    def from_binomial(cls, b: Binomial):
        """The polynomial plus - minus, built as its terms dict without
        ``__init__``'s copy and zero filter: its coefficients are +-1."""
        p = cls.__new__(cls)
        p.terms = {monomial(b.plus): 1, monomial(b.minus): -1}
        return p

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.terms == other.terms
        return NotImplemented

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms, key=_monomial_key):
            c = self.terms[t]
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {mag}{monomial_str(t)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def leading_term(p: SparsePoly):
    """Largest monomial of a nonzero polynomial under the diagonal order."""
    if not p:
        raise ValueError("the zero polynomial has no leading term")
    return min(p.terms, key=_monomial_key)


def _difference(b, a):
    """The multiset b - a as a list in b's order; variables of a that are
    not in b are ignored.  A sub-list of a sorted tuple stays sorted."""
    rest = list(b)
    for v in a:
        if v in rest:
            rest.remove(v)
    return rest


def divides(a, b):
    """Monomial divisibility as multisets of variables."""
    return len(_difference(b, a)) == len(b) - len(a)


def quotient(b, a):
    """b / a for monomials with a | b."""
    return tuple(_difference(b, a))


def _prepare(basis):
    """The leading-term index of a division basis: ``(index, degrees)``.

    Every basis element must be a difference of two monomials, with
    coefficients +1 and -1 in either order.  ``index`` maps each leading
    term to the other monomial of the first basis element that has it;
    ``degrees`` are the degrees of the leading terms.
    """
    index = {}
    for b in basis:
        if sorted(b.terms.values()) != [-1, 1]:
            raise ValueError("basis elements must be a difference of two "
                             "monomials, with coefficients +1 and -1")
        lt, other = sorted(b.terms, key=_monomial_key)
        index.setdefault(lt, other)
    return index, {len(lt) for lt in index}


def reduce(p: SparsePoly, basis):
    """Remainder of p on division by the basis of monomial differences.

    Strategy: repeatedly take the largest still-reducible term and divide
    by the basis element with the largest leading term among those whose
    leading term divides it, and on a tie of leading terms by the first
    basis element.  The remainder has no term divisible by any basis
    leading term, so remainder zero certifies ideal membership whenever
    the basis is a Groebner basis.  It is computed as ``remainders`` on a
    stream of one, with the basis indexed anew.
    """
    return next(remainders([p], basis))


def remainders(polys, basis):
    """Yield the remainder of each of ``polys`` on division by the basis,
    in order: ``reduce`` on a stream, with the basis indexed once.

    Dividing c*t by a difference of two monomials leaves one monomial with
    the same coefficient c, so the strategy sends each monomial down one
    chain of steps (``_step``) to its normal form, whatever its coefficient
    or the polynomial it came from.  Division is linear, so the remainder
    of a polynomial is the sum of c times the normal form of each term t,
    zero sums dropped: the sum the largest-first strategy also reaches.
    The stream keeps one dict from each monomial met to its normal form,
    filled by walking each new chain to a known or irreducible monomial;
    it belongs to this basis and is dropped with the stream.
    """
    index, degrees = _prepare(basis)
    forms = {}
    for p in polys:
        remainder = {}
        for t, c in p.terms.items():
            path = []
            while t not in forms:
                path.append(t)
                step = _step(t, index, degrees)
                if step is None:
                    forms[t] = t
                else:
                    t = step
            form = forms[t]
            for v in path:
                forms[v] = form
            remainder[form] = remainder.get(form, 0) + c
        yield SparsePoly(remainder)


def _step(t, index, degrees):
    """The monomial that one division step makes of t: None when no
    indexed leading term divides t, and otherwise the chosen divisor's
    other monomial times t / lt.  It is smaller than t in the diagonal
    order, so every chain of steps ends."""
    lt = None
    for d in degrees:
        # t is sorted, so each sub-monomial of it is canonical
        for sub in set(combinations(t, d)):
            if sub in index and (lt is None or lex_greater(sub, lt)):
                lt = sub
    if lt is None:
        return None
    return monomial(index[lt] + quotient(t, lt))


def s_polynomial(f: SparsePoly, g: SparsePoly):
    """lcm-cancelled combination of the two leading terms, built in one
    dict: with L the lcm of lt(f) and lt(g),
    lc(g) * (L / lt(f)) * f - lc(f) * (L / lt(g)) * g.  Both leading
    terms become lc(f) * lc(g) * L and cancel, so neither is formed."""
    lt_f, lt_g = leading_term(f), leading_term(g)
    out = {}
    for p, coeff, lt, other in ((f, g.terms[lt_g], lt_f, lt_g),
                                (g, -f.terms[lt_f], lt_g, lt_f)):
        shift = tuple(_difference(other, lt))  # L / lt = other - lt
        for t, c in p.terms.items():
            if t != lt:
                mono = monomial(t + shift)
                out[mono] = out.get(mono, 0) + c * coeff
    return SparsePoly(out)


def verify_groebner(basis, m, n, r, budget=DEFAULT_BUDGET):
    """Certify that the Binomials ``basis`` are a Groebner basis of the
    full minor ideal.

    Three ingredients: every basis element lies in the ideal (its two
    terms have the same image under the monomial map); every S-polynomial
    of a basis pair reduces to zero (pairs with coprime leading terms are
    skipped); and every 2x2 minor of H and V reduces to zero, so the basis
    generates at least the whole ideal.  The S-pairs are counted against
    ``budget`` first, from the size of the basis alone, so a refusal
    tests no element and builds no polynomial.
    """
    bound(len(basis) * (len(basis) - 1) // 2, budget,
          "groebner.verify_groebner", "S-pairs", BudgetExceededError)
    if not all(in_kernel(b, m, n, r) for b in basis):
        return False
    polys = [SparsePoly.from_binomial(b) for b in basis]
    lt_vars = [set(leading_term(p)) for p in polys]
    # pairs with coprime leading terms reduce to zero automatically
    s_polys = (s_polynomial(polys[a], polys[b])
               for a, b in combinations(range(len(polys)), 2)
               if lt_vars[a] & lt_vars[b])
    minors = (SparsePoly.from_binomial(minor.binomial)
              for minor in generators.minor_basis(m, n, r))
    return not any(remainders(chain(s_polys, minors), polys))


def initial_ideal_minimal_generators(basis):
    """Minimal monomial generators of the leading-term ideal of the
    Binomials ``basis``: their distinct leading terms, since every
    ``Binomial`` is quadratic and so no leading term divides another."""
    return frozenset(b.plus for b in basis)

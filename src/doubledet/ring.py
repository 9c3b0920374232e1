"""Variables x[i,j,k] of the ambient polynomial ring and quadratic binomials.

x[i,j,k] is the (i,j) entry of the k-th generic matrix.  The monomial order
used throughout is the lexicographic order in which variables decrease as
the key (k, i, j) increases:

    x[1,1,1] > x[1,2,1] > ... > x[1,n,1] > x[2,1,1] > ... > x[m,n,1]
             > x[1,1,2] > ... > x[m,n,r]

Under this order the leading term of every 2x2 minor of the horizontal or
vertical concatenation is its main-diagonal product, so we call it the
diagonal order.  A variable is its grid point, the plain tuple (i, j, k)
that ``grid`` orders, meets and joins; ``var_str`` writes it as x[i,j,k].
A monomial is stored as a tuple of variables sorted with the largest
variable first.

This module is the only definition of the order: ``_monomial_key`` sorts
monomials from the largest down, and ``lex_greater``, ``Binomial.make`` and
everything in ``groebner`` (leading terms, the reduction strategy, the
printed term order) read it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

#: sort key (k, i, j) of a variable: a smaller key is a larger variable
_order_key = itemgetter(2, 0, 1)

# sorts above every variable key, so a monomial comes after its extensions
_END = ((float("inf"),),)


def monomial(variables):
    """Canonical monomial: variables sorted largest-first."""
    return tuple(sorted(variables, key=_order_key))


def _monomial_key(mono):
    """Sort key of a canonical monomial: a smaller key is a larger monomial.

    Pure lex: the first differing variable decides; with one monomial a
    prefix of the other, the longer (higher-degree) one is greater.
    """
    return tuple(map(_order_key, mono)) + _END


def lex_greater(a, b):
    """True iff canonical monomial a is above b in the diagonal order."""
    return _monomial_key(a) < _monomial_key(b)


def var_str(v):
    """The text form x[i,j,k] of the variable (i, j, k)."""
    return "x[{},{},{}]".format(*v)


def monomial_str(mono):
    return "*".join(map(var_str, mono))


@dataclass(frozen=True)
class Binomial:
    """Difference of two distinct squarefree degree-2 monomials.

    Canonical form: ``plus`` is the term that is larger under the diagonal
    order, so ``plus`` is always the leading term.  Equal generating sets of
    binomials are then equal as Python sets.
    """

    plus: tuple
    minus: tuple

    @classmethod
    def make(cls, term_a, term_b):
        a, b = monomial(term_a), monomial(term_b)
        if len(a) != 2 or len(b) != 2:
            raise ValueError("binomial terms must have degree 2")
        if a == b:
            raise ValueError("binomial terms must differ")
        if lex_greater(a, b):
            return cls(a, b)
        return cls(b, a)

    def variables(self):
        return set(self.plus) | set(self.minus)

    def __str__(self):
        return f"{monomial_str(self.plus)} - {monomial_str(self.minus)}"


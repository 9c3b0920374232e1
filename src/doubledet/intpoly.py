"""Univariate polynomials in t with exact integer coefficients.

Used for h-polynomials, h-vectors and truncated Hilbert-series arithmetic.
Coefficients are Python ints, so everything is arbitrary precision.
"""

from __future__ import annotations


class IntPolynomial:
    """Immutable integer polynomial; ``coeffs[d]`` is the coefficient of t^d."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self):
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, d):
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self):
        """True iff the coefficient sequence reads the same reversed."""
        return self.coeffs == self.coeffs[::-1]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{d}" if c != 1 else f"t^{d}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def difference(values, e):
    """The coefficients of (1 - t)^e * sum_d values[d] t^d in the degrees
    below len(values), by e rounds of first differences: the product is
    built only in the degrees that are read."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    out = list(values)
    for _ in range(e):
        for d in range(len(out) - 1, 0, -1):
            out[d] -= out[d - 1]
    return out

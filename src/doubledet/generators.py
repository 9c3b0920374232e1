"""2x2 minors of the concatenated matrices and the minimal generator families.

H is the m x (nr) horizontal concatenation of the r generic m x n matrices
(column (k-1)n + j holds column j of matrix k) and V is the (mr) x n
vertical concatenation (row (k-1)m + i holds row i of matrix k).  The
presentation ideal is generated by all 2x2 minors of H and V; its minimal
generators split into four disjoint families according to which of the
row / column / matrix indices coincide, and each family element is, up to
sign, one minor or a sum of two.

A variable x[i,j,k] is the grid point (i, j, k), so the sorting relations
are built from ``grid.meet`` and ``grid.join`` directly.  A minor is built
from its two diagonal grid points by ``_h_minor`` or ``_v_minor``, the only
code that knows the positions of H and V.

Each listing takes every variable from one ``grid.point_table`` that it
builds for the call (``minor_basis`` one for its minors of H and V), so a
point is one object in all of the listing's binomials; two listings hold
equal points, not the same ones.  ``decompose_into_minors`` builds at most
two minors per call and no table: their other entries are new tuples.

Each listing refuses itself before it walks more than ``errors.MAX_LISTED``
generators (``generator_families``), grid pairs (``sorting_relations``,
however few it keeps) or minors of H and V (``minor_basis``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product
from math import comb

from . import grid, sorting
from .errors import MAX_LISTED, bound, check_sizes
from .ring import Binomial, monomial, var_str

FAMILY_KEYS = ("same_row", "same_column", "same_block", "mixed")


class Minor(namedtuple("Minor", "source rows cols entries")):
    """A 2x2 minor of H or V, with positions in the concatenated matrix.

    ``source`` is "H" or "V".  ``entries`` is the (a11, a12, a21, a22)
    layout; the minor as a binomial is a11*a22 - a12*a21, whose leading
    term under the diagonal order is the diagonal product a11*a22.
    """

    __slots__ = ()

    @property
    def binomial(self):
        a11, a12, a21, a22 = self.entries
        return Binomial.make((a11, a22), (a12, a21))

    def __str__(self):
        return (f"{self.source}[rows={self.rows},cols={self.cols}]: "
                f"{self.binomial}")


def _h_minor(n, p, q, point=tuple):
    """The minor of H on the diagonal p = (i1, j1, k1), q = (i2, j2, k2).
    ``point`` gives the object held for each other entry: a point table's
    lookup, or by default the tuple just built."""
    (i1, j1, k1), (i2, j2, k2) = p, q
    return Minor("H", (i1, i2), ((k1 - 1) * n + j1, (k2 - 1) * n + j2),
                 (p, point((i1, j2, k2)), point((i2, j1, k1)), q))


def _v_minor(m, p, q, point=tuple):
    """The minor of V on the diagonal p = (i1, j1, k1), q = (i2, j2, k2),
    with ``point`` as in ``_h_minor``."""
    (i1, j1, k1), (i2, j2, k2) = p, q
    return Minor("V", ((k1 - 1) * m + i1, (k2 - 1) * m + i2), (j1, j2),
                 (p, point((i1, j2, k1)), point((i2, j1, k2)), q))


def _walk_H(t, m, n, r):
    """The minors of H on the point table t, row pairs outer, column
    pairs (k, j) inner."""
    if n * r < 2:
        return ()  # no column pair, so no need to walk the row pairs
    return (_h_minor(n, t[i1, j1, k1], t[i2, j2, k2], t.__getitem__)
            for i1, i2 in combinations(range(1, m + 1), 2)
            for (k1, j1), (k2, j2) in combinations(
                product(range(1, r + 1), range(1, n + 1)), 2))


def _walk_V(t, m, n, r):
    """The minors of V on the point table t, row pairs (k, i) outer,
    column pairs inner."""
    if n < 2:
        return ()  # no column pair, so no need to walk the row pairs
    return (_v_minor(m, t[i1, j1, k1], t[i2, j2, k2], t.__getitem__)
            for (k1, i1), (k2, i2) in combinations(
                product(range(1, r + 1), range(1, m + 1)), 2)
            for j1, j2 in combinations(range(1, n + 1), 2))


def minors_H(m, n, r):
    """All 2x2 minors of H, row pairs outer, column pairs (k, j) inner."""
    return list(_walk_H(grid.point_table(m, n, r), m, n, r))


def minors_V(m, n, r):
    """All 2x2 minors of V, row pairs (k, i) outer, column pairs inner."""
    return list(_walk_V(grid.point_table(m, n, r), m, n, r))


def hv_minor_count(m, n, r):
    """Closed form for len(minors_H) + len(minors_V)."""
    check_sizes(m, n, r)
    return comb(m, 2) * comb(n * r, 2) + comb(m * r, 2) * comb(n, 2)


def minor_basis(m, n, r):
    """Minors of H, then those of V with rows in two matrices: a V-minor
    inside one matrix is that matrix's H-minor, and the terms of any other
    lie on different column pairs, so it is no H-minor."""
    bound(hv_minor_count(m, n, r), MAX_LISTED, "generators.minor_basis",
          "minors")
    t = grid.point_table(m, n, r)
    listed = list(_walk_H(t, m, n, r))
    listed += (mi for mi in _walk_V(t, m, n, r)
               if mi.entries[0][2] != mi.entries[3][2])
    return listed


def minor_count(m, n, r):
    """Closed form for len(minor_basis): the minors of H and V, less those
    inside one matrix, which are minors of both."""
    return hv_minor_count(m, n, r) - r * comb(m, 2) * comb(n, 2)


def generator_families(m, n, r):
    """The four disjoint families of minimal generators, keyed by which
    indices agree between the two points being swapped:

    - "same_row":    row i fixed, columns j1 < j2, matrices k1 < k2
    - "same_column": column j fixed, rows i1 < i2, matrices k1 < k2
    - "same_block":  matrix k fixed, rows i1 < i2, columns j1 < j2
    - "mixed":       all three index pairs distinct (three shapes each)
    """
    sizes = family_sizes(m, n, r)
    bound(sum(sizes.values()), MAX_LISTED, "generators.generator_families",
          "generators")
    t = grid.point_table(m, n, r)
    same_row = (
        Binomial.make((t[i, j2, k1], t[i, j1, k2]),
                      (t[i, j1, k1], t[i, j2, k2]))
        for i in range(1, m + 1)
        for j1, j2 in combinations(range(1, n + 1), 2)
        for k1, k2 in combinations(range(1, r + 1), 2))
    same_column = (
        Binomial.make((t[i2, j, k1], t[i1, j, k2]),
                      (t[i1, j, k1], t[i2, j, k2]))
        for i1, i2 in combinations(range(1, m + 1), 2)
        for j in range(1, n + 1)
        for k1, k2 in combinations(range(1, r + 1), 2))
    same_block = (
        Binomial.make((t[i1, j2, k], t[i2, j1, k]),
                      (t[i1, j1, k], t[i2, j2, k]))
        for i1, i2 in combinations(range(1, m + 1), 2)
        for j1, j2 in combinations(range(1, n + 1), 2)
        for k in range(1, r + 1))
    mixed = (
        Binomial.make(unsorted, (t[i1, j1, k1], t[i2, j2, k2]))
        for i1, i2 in combinations(range(1, m + 1), 2)
        for j1, j2 in combinations(range(1, n + 1), 2)
        for k1, k2 in combinations(range(1, r + 1), 2)
        for unsorted in ((t[i1, j2, k1], t[i2, j1, k2]),
                         (t[i2, j1, k1], t[i1, j2, k2]),
                         (t[i2, j2, k1], t[i1, j1, k2])))
    # an empty family is not walked: its outer loops would run for nothing
    return {key: list(family) if sizes[key] else [] for key, family in
            zip(FAMILY_KEYS, (same_row, same_column, same_block, mixed))}


def family_sizes(m, n, r):
    """Closed-form family cardinalities."""
    check_sizes(m, n, r)
    return dict(zip(FAMILY_KEYS, (m * comb(r, 2) * comb(n, 2),
                                  n * comb(r, 2) * comb(m, 2),
                                  r * comb(m, 2) * comb(n, 2),
                                  3 * comb(r, 2) * comb(m, 2) * comb(n, 2))))


def sorting_relations(m, n, r):
    """One relation per unsorted pair: the product of two incomparable grid
    variables minus the product over their meet and join."""
    check_sizes(m, n, r)
    bound(comb(m * n * r, 2), MAX_LISTED, "generators.sorting_relations",
          "grid pairs")
    t = grid.point_table(m, n, r)
    return [Binomial.make((a, b), (t[grid.meet(a, b)], t[grid.join(a, b)]))
            for a, b in combinations(t, 2) if not grid.comparable(a, b)]


def _expansion(signed_minors):
    acc = {}
    for sign, minor in signed_minors:
        a11, a12, a21, a22 = minor.entries
        for coeff, term in ((sign, monomial((a11, a22))),
                            (-sign, monomial((a12, a21)))):
            acc[term] = acc.get(term, 0) + coeff
            if acc[term] == 0:
                del acc[term]
    return acc


def decompose_into_minors(g: Binomial, m, n, r):
    """Write a family element as a signed sum of at most two minors.

    The fixed-index families and the first two mixed shapes are single
    minors; the third mixed shape is the sum of a V-minor and an H-minor.
    Binomials outside the four families are rejected.
    """
    check_sizes(m, n, r)
    for v in g.variables():
        if not (0 < v[0] <= m and 0 < v[1] <= n and 0 < v[2] <= r):
            raise ValueError(
                f"variable {var_str(v)} outside a {m}x{n} x{r} arrangement")
    a, b = g.minus
    lo, hi = grid.meet(a, b), grid.join(a, b)
    if (grid.comparable(a, b)  # comparable points: not a relation
            or monomial(g.plus) != monomial((lo, hi))):
        raise ValueError(f"{g} is not a minimal generator")
    if a[0] == b[0]:  # same row: one minor of V
        parts = [(1, _v_minor(m, lo, hi))]
    elif a[1] == b[1] or a[2] == b[2]:  # same column or matrix: one minor of H
        parts = [(1, _h_minor(n, lo, hi))]
    else:
        (i1, j1, k1), (i2, j2, k2) = lo, hi
        low = a if a[2] == k1 else b  # the variable from the earlier matrix
        if low[:2] == (i1, j2):
            parts = [(1, _v_minor(m, lo, hi))]
        elif low[:2] == (i2, j1):
            parts = [(1, _h_minor(n, lo, hi))]
        else:
            # antidiagonal swap: V-minor plus the H-minor on crossed columns
            parts = [(1, _v_minor(m, lo, hi)),
                     (1, _h_minor(n, (i1, j2, k1), (i2, j1, k2)))]
    if _expansion(parts) != {monomial(g.plus): 1, monomial(g.minus): -1}:
        raise ArithmeticError(f"the minors of {g} do not expand back to it")
    return tuple(parts)


def minor_dependency_witness(m, n, r):
    """A zero signed sum of four distinct minors, or None.

    Integer dependencies can only relate minors whose terms share a common
    image under the monomial map, so the search runs fiber by fiber.
    """
    check_sizes(m, n, r)
    fibers = {}
    for minor in minor_basis(m, n, r):
        key = sorting.phi_monomial(minor.binomial.plus, m, n, r)
        fibers.setdefault(key, []).append(minor)
    for key in sorted(fibers):
        group = fibers[key]
        if len(group) < 4:
            continue
        for quad in combinations(group, 4):
            for rest in product((1, -1), repeat=3):
                signed = tuple(zip((1,) + rest, quad))
                if not _expansion(signed):
                    return signed
    return None

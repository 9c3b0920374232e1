"""The grid {1..m} x {1..n} x {1..r} under componentwise order.

This is a distributive lattice (a product of three chains); meet and join
are componentwise min and max, so no Hasse diagram is ever materialized —
a point plus its bounds is the whole representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import poset as poset_mod
from .errors import bound, check_sizes

#: fixed cap on the ideals an ideal-lattice oracle lists
MAX_IDEALS = 10_000


@dataclass(frozen=True)
class GridPoint:
    i: int
    j: int
    k: int
    bounds: tuple  # (m, n, r)

    def __post_init__(self):
        m, n, r = self.bounds
        if not (1 <= self.i <= m and 1 <= self.j <= n and 1 <= self.k <= r):
            raise ValueError(
                f"point ({self.i},{self.j},{self.k}) outside {self.bounds}")

    @property
    def coords(self):
        return (self.i, self.j, self.k)

    def __str__(self):
        return f"({self.i},{self.j},{self.k})"


def grid_points(m, n, r):
    """All grid points in lexicographic (i, j, k) order."""
    check_sizes(m, n, r)
    return [GridPoint(i, j, k, (m, n, r))
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            for k in range(1, r + 1)]


def _check_same_bounds(p, q):
    if p.bounds != q.bounds:
        raise ValueError(f"mismatched grid bounds: {p.bounds} vs {q.bounds}")


def comparable(p, q):
    """True iff p <= q or q <= p componentwise."""
    _check_same_bounds(p, q)
    return (all(a <= b for a, b in zip(p.coords, q.coords))
            or all(a >= b for a, b in zip(p.coords, q.coords)))


def meet(p, q):
    _check_same_bounds(p, q)
    return GridPoint(min(p.i, q.i), min(p.j, q.j), min(p.k, q.k), p.bounds)


def join(p, q):
    _check_same_bounds(p, q)
    return GridPoint(max(p.i, q.i), max(p.j, q.j), max(p.k, q.k), p.bounds)


def count_comparable_pairs(m, n, r):
    """Unordered pairs of (not necessarily distinct) comparable grid points.

    Summing the order-ideal sizes i*j*k over the grid factors into a
    product of three triangular numbers.
    """
    check_sizes(m, n, r)
    return comb(m + 1, 2) * comb(n + 1, 2) * comb(r + 1, 2)


def count_incomparable_pairs(m, n, r):
    """Unordered pairs of distinct incomparable grid points."""
    check_sizes(m, n, r)
    total = m * n * r
    return comb(total + 1, 2) - count_comparable_pairs(m, n, r)


def lattice_isomorphic_to_ideals(m, n, r):
    """Verify explicitly that I -> (|I ∩ chain_t| + 1)_t is an order
    isomorphism from the ideal lattice of the three-chain poset onto the
    grid: a bijection taking the covers I + {e} of each ideal I onto the
    covers of its image, hence (order being the transitive closure of the
    covers) preserving order both ways."""
    check_sizes(m, n, r)
    bound(m * n * r, MAX_IDEALS, "grid.lattice_isomorphic_to_ideals",
          "ideals")
    p = poset_mod.make_pmnr(m, n, r)
    chains = poset_mod.pmnr_chain_ranges(m, n, r)
    ideals = p.order_ideals()
    images = {ideal: tuple(sum(1 for e in chain if e in ideal) + 1
                           for chain in chains) for ideal in ideals}
    points = {q.coords for q in grid_points(m, n, r)}
    if set(images.values()) != points or len(ideals) != len(points):
        return False
    for ideal, (i, j, k) in images.items():
        up = {images.get(ideal | {e}) for e in range(p.n)
              if e not in ideal and p.lower_covers(e) <= ideal}
        if up != {(i + 1, j, k), (i, j + 1, k), (i, j, k + 1)} & points:
            return False
    return True

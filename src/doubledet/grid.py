"""The grid {1..m} x {1..n} x {1..r} under componentwise order.

This is a distributive lattice (a product of three chains); meet and join
are componentwise min and max.  A point is a plain (i, j, k) tuple, and it
is also the ring variable x[i,j,k] (see ``ring``).  This module holds the
only definition of the order on it: ``comparable``, ``meet`` and ``join``
give the sorting relations in ``generators`` and the oracles in
``verify``.  No Hasse diagram is ever materialized.

The three order primitives take two (i, j, k) triples and nothing else:
they unpack both and compare the coordinates one by one, because the
listing checks call them for every pair of grid points.  The generic
componentwise definitions they must agree with are the oracles of
``tests/test_grid.py``.
"""

from __future__ import annotations

from itertools import product
from math import comb

from . import poset as poset_mod
from .errors import bound, check_sizes


def grid_points(m, n, r):
    """All grid points in lexicographic (i, j, k) order."""
    check_sizes(m, n, r)
    return list(product(range(1, m + 1), range(1, n + 1), range(1, r + 1)))


def comparable(p, q):
    """True iff p <= q or q <= p componentwise."""
    (a, b, c), (d, e, f) = p, q
    return (a <= d and b <= e and c <= f) or (a >= d and b >= e and c >= f)


def meet(p, q):
    (a, b, c), (d, e, f) = p, q
    return a if a <= d else d, b if b <= e else e, c if c <= f else f


def join(p, q):
    (a, b, c), (d, e, f) = p, q
    return a if a >= d else d, b if b >= e else e, c if c >= f else f


def count_comparable_pairs(m, n, r):
    """Unordered pairs of (not necessarily distinct) comparable grid points.

    Summing the order-ideal sizes i*j*k over the grid factors into a
    product of three triangular numbers.
    """
    check_sizes(m, n, r)
    return comb(m + 1, 2) * comb(n + 1, 2) * comb(r + 1, 2)


def lattice_isomorphic_to_ideals(m, n, r):
    """Verify explicitly that I -> (|I ∩ chain_t| + 1)_t is an order
    isomorphism from the ideal lattice of the three-chain poset onto the
    grid: a bijection taking the covers I + {e} of each ideal I onto the
    covers of its image, hence (order being the transitive closure of the
    covers) preserving order both ways.

    Only the lowest missing element of each chain is tried as e.  That
    suffices: the test then requires, from the empty ideal up, every union
    of chain prefixes (m·n·r sets with m·n·r images) to be an ideal, and
    the count requires that there be no other.  Any other addable element
    e would make I + {e}, which meets e's chain in no prefix, one more
    ideal, so the count or the bijection already fails.
    """
    check_sizes(m, n, r)
    bound(m * n * r, poset_mod.MAX_IDEALS,
          "grid.lattice_isomorphic_to_ideals", "ideals")
    p = poset_mod.make_pmnr(m, n, r)
    chains = [sum(1 << e for e in chain)
              for chain in poset_mod.pmnr_chain_ranges(m, n, r)]
    ideals = p.order_ideals()
    images = {ideal: tuple((ideal & chain).bit_count() + 1
                           for chain in chains) for ideal in ideals}
    points = set(grid_points(m, n, r))
    if set(images.values()) != points or len(ideals) != len(points):
        return False
    for ideal, (i, j, k) in images.items():
        up = set()
        for chain in chains:
            if missing := chain & ~ideal:
                low = missing & -missing  # the chain's lowest missing element
                need = p.below[low.bit_length() - 1]
                if ideal & need == need:
                    up.add(images.get(ideal | low))
        if up != {(i + 1, j, k), (i, j + 1, k), (i, j, k + 1)} & points:
            return False
    return True

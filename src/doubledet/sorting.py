"""The sorting map on pairs of equal-degree monomials.

Monomials live over an ordered alphabet split into blocks (for the target
ring of the monomial map there are three blocks x_1..x_m, y_1..y_n,
z_1..z_r, ordered block by block).  To sort a pair, concatenate the two
exponent sequences, sort the combined sequence weakly increasing, and deal
it back out alternately: odd positions form the first output monomial,
even positions the second.  A pair is sorted when this operation fixes it.

This module also holds the only definition of the monomial map
phi: x[i,j,k] -> x_i * y_j * z_k, whose kernel is the ideal of the minors:
``phi_monomial`` applies it to a product of ring variables and
``in_kernel`` is the one kernel-membership test.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import grid
from .errors import check_sizes
from .ring import Binomial


@dataclass(frozen=True)
class BlockAlphabet:
    """Variable alphabet split into named blocks, ordered first by block
    and then by index inside the block."""

    block_names: tuple
    block_sizes: tuple

    @classmethod
    def xyz(cls, m, n, r):
        check_sizes(m, n, r)
        return cls(("x", "y", "z"), (m, n, r))

    @property
    def size(self):
        return sum(self.block_sizes)

    def var_id(self, block, index):
        """Flat id of the index-th variable (1-based) of the given block."""
        if not (0 <= block < len(self.block_sizes)):
            raise ValueError(f"no block {block}")
        if not (1 <= index <= self.block_sizes[block]):
            raise ValueError(
                f"index {index} outside block of size {self.block_sizes[block]}")
        return sum(self.block_sizes[:block]) + index - 1

    def var_label(self, vid):
        for name, size in zip(self.block_names, self.block_sizes):
            if vid < size:
                return f"{name}{vid + 1}"
            vid -= size
        raise ValueError("variable id out of range")


@dataclass(frozen=True)
class BlockMonomial:
    """Monomial stored as a weakly increasing tuple of variable ids."""

    alphabet: BlockAlphabet
    ids: tuple

    @classmethod
    def make(cls, alphabet, ids):
        ids = tuple(sorted(ids))
        if ids and not (0 <= ids[0] and ids[-1] < alphabet.size):
            raise ValueError(f"variable id out of range: {ids}")
        return cls(alphabet, ids)

    @property
    def degree(self):
        return len(self.ids)

    def __str__(self):
        return "*".join(self.alphabet.var_label(v) for v in self.ids) or "1"


def _check_pair(u1, u2):
    if u1.alphabet != u2.alphabet:
        raise ValueError("monomials over different alphabets")
    if u1.degree != u2.degree:
        raise ValueError(
            f"degree mismatch: {u1.degree} != {u2.degree}")


def sort_pair(u1, u2):
    """The sorting of (u1, u2); symmetric, idempotent, and product-preserving."""
    _check_pair(u1, u2)
    merged = sorted(u1.ids + u2.ids)
    return (BlockMonomial(u1.alphabet, tuple(merged[0::2])),
            BlockMonomial(u1.alphabet, tuple(merged[1::2])))


def is_sorted(u1, u2):
    """True iff the unordered pair {u1, u2} is fixed by the sorting map."""
    _check_pair(u1, u2)
    return set(sort_pair(u1, u2)) == {u1, u2}


def a_mnr(m, n, r):
    """All degree-3 monomials x_i*y_j*z_k, the images of the ring variables,
    in lexicographic (i, j, k) order.

    This set is sortable: sorting any pair takes componentwise min/max of
    the index triples, which stays inside the set.
    """
    return [phi_monomial((p,), m, n, r) for p in grid.grid_points(m, n, r)]


def phi_monomial(variables, m, n, r):
    """The monomial map on a product of ring variables (i, j, k):
    x[i,j,k] -> x_i * y_j * z_k, extended multiplicatively."""
    alphabet = BlockAlphabet.xyz(m, n, r)
    ids = []
    for i, j, k in variables:
        ids.extend((alphabet.var_id(0, i),
                    alphabet.var_id(1, j),
                    alphabet.var_id(2, k)))
    return BlockMonomial.make(alphabet, tuple(ids))


def in_kernel(b: Binomial, m, n, r):
    """True iff phi maps the two terms of b to the same monomial."""
    return phi_monomial(b.plus, m, n, r) == phi_monomial(b.minus, m, n, r)

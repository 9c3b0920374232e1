"""Lexicographic enumeration of multiset permutations and descent statistics.

A word here is any finite sequence of mutually comparable letters (ints,
single-character strings, ...).  Permutations are always generated in
lexicographic order, each distinct rearrangement exactly once, which keeps
every downstream catalog reproducible.  The descent polynomial is counted
without listing the words, by a recursion over letter counts.
"""

from itertools import groupby
from math import factorial, prod
from operator import gt

from .errors import bound
from .intpoly import IntPolynomial

#: fixed cap on descent_polynomial's states: 4*m*n*r for the words route
MAX_WORD_STATES = 500_000


def multinomial(counts):
    """Number of distinct permutations of a multiset with these multiplicities."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be nonnegative")
    total = factorial(sum(counts))
    for c in counts:
        total //= factorial(c)
    return total


def multiset_permutations(items):
    """Yield every distinct permutation of ``items``, lexicographically,
    by Narayana's successor rule.  The empty multiset yields the single
    empty word.
    """
    word = sorted(items)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def descents(word):
    """Number of positions s with word[s] > word[s+1]: the sum of the
    comparisons as 0s and 1s, which ``map`` runs without a Python-level
    loop body (``verify`` counts them for every listed extension)."""
    return sum(map(gt, word, word[1:]))


def descent_polynomial(items):
    """Sum of t^descents over all distinct permutations of ``items``.

    Built one position at a time.  A state is (how many of each letter are
    placed, index of the last letter placed, -1 before the first); its
    value counts the prefixes reaching it by descents.  Only the current
    layer is kept.  Raises SizeGuardError above MAX_WORD_STATES states.
    """
    counts = [len(list(run)) for _, run in groupby(sorted(items))]
    bound(prod(c + 1 for c in counts) * (len(counts) + 1), MAX_WORD_STATES,
          "multiset.descent_polynomial", "states")
    layer = {((0,) * len(counts), -1): [1]}
    for _ in range(sum(counts)):
        nxt = {}
        for (placed, last), coeffs in layer.items():
            for t, c in enumerate(counts):
                if placed[t] < c:
                    key = (placed[:t] + (placed[t] + 1,) + placed[t + 1:], t)
                    acc = nxt.setdefault(key, [])
                    shift = last > t  # a descent: t^1
                    acc.extend([0] * (len(coeffs) + shift - len(acc)))
                    for d, x in enumerate(coeffs, start=shift):
                        acc[d] += x
        layer = nxt
    return sum(map(IntPolynomial, layer.values()), IntPolynomial())

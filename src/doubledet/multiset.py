"""Lexicographic enumeration of multiset permutations and descent statistics.

A word here is any finite sequence of mutually comparable letters (ints,
single-character strings, ...).  Permutations are always generated in
lexicographic order, each distinct rearrangement exactly once, which keeps
every downstream catalog reproducible.
"""

from collections import Counter
from math import factorial

from .errors import BudgetExceededError, bound
from .intpoly import IntPolynomial

#: default cap on the number of words/extensions an enumeration may visit
DEFAULT_BUDGET = 10 ** 7


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
    """Yield every distinct permutation of ``items``, lexicographically.

    The empty multiset yields the single empty word.
    """
    letters = sorted(set(items))
    counts = [0] * len(letters)
    for x in items:
        counts[letters.index(x)] += 1
    total = len(list(items))
    word = []

    def emit():
        if len(word) == total:
            yield tuple(word)
            return
        for t, letter in enumerate(letters):
            if counts[t]:
                counts[t] -= 1
                word.append(letter)
                yield from emit()
                word.pop()
                counts[t] += 1

    yield from emit()


def descents(word):
    """Number of positions s with word[s] > word[s+1]."""
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def descent_polynomial(items, budget=DEFAULT_BUDGET):
    """Sum of t^descents over all distinct permutations of ``items``.

    Raises BudgetExceededError if the multiset has more than ``budget``
    permutations (checked up front via the multinomial count).
    """
    items = list(items)
    counts = Counter(items)
    bound(multinomial(counts.values()), budget,
          "multiset.descent_polynomial", "permutations", BudgetExceededError)
    coeffs = [0] * max(1, len(items))
    for w in multiset_permutations(items):
        coeffs[descents(w)] += 1
    return IntPolynomial(coeffs)

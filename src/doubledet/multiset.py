"""Lexicographic enumeration of multiset permutations and descent statistics.

A word here is any finite sequence of mutually comparable letters (ints,
single-character strings, ...).  Permutations are always generated in
lexicographic order, each distinct rearrangement exactly once, which keeps
every downstream catalog reproducible.  The descent polynomial is counted
without listing the words, by ``_descent_transfer``: the one loop of both
descent routes, kept off the series route so that its faults still show.
"""

from itertools import groupby
from math import factorial, inf, prod
from operator import gt

from .errors import bound
from .intpoly import IntPolynomial

#: fixed cap on descent_polynomial's states: at most 4*m*n*r for the words
#: route, less when a size is 1 and its letter drops out
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


def _descent_transfer(start, successors, layers, width, max_states=inf,
                      max_steps=inf, where=None):
    """Sum of t^descents over the walks of ``layers`` steps from ``start``;
    ``successors(state)`` lists the steps out as (next state, letter).  A
    layer maps (state, last letter or -1) to its walks' polynomial at
    t = 2^width, each coefficient in ``width`` bits; a descent (last >
    letter) shifts one slot.  Each step out of a state is charged as its
    successors are listed, and a layer is built until the steps pass
    ``max_steps`` or its states pass ``max_states``; SizeGuardError names
    ``where``.  The series and listing oracles stay off this loop, so
    h-poly-agreement still meets a route that does not share it.
    """
    layer, steps = {(start, -1): 1}, 0
    for _ in range(layers):
        nxt = {}
        get = nxt.get
        for (state, last), value in layer.items():
            shifted = value << width
            out = successors(state)
            steps += len(out)
            for key in out:
                nxt[key] = get(key, 0) + (shifted if last > key[1] else value)
            if steps > max_steps or len(nxt) > max_states:
                break  # the layer is already too big; bound() refuses it
        bound(steps, max_steps, where, "steps")
        bound(len(nxt), max_states, where, "states")
        layer = nxt
    total, mask = sum(layer.values()), (1 << width) - 1
    return IntPolynomial([total >> width * d & mask
                          for d in range(max(1, layers))])


def descent_polynomial(items):
    """Sum of t^descents over all distinct permutations of ``items``: a
    state counts the letters placed of each kind, and no coefficient
    exceeds the word count.  SizeGuardError above MAX_WORD_STATES states.
    """
    counts = [len(list(run)) for _, run in groupby(sorted(items))]
    bound(prod(c + 1 for c in counts) * (len(counts) + 1), MAX_WORD_STATES,
          "multiset.descent_polynomial", "states")
    letters = range(len(counts))

    def successors(placed):
        return [(placed[:t] + (placed[t] + 1,) + placed[t + 1:], t)
                for t in letters if placed[t] < counts[t]]

    return _descent_transfer((0,) * len(counts), successors, sum(counts),
                             multinomial(counts).bit_length())

import random
import sys
import tracemalloc
from itertools import chain, combinations, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from doubledet import poset
from doubledet.errors import SizeGuardError, bound
from doubledet.invariants import order_preserving_map_counts
from doubledet.multiset import descents
from doubledet.poset import (Poset, make_pmnr, parse_poset_text,
                             pmnr_chain_ranges)

SIZES = [(m, n, r) for m in range(1, 5) for n in range(1, 5)
         for r in range(1, 5)]


#: fixed cap on the poset elements max_antichain_bruteforce searches
MAX_ANTICHAIN_ELEMENTS = 20


# ----------------------------------------------------------------------
# the order as the poset stores it, its transitive closure: under the
# natural labeling, a precedes b iff a < b and the two are comparable

def comparable(p, a, b):
    # natural labeling: only the smaller label can precede the other
    lo, hi = sorted((a, b))
    return lo == hi or p._up[lo] >> hi & 1 == 1


def less(p, a, b):
    """True iff a strictly precedes b."""
    return a < b and comparable(p, a, b)


def strict_upset(p, a):
    return frozenset(b for b in range(a + 1, p.n) if comparable(p, a, b))


def strict_downset(p, a):
    return frozenset(b for b in range(a) if comparable(p, a, b))


def mask(elements):
    """The bitmask of a set of elements, as the poset holds one."""
    return sum(1 << e for e in elements)


def is_linear_extension(p, seq):
    """Check that seq is a permutation of p's elements respecting the order."""
    if sorted(seq) != list(range(p.n)):
        return False
    pos = {e: s for s, e in enumerate(seq)}
    return all(pos[a] < pos[b]
               for a in range(p.n) for b in strict_upset(p, a))


def descent_count(seq, p):
    """Descents of a linear extension: positions where the element placed
    there carries a larger natural label than its successor."""
    seq = tuple(seq)
    if not is_linear_extension(p, seq):
        raise ValueError("sequence is not a linear extension of the poset")
    return descents(seq)


# ----------------------------------------------------------------------
# brute-force oracles

def max_antichain_bruteforce(p):
    """Oracle: largest antichain size by exhaustive subset search."""
    bound(p.n, MAX_ANTICHAIN_ELEMENTS, "max_antichain_bruteforce",
          "elements")
    best = 0
    for size in range(p.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(p.n), size):
            if all(not comparable(p, a, b) for a, b in combinations(sub, 2)):
                best = size
                break
    return best


def ideals_bruteforce(p):
    """All downward closed subsets by filtering the power set."""
    elements = range(p.n)
    out = []
    for sub in chain.from_iterable(
            combinations(elements, k) for k in range(p.n + 1)):
        sub = frozenset(sub)
        if all(strict_downset(p, e) <= sub for e in sub):
            out.append(sub)
    return set(out)


def covers_bruteforce(p):
    """Pairs a < b with no c strictly between, testing every c above a."""
    return [(a, b) for a in range(p.n) for b in sorted(strict_upset(p, a))
            if not any(b in strict_upset(p, c) for c in strict_upset(p, a))]


def order_preserving_maps_bruteforce(p, d):
    """Maps p -> {0..d} with f(a) <= f(b) whenever a precedes b, by
    testing every map."""
    return sum(1 for f in product(range(d + 1), repeat=p.n)
               if all(f[a] <= f[b]
                      for a in range(p.n) for b in strict_upset(p, a)))


@st.composite
def posets(draw, max_size):
    """Naturally labeled posets: each drawn pair is related smaller label
    first."""
    n = draw(st.integers(0, max_size))
    element = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(element, element), max_size=2 * n))
    return Poset(n, [tuple(sorted(pair)) for pair in pairs])


def rank_bruteforce(p):
    best = -1
    for size in range(p.n, 0, -1):
        for sub in combinations(range(p.n), size):
            if all(comparable(p, a, b) for a, b in combinations(sub, 2)):
                return size - 1
    return best


def maximal_chain_lengths_bruteforce(p):
    """Lengths of all maximal chains via DFS over cover relations."""
    covers_up = [[] for _ in range(p.n)]
    for a, b in p.covers():
        covers_up[a].append(b)
    minimal = [e for e in range(p.n) if not strict_downset(p, e)]
    lengths = set()

    def walk(e, length):
        if not covers_up[e]:
            lengths.add(length)
            return
        for b in covers_up[e]:
            walk(b, length + 1)

    for e in minimal:
        walk(e, 0)
    return lengths


CORPUS = {
    "empty": Poset(0),
    "single": Poset(1),
    "chain4": Poset(4, [(0, 1), (1, 2), (2, 3)]),
    "antichain3": Poset(3),
    "diamond": Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "n_poset": Poset(4, [(0, 2), (1, 2), (1, 3)]),
    "impure": Poset(4, [(0, 1), (1, 3), (2, 3)]),
    "p224": make_pmnr(2, 2, 4),
    "p324": make_pmnr(3, 2, 4),
    "p233": make_pmnr(2, 3, 3),
}


# ----------------------------------------------------------------------
# construction

def test_pmnr_basic_shapes():
    assert make_pmnr(1, 1, 1).n == 0
    p = make_pmnr(3, 2, 4)
    assert p.n == 6
    # chains 0<1 | 2 | 3<4<5, nothing across
    assert less(p, 0, 1) and less(p, 3, 4) and less(p, 4, 5) and less(p, 3, 5)
    for a in (0, 1):
        for b in (2, 3, 4, 5):
            assert not comparable(p, a, b)
    assert not comparable(p, 2, 3)
    p3 = make_pmnr(2, 2, 2)
    assert p3.n == 3
    assert all(not comparable(p3, a, b) for a, b in combinations(range(3), 2))


def test_pmnr_rejects_bad_sizes():
    for bad in [(0, 1, 1), (1, -1, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            make_pmnr(*bad)


def test_chain_ranges():
    a1, a2, a3 = pmnr_chain_ranges(3, 2, 4)
    assert (list(a1), list(a2), list(a3)) == ([0, 1], [2], [3, 4, 5])


def test_constructor_rejects_unnatural_relation():
    with pytest.raises(ValueError):
        Poset(3, [(2, 1)])
    with pytest.raises(ValueError):
        Poset(2, [(0, 5)])


def test_transitive_closure():
    p = Poset(3, [(0, 1), (1, 2)])
    assert less(p, 0, 2)
    assert p.covers() == [(0, 1), (1, 2)]


def test_covers_and_lower_covers_against_bruteforce():
    for name, p in CORPUS.items():
        covers = covers_bruteforce(p)
        assert p.covers() == covers, name
        for b in range(p.n):
            assert p.below[b] == mask(a for a, c in covers if c == b), name


@given(posets(9))
def test_covers_are_the_transitive_reduction(p):
    assert p.covers() == covers_bruteforce(p)


@given(posets(6), st.integers(0, 2))
def test_order_preserving_map_count_against_bruteforce(p, d):
    assert (order_preserving_map_counts(p, d)
            == [order_preserving_maps_bruteforce(p, k) for k in range(d + 1)])


# ----------------------------------------------------------------------
# order ideals

def test_order_ideals_counts():
    assert make_pmnr(1, 1, 1).order_ideals() == [0]
    assert len(make_pmnr(2, 2, 2).order_ideals()) == 8
    assert len(make_pmnr(3, 2, 4).order_ideals()) == 24


def test_ideal_count_is_product_of_sizes():
    for m, n, r in SIZES:
        assert len(make_pmnr(m, n, r).order_ideals()) == m * n * r


def test_order_ideals_against_bruteforce_and_lattice_laws():
    for name, p in CORPUS.items():
        ideals = p.order_ideals()
        assert len(set(ideals)) == len(ideals), name
        assert set(ideals) == set(map(mask, ideals_bruteforce(p))), name
        # union is join, intersection is meet
        for a in ideals[:12]:
            for b in ideals[:12]:
                assert (a | b) in set(ideals)
                assert (a & b) in set(ideals)


def order_ideals_by_rescan(p):
    """Reference listing: each step rescans every ideal listed so far."""
    ideals = [0]
    for e, need in enumerate(p.below):
        ideals += [i | 1 << e for i in ideals if i & need == need]
    return ideals


@given(posets(8))
def test_suffix_listing_lists_what_the_rescan_lists(p):
    assert p.order_ideals() == order_ideals_by_rescan(p)


def test_suffix_listing_lists_what_the_rescan_lists_on_corpus_and_pmnr():
    for name, p in CORPUS.items():
        assert p.order_ideals() == order_ideals_by_rescan(p), name
    for m, n, r in SIZES:
        p = make_pmnr(m, n, r)
        assert p.order_ideals() == order_ideals_by_rescan(p), (m, n, r)


def poset_lines(listing):
    """The result of ``listing()`` and the lines ``poset.py`` runs for it
    (line events, loop passes included): a count of work that no load on
    the machine changes."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == poset.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = listing()
    finally:
        sys.settrace(previous)
    return result, lines


def test_ideals_of_a_long_chain_are_not_quadratic():
    # about 7 lines per ideal (20,996 here); the rescan pays n^2 / 2 =
    # 4.5 M mask tests for the chain's ideals
    p = make_pmnr(3000, 1, 1)
    ideals, lines = poset_lines(p.order_ideals)
    assert lines < 20 * 3000
    assert ideals == [(1 << k) - 1 for k in range(3000)]


def test_order_ideals_cap(monkeypatch):
    # a cap equal to the count lists every ideal; one less refuses
    monkeypatch.setattr(poset, "MAX_IDEALS", 24)
    assert len(CORPUS["p324"].order_ideals()) == 24
    monkeypatch.setattr(poset, "MAX_IDEALS", 23)
    with pytest.raises(SizeGuardError, match=r"^poset\.order_ideals: 24 "
                       "ideals exceed guard 23$"):
        CORPUS["p324"].order_ideals()


# ----------------------------------------------------------------------
# width / rank / purity

def test_width_rank_purity_examples():
    p = make_pmnr(3, 2, 4)
    assert (p.width(), p.rank(), p.is_pure()) == (3, 2, False)
    p = make_pmnr(2, 2, 2)
    assert (p.width(), p.rank(), p.is_pure()) == (3, 0, True)
    p = make_pmnr(1, 1, 5)
    assert (p.width(), p.rank(), p.is_pure()) == (1, 3, True)
    empty = make_pmnr(1, 1, 1)
    assert (empty.width(), empty.rank(), empty.is_pure()) == (0, -1, True)


def test_width_rank_purity_against_bruteforce():
    for name, p in CORPUS.items():
        assert p.width() == max(max_antichain_bruteforce(p), 0), name
        assert p.rank() == rank_bruteforce(p), name
        lengths = maximal_chain_lengths_bruteforce(p)
        assert p.is_pure() == (len(lengths) <= 1), name


def test_width_holds_no_list_of_the_comparable_pairs():
    # a 1999-element chain has about 2 M comparable pairs: one int each
    # would be tens of MB, the matching and the search masks a few KB
    p = make_pmnr(2000, 1, 1)
    tracemalloc.start()
    try:
        assert p.width() == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * p.n


def recursive_matching_width(p):
    """The width by the recursive augmenting search the library used
    before: one Python frame per edge of an augmenting path."""
    up, match, seen = p._up, [-1] * p.n, 0

    def augment(a):
        nonlocal seen
        while free := up[a] & ~seen:
            low = free & -free
            seen |= low
            b = low.bit_length() - 1
            if match[b] == -1 or augment(match[b]):
                match[b], seen = a, 0
                return True
        return False

    return p.n - sum(map(augment, range(p.n)))


def test_width_follows_long_augmenting_paths():
    # random relations a < b < a + 50: augmenting paths run to hundreds
    # of edges, past the default recursion limit of the recursive search
    rng = random.Random(0)
    p = Poset(2000, [(a, b) for a in range(2000)
                     for b in range(a + 1, min(a + 50, 2000))
                     if rng.random() < 0.1])
    width = p.width()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        assert width == recursive_matching_width(p)
    finally:
        sys.setrecursionlimit(limit)


def test_impure_example():
    assert not CORPUS["impure"].is_pure()
    assert CORPUS["n_poset"].is_pure()


# ----------------------------------------------------------------------
# linear extensions and descents

def test_linear_extension_counts():
    assert list(make_pmnr(1, 1, 1).linear_extensions()) == [()]
    assert len(list(make_pmnr(2, 2, 2).linear_extensions())) == 6
    assert len(list(make_pmnr(3, 2, 4).linear_extensions())) == 60
    for m, n, r in SIZES:
        expected = factorial(m + n + r - 3) // (
            factorial(m - 1) * factorial(n - 1) * factorial(r - 1))
        assert len(list(make_pmnr(m, n, r).linear_extensions())) == expected


def test_linear_extensions_valid_unique_lexicographic():
    for p in (CORPUS["diamond"], CORPUS["p324"], CORPUS["n_poset"]):
        seen = list(p.linear_extensions())
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        assert all(is_linear_extension(p, ext) for ext in seen)


def linear_extensions_by_scan(p):
    """Reference listing: every depth scans all n elements for the ready
    ones, lowest first."""
    below = p.below
    placed, seq = 0, []
    stack = [iter(range(p.n))]  # per depth: the elements left to try
    while stack:
        if len(seq) == p.n:
            yield tuple(seq)
        for e in stack[-1]:
            if not placed >> e & 1 and below[e] & placed == below[e]:
                placed |= 1 << e
                seq.append(e)
                stack.append(iter(range(p.n)))
                break
        else:
            stack.pop()
            if seq:
                placed ^= 1 << seq.pop()


@given(posets(8))
def test_ready_set_walk_lists_what_the_scan_lists(p):
    assert list(p.linear_extensions()) == list(linear_extensions_by_scan(p))


def test_ready_set_walk_lists_what_the_scan_lists_on_pmnr():
    for m, n, r in SIZES:
        p = make_pmnr(m, n, r)
        assert (list(p.linear_extensions())
                == list(linear_extensions_by_scan(p)))


def test_one_extension_of_a_long_chain_is_not_quadratic():
    # about 22 lines per element (65,987 here); the scan pays n^2 = 9 M
    # element tests for the chain's one extension
    p = make_pmnr(3000, 1, 1)
    extensions, lines = poset_lines(lambda: list(p.linear_extensions()))
    assert lines < 40 * 3000
    assert extensions == [tuple(range(2999))]


def test_descent_examples():
    p324 = make_pmnr(3, 2, 4)
    identity = tuple(range(6))
    assert descent_count(identity, p324) == 0
    # extension 1 3 4 2 5 6 in natural labels
    assert descent_count((0, 2, 3, 1, 4, 5), p324) == 1
    p222 = make_pmnr(2, 2, 2)
    assert descent_count((2, 1, 0), p222) == 2
    with pytest.raises(ValueError):
        descent_count((1, 0), make_pmnr(1, 3, 1))  # 1 < 2 in the chain


def test_no_descent_at_last_position():
    for p in (CORPUS["p324"], CORPUS["diamond"]):
        for ext in p.linear_extensions():
            assert descent_count(ext, p) < max(p.n, 1)


# ----------------------------------------------------------------------
# serialization: the library reads the text format, these write and
# read it whole

def poset_to_text(p):
    lines = [f"n={p.n}"]
    lines.extend(f"{a + 1} < {b + 1}" for a, b in p.covers())
    return "\n".join(lines) + "\n"


def poset_from_text(text):
    return Poset(*parse_poset_text(text))


def test_text_roundtrip():
    for name, p in CORPUS.items():
        back = poset_from_text(poset_to_text(p))
        assert back == p, name


def test_text_format():
    text = poset_to_text(Poset(3, [(0, 2)]))
    assert text == "n=3\n1 < 3\n"
    p = poset_from_text("n=4\n1 < 2\n2 < 4\n")
    assert less(p, 0, 3)


def test_text_errors():
    for bad in ["", "m=3", "n=x", "n=2\n1 < 3", "n=3\n3 < 1", "n=2\n1 2",
                "n=2\n1 < b", "n=2\n1 < 1"]:
        with pytest.raises(ValueError):
            poset_from_text(bad)

"""Micro timings of single operations, each on a fixed input.

Every timing is the median of ``REPEATS`` warm repeats (one untimed repeat
runs first) of a batch of calls, divided by the batch size.  Batch loop
overhead is included.  Inputs:

* ``ring.lex_greater.ns``: two degree-4 monomials made from the leading
  terms of the first non-coprime pair of (3,3,3) minors, compared
  ``BATCH`` times;
* ``groebner.divides.ns``: one of those degree-2 leading terms against a
  degree-4 monomial it divides, ``BATCH`` times;
* ``groebner.reduce.us_per_spair``: the S-polynomial of the first
  non-coprime pair of the (3,3,3) minor basis (189 minors), formed and
  reduced by the whole basis;
* ``simplicial.facet_decode.us``: decoding the first 2000 facet words of
  (6,5,5);
* ``multiset.permutations.ns_per_word``: all 11550 permutations of
  ``1111 2222 333``;
* ``cli.emit_json.us_per_facet``: ``facets -f json`` serialisation of those
  2000 decoded facets into a sink that discards them.
"""

from __future__ import annotations

import io
import itertools
import statistics
import time
from contextlib import redirect_stdout

from doubledet import cli, generators, groebner, multiset, ring, simplicial

REPEATS = 7
BATCH = 20_000
FACETS = 2000


def _median_per_item(fn, items):
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / items)
    return statistics.median(times)


def _first_overlapping_pair(polys):
    lts = [groebner.leading_term(p) for p in polys]
    for a, b in itertools.combinations(range(len(polys)), 2):
        if set(lts[a]) & set(lts[b]):
            return a, b
    raise ValueError("no pair of leading terms shares a variable")


def measure():
    """Every micro timing, by metric name."""
    polys = [groebner.SparsePoly.from_binomial(mi.binomial)
             for mi in generators.minor_basis(3, 3, 3)]
    a, b = _first_overlapping_pair(polys)
    lt_a, lt_b = groebner.leading_term(polys[a]), groebner.leading_term(polys[b])
    big_a = ring.monomial(lt_a + lt_b)
    big_b = ring.monomial(lt_b + lt_b)
    words = ["".join(w) for w in itertools.islice(
        multiset.multiset_permutations("MMMMMNNNNRRRR"), FACETS)]
    decoded = [simplicial.Facet(6, 5, 5, w) for w in words]
    letters = [1] * 4 + [2] * 4 + [3] * 3
    sink = io.StringIO()

    def compare():
        for _ in range(BATCH):
            ring.lex_greater(big_a, big_b)

    def divide():
        for _ in range(BATCH):
            groebner.divides(lt_b, big_a)

    def spair():
        groebner.reduce(groebner.s_polynomial(polys[a], polys[b]), polys)

    def decode():
        for w in words:
            simplicial.Facet(6, 5, 5, w)

    def permutations():
        for _ in multiset.multiset_permutations(letters):
            pass

    def emit():
        sink.seek(0)
        sink.truncate()
        with redirect_stdout(sink):
            cli._dump_json([cli._facet_json(f) for f in decoded])

    return {
        "ring.lex_greater.ns": _median_per_item(compare, BATCH) * 1e9,
        "groebner.divides.ns": _median_per_item(divide, BATCH) * 1e9,
        "groebner.reduce.us_per_spair": _median_per_item(spair, 1) * 1e6,
        "simplicial.facet_decode.us": _median_per_item(decode, FACETS) * 1e6,
        "multiset.permutations.ns_per_word":
            _median_per_item(permutations,
                             multiset.multinomial((4, 4, 3))) * 1e9,
        "cli.emit_json.us_per_facet": _median_per_item(emit, FACETS) * 1e6,
    }

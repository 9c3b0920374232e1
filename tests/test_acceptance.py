"""Acceptance suite.

One test per criterion; each enforces exact equality at the documented
scale, re-derives closed forms from independent enumeration oracles,
asserts the stated wall-clock bound, and prints one PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live).
"""

import time
from collections import Counter
from itertools import combinations

from doubledet import generators, grid, groebner, invariants, simplicial
from doubledet.poset import make_pmnr
from doubledet.ring import Binomial

SIZES3 = [(m, n, r) for m in range(1, 4) for n in range(1, 4)
          for r in range(1, 4)]
SIZES4 = [(m, n, r) for m in range(1, 5) for n in range(1, 5)
          for r in range(1, 5)]

PAPER_223_ORDER = [  # published facet order; adjacent-transposition chain
    "MNRR", "NMRR", "NRMR", "NRRM", "RNRM", "RNMR",
    "RMNR", "MRNR", "MRRN", "RMRN", "RRMN", "RRNM"]
PAPER_223_ENDPOINTS = {
    "MNRR": (((2, 1), (1, 2)), ((1, 3), (1, 3)), ((1, 5), (1, 5))),
    "NMRR": (((2, 1), (1, 2)), ((1, 3), (1, 3)), ((1, 5), (1, 5))),
    "NRMR": (((2, 1), (2, 2)), ((2, 3), (1, 3)), ((1, 5), (1, 5))),
    "NRRM": (((2, 1), (2, 2)), ((2, 3), (2, 3)), ((2, 5), (1, 5))),
    "RNRM": (((2, 2), (2, 2)), ((2, 3), (2, 4)), ((2, 5), (1, 5))),
    "RNMR": (((2, 2), (2, 2)), ((2, 3), (1, 4)), ((1, 5), (1, 5))),
    "RMNR": (((2, 2), (2, 2)), ((2, 3), (1, 4)), ((1, 5), (1, 5))),
    "MRNR": (((2, 2), (1, 2)), ((1, 3), (1, 4)), ((1, 5), (1, 5))),
    "MRRN": (((2, 2), (1, 2)), ((1, 4), (1, 4)), ((1, 5), (1, 6))),
    "RMRN": (((2, 2), (2, 2)), ((2, 4), (1, 4)), ((1, 5), (1, 6))),
    "RRMN": (((2, 2), (2, 2)), ((2, 4), (2, 4)), ((2, 5), (1, 6))),
    "RRNM": (((2, 2), (2, 2)), ((2, 4), (2, 4)), ((2, 5), (1, 6))),
}
PAPER_WORD = "MRMNNNRMN"
PAPER_FACET = {(4, 5), (3, 5), (3, 7), (2, 7), (2, 8), (2, 9), (2, 10),
               (2, 11), (1, 11), (1, 12)}
PAPER_FACE = [(4, 5), (3, 7), (2, 8), (2, 11), (1, 12)]


def run_criterion(number, limit_seconds, description, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2}: PASS ({elapsed:.2f}s / limit "
          f"{limit_seconds:g}s) - {description}")
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s")


# --- independent oracles ------------------------------------------------

def incomparable_pairs_oracle(m, n, r):
    points = grid.grid_points(m, n, r)
    return sum(1 for p, q in combinations(points, 2)
               if not grid.comparable(p, q))


def diagonal_key(v):
    """The diagonal order's (k, i, j) key of the variable (i, j, k)."""
    return v[2], v[0], v[1]


def expansion_oracle(signed_minors):
    acc = Counter()
    for sign, minor in signed_minors:
        a11, a12, a21, a22 = minor.entries
        acc[tuple(sorted((a11, a22), key=diagonal_key))] += sign
        acc[tuple(sorted((a12, a21), key=diagonal_key))] -= sign
    return {t: c for t, c in acc.items() if c}


def binomial_as_dict(b):
    return {tuple(sorted(b.plus, key=diagonal_key)): 1,
            tuple(sorted(b.minus, key=diagonal_key)): -1}


# --- criteria -----------------------------------------------------------

def test_criterion_01_invariant_tables():
    def body():
        for sizes, expected in [
                ((2, 2, 2), (9, 4, 6, 2, -2, True)),
                ((3, 2, 4), (120, 7, 60, 3, -4, False))]:
            m, n, r = sizes
            rep = invariants.compute_invariants(m, n, r)
            assert (rep.mu, rep.dim, rep.multiplicity, rep.regularity,
                    rep.a_invariant, rep.gorenstein) == expected
            # enumeration oracles for every value
            assert rep.mu == incomparable_pairs_oracle(m, n, r)
            p = make_pmnr(m, n, r)
            assert rep.multiplicity == sum(1 for _ in p.linear_extensions())
            assert rep.dim == p.n + 1
            assert rep.regularity == p.n - p.rank() - 1
            assert rep.a_invariant == rep.regularity - rep.dim
            assert rep.gorenstein == p.is_pure()

    run_criterion(1, 1.0, "invariant tables for (2,2,2) and (3,2,4) "
                  "confirmed by enumeration oracles", body)


def test_criterion_02_generator_equivalence():
    def body():
        for m, n, r in SIZES3:
            fams = generators.generator_families(m, n, r)
            union = set().union(*fams.values())
            assert union == set(generators.sorting_relations(m, n, r))
            from doubledet.sorting import in_kernel
            for g in union:
                assert in_kernel(g, m, n, r)
                parts = generators.decompose_into_minors(g, m, n, r)
                assert expansion_oracle(parts) == binomial_as_dict(g)

    run_criterion(2, 5.0, "sorting relations = four families, kernel "
                  "membership, minor decompositions (m,n,r <= 3)", body)


def test_criterion_03_hilbert_agreement():
    def body():
        for m, n, r in SIZES3:
            p = make_pmnr(m, n, r)
            for d in range(5):
                assert (invariants.hilbert_function(m, n, r, d)
                        == invariants.order_preserving_map_count(p, d))
        for m, n, r in SIZES4:
            words = invariants.h_poly_via_words(m, n, r)
            assert words == invariants.h_poly_via_linear_extensions(m, n, r)
            assert words == invariants.h_poly_via_series(m, n, r)

    run_criterion(3, 30.0, "Hilbert function vs order-preserving maps; "
                  "three h-polynomial routes agree (m,n,r <= 4)", body)


def test_criterion_04_macmahon():
    def body():
        for a1 in range(9):
            for a2 in range(9 - a1):
                for a3 in range(9 - a1 - a2):
                    assert invariants.macmahon_check((a1, a2, a3), 8), \
                        (a1, a2, a3)

    run_criterion(4, 10.0, "MacMahon identity for all a1+a2+a3 <= 8 "
                  "to degree 8", body)


def test_criterion_05_facet_catalog():
    def body():
        catalog = list(simplicial.facets(2, 2, 3))
        assert len(catalog) == 12
        assert ({f.vertices for f in catalog}
                == simplicial.maximal_faces_bruteforce(2, 2, 3))
        assert {f.word for f in catalog} == set(PAPER_223_ORDER)
        for f in catalog:
            got = tuple((path[0], path[-1]) for path in f.paths)
            assert got == PAPER_223_ENDPOINTS[f.word], f.word
        for m, n, r in SIZES3 + [(2, 2, 4)]:
            count = 0
            for facet in simplicial.facets(m, n, r):
                assert len(facet.vertices) == m + n + r - 2
                count += 1
            assert count == invariants.multiplicity(m, n, r)

    run_criterion(5, 10.0, "12 facets of (2,2,3) match brute force and the "
                  "published list; counts = multiplicity, pure", body)


def test_criterion_06_word_codec():
    def body():
        facet = simplicial.Facet(4, 5, 3, PAPER_WORD)
        assert facet.vertices == PAPER_FACET
        assert simplicial.facet_from_vertices(PAPER_FACET, 4, 5, 3) == facet
        for sizes in SIZES3 + [(2, 2, 4), (4, 5, 3)]:
            for f in simplicial.facets(*sizes):
                assert simplicial.facet_from_vertices(
                    f.vertices, *sizes) == f
        assert simplicial.extend_to_facet(PAPER_FACE, 4, 5, 3) == facet

    run_criterion(6, 1.0, "word codec reproduces the published (4,5,3) "
                  "facet; roundtrip identity; face extension", body)


def test_criterion_07_groebner():
    def body():
        for m, n, r in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]:
            minors = [mi.binomial for mi in generators.minor_basis(m, n, r)]
            assert groebner.verify_groebner(minors, m, n, r), (m, n, r)
            lts = groebner.initial_ideal_minimal_generators(minors)
            as_pairs = {
                frozenset(simplicial.vertex_for_variable(v, n) for v in mono)
                for mono in lts}
            assert as_pairs == set(simplicial.initial_generators(m, n, r))
        single = [Binomial.make(((1, 1, 1), (2, 2, 1)),
                                ((1, 2, 1), (2, 1, 1)))]
        assert groebner.verify_groebner(single, 2, 2, 2) is False

    run_criterion(7, 60.0, "minors certified as a Groebner basis; leading "
                  "terms = conflict pairs; negative control fails", body)


def test_criterion_08_symmetry():
    def body():
        for m, n, r in SIZES4:
            assert invariants.check_symmetry(m, n, r), (m, n, r)

    run_criterion(8, 30.0, "all invariants symmetric under permuting "
                  "(m,n,r) in {1..4}^3", body)


def test_criterion_09_gorenstein_three_ways():
    def body():
        for m, n, r in SIZES4:
            gor = invariants.is_gorenstein(m, n, r)
            assert gor == invariants.h_poly_via_words(m, n, r).is_palindromic()
            assert gor == make_pmnr(m, n, r).is_pure()

    run_criterion(9, 30.0, "Gorenstein <=> palindromic h-vector <=> pure "
                  "poset for m,n,r <= 4", body)


def test_criterion_10_shelling_evidence():
    def body():
        ordering = [simplicial.Facet(2, 2, 3, w)
                    for w in PAPER_223_ORDER]
        assert simplicial.check_shelling_order(ordering)
        # exploratory only: other adjacent-transposition orders are logged
        # with no pass/fail semantics (the underlying question is open)
        reversed_verdict = simplicial.check_shelling_order(ordering[::-1])
        lex_verdict = simplicial.check_shelling_order(
            list(simplicial.facets(2, 2, 3)))
        print(f"  [exploratory] reversed published order shelling: "
              f"{reversed_verdict}; lexicographic order shelling: "
              f"{lex_verdict}")

    run_criterion(10, 10.0, "published (2,2,3) facet order confirmed as a "
                  "shelling; other orders logged", body)

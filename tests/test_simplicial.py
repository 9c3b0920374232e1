import re
from itertools import combinations
from math import comb

import pytest

from doubledet import simplicial
from doubledet.errors import BudgetExceededError, SizeGuardError
from doubledet.invariants import (h_poly_via_words, minimal_generator_count,
                                  multiplicity)
from doubledet.simplicial import (Facet, all_faces, check_shelling_order,
                                  complex_h_vector, conflicts,
                                  extend_to_facet, extension_word,
                                  facet_from_vertices, facet_word, facets,
                                  initial_generator_count,
                                  initial_generators,
                                  maximal_faces_bruteforce, parse_vertices)

SMALL = [(m, n, r) for m in range(1, 4) for n in range(1, 4)
         for r in range(1, 4)]
UP_TO_4 = [(m, n, r) for m in range(1, 5) for n in range(1, 5)
           for r in range(1, 5)]

# the published (4,5,3) example: word and facet vertex set
PAPER_WORD = "MRMNNNRMN"
PAPER_FACET = {(4, 5), (3, 5), (3, 7), (2, 7), (2, 8), (2, 9), (2, 10),
               (2, 11), (1, 11), (1, 12)}
PAPER_FACE = [(4, 5), (3, 7), (2, 8), (2, 11), (1, 12)]

# the published (2,2,3) facet list: ordered so consecutive words differ by
# one adjacent transposition; each word with its three path endpoints
PAPER_223_ORDER = [
    ("MNRR", (((2, 1), (1, 2)), ((1, 3), (1, 3)), ((1, 5), (1, 5)))),
    ("NMRR", (((2, 1), (1, 2)), ((1, 3), (1, 3)), ((1, 5), (1, 5)))),
    ("NRMR", (((2, 1), (2, 2)), ((2, 3), (1, 3)), ((1, 5), (1, 5)))),
    ("NRRM", (((2, 1), (2, 2)), ((2, 3), (2, 3)), ((2, 5), (1, 5)))),
    ("RNRM", (((2, 2), (2, 2)), ((2, 3), (2, 4)), ((2, 5), (1, 5)))),
    ("RNMR", (((2, 2), (2, 2)), ((2, 3), (1, 4)), ((1, 5), (1, 5)))),
    ("RMNR", (((2, 2), (2, 2)), ((2, 3), (1, 4)), ((1, 5), (1, 5)))),
    ("MRNR", (((2, 2), (1, 2)), ((1, 3), (1, 4)), ((1, 5), (1, 5)))),
    ("MRRN", (((2, 2), (1, 2)), ((1, 4), (1, 4)), ((1, 5), (1, 6)))),
    ("RMRN", (((2, 2), (2, 2)), ((2, 4), (1, 4)), ((1, 5), (1, 6)))),
    ("RRMN", (((2, 2), (2, 2)), ((2, 4), (2, 4)), ((2, 5), (1, 6)))),
    ("RRNM", (((2, 2), (2, 2)), ((2, 4), (2, 4)), ((2, 5), (1, 6)))),
]


def path_endpoints(facet):
    """The first and last vertex of each of the facet's paths."""
    return tuple((path[0], path[-1]) for path in facet.paths)


def is_face(vertices, m, n, r):
    """True iff no pair of the given vertices conflicts; the vertices are
    read, and checked against the board, by the library's one reader."""
    verts, _ = simplicial._read_vertices(vertices, m, n, r)
    return not any(conflicts(a, b, n) for a, b in combinations(verts, 2))


# ----------------------------------------------------------------------
# initial ideal generators

def test_initial_generator_counts():
    assert len(initial_generators(2, 2, 2)) == 9
    assert initial_generators(1, 1, 1) == frozenset()
    assert len(initial_generators(2, 2, 3)) == 24


def test_initial_generators_match_mu():
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(1, 5):
                mu = minimal_generator_count(m, n, r)
                assert initial_generator_count(m, n, r) == mu
                if m * n * r <= 27:
                    assert len(initial_generators(m, n, r)) == mu


def test_generators_are_conflict_pairs():
    for pair in initial_generators(2, 2, 3):
        assert not is_face(pair, 2, 2, 3)


# ----------------------------------------------------------------------
# faces

def test_is_face_examples():
    assert is_face([], 2, 2, 2)
    assert is_face(PAPER_FACE, 4, 5, 3)
    assert not is_face([(1, 1), (2, 2)], 2, 2, 2)


@pytest.mark.parametrize("reader", [is_face, facet_from_vertices,
                                    extend_to_facet])
# row 0, row m + 1, column 0 and column nr + 1 of the 2 x 4 board
@pytest.mark.parametrize("vertex", [(0, 1), (3, 1), (1, 0), (1, 5)])
def test_off_board_vertex_is_named(reader, vertex):
    message = re.escape({
        (0, 1): "vertex (0,1) outside the 2 x 4 board",
        (3, 1): "vertex (3,1) outside the 2 x 4 board",
        (1, 0): "vertex (1,0) outside the 2 x 4 board",
        (1, 5): "vertex (1,5) outside the 2 x 4 board",
    }[vertex])
    with pytest.raises(ValueError, match=message):
        reader([(2, 1), vertex], 2, 2, 2)


def test_face_subsets_of_facets_are_faces():
    for facet in facets(2, 2, 3):
        for size in range(len(facet.vertices) + 1):
            for sub in list(combinations(facet.vertices, size))[:6]:
                assert is_face(sub, 2, 2, 3)


# ----------------------------------------------------------------------
# facet enumeration

def test_facets_223_catalog():
    catalog = list(facets(2, 2, 3))
    assert len(catalog) == 12
    assert [f.word for f in catalog] == sorted(w for w, _ in PAPER_223_ORDER)
    by_word = {f.word: f for f in catalog}
    for word, endpoints in PAPER_223_ORDER:
        assert path_endpoints(by_word[word]) == endpoints, word


def test_facets_degenerate():
    only = list(facets(1, 1, 1))
    assert len(only) == 1
    assert only[0].vertices == {(1, 1)}
    assert only[0].word == ""


def test_facet_count_equals_multiplicity():
    assert sum(1 for _ in facets(4, 5, 3)) == multiplicity(4, 5, 3) == 1260
    for m, n, r in SMALL + [(2, 2, 4)]:
        count = 0
        for facet in facets(m, n, r):
            assert len(facet.vertices) == m + n + r - 2
            count += 1
        assert count == multiplicity(m, n, r)


def test_facets_budget():
    with pytest.raises(BudgetExceededError):
        list(facets(4, 5, 3, budget=100))


def test_facets_are_faces():
    for facet in facets(2, 3, 2):
        assert is_face(facet.vertices, 2, 3, 2)


# ----------------------------------------------------------------------
# the word codec

def test_paper_word_decodes_to_paper_facet():
    facet = Facet(4, 5, 3, PAPER_WORD)
    assert facet.vertices == PAPER_FACET
    assert facet.g == (4, 3, 2, 1)
    assert facet.h == (5, 5, 2, 1)
    assert path_endpoints(facet) == (
        ((4, 5), (3, 5)),
        ((3, 7), (2, 10)),
        ((2, 11), (1, 12)))


def reference_decode(m, n, r, word):
    """The decoder as first written: profiles by recounting each suffix of
    the word, paths by walking the steps from each path's start."""
    subwords = word.split("R")
    suffix = ""
    g, h = [1], [1]
    for sub in reversed(subwords[1:]):
        suffix = sub + suffix
        g.append(1 + suffix.count("M"))
        h.append(1 + suffix.count("N"))
    g = tuple(reversed(g + [m]))
    h = tuple(reversed(h + [n]))
    paths = []
    for k, sub in enumerate(subwords, start=1):
        row, col = g[k - 1], (k - 1) * n + h[k]
        path = [(row, col)]
        for step in sub:
            row, col = (row - 1, col) if step == "M" else (row, col + 1)
            path.append((row, col))
        paths.append(tuple(path))
    return g, h, tuple(paths), frozenset(v for p in paths for v in p)


def test_decoder_matches_reference():
    for m, n, r in UP_TO_4:
        for facet in facets(m, n, r):
            assert (facet.g, facet.h, facet.paths, facet.vertices) == \
                reference_decode(m, n, r, facet.word), facet


def test_paper_facet_encodes_to_paper_word():
    facet = facet_from_vertices(PAPER_FACET, 4, 5, 3)
    assert facet.word == PAPER_WORD


def test_word_validation():
    with pytest.raises(ValueError):
        Facet(2, 2, 3, "MNRX")
    with pytest.raises(ValueError):
        Facet(2, 2, 3, "MMRR")
    with pytest.raises(ValueError):
        Facet(2, 2, 3, "")


def test_single_path_staircase():
    facet = Facet(3, 3, 1, "MMNN")
    assert facet.vertices == {(3, 1), (2, 1), (1, 1), (1, 2), (1, 3)}
    facet = Facet(3, 3, 1, "NNMM")
    assert facet.vertices == {(3, 1), (3, 2), (3, 3), (2, 3), (1, 3)}


def test_roundtrip_everywhere():
    for m, n, r in UP_TO_4 + [(4, 5, 3)]:
        for facet in facets(m, n, r):
            assert facet_word(facet.vertices, m, n, r) == facet.word
            assert facet_from_vertices(facet.vertices, m, n, r) == facet
            assert Facet(m, n, r, facet.word) == facet


def test_facet_from_vertices_rejects_non_facets():
    # a face that is not a facet
    with pytest.raises(ValueError):
        facet_from_vertices(PAPER_FACE, 4, 5, 3)
    # broken path
    with pytest.raises(ValueError):
        facet_from_vertices([(2, 1), (1, 2), (1, 3), (1, 5)], 2, 2, 3)
    # right shape, stray extra point
    with pytest.raises(ValueError):
        facet_from_vertices([(2, 1), (1, 1), (1, 2), (1, 3), (1, 5), (2, 5)],
                            2, 2, 3)
    # a non-face (contains a diagonal)
    with pytest.raises(ValueError):
        facet_from_vertices([(1, 1), (2, 2), (1, 3), (1, 5)], 2, 2, 3)


# ----------------------------------------------------------------------
# extension

def test_extend_paper_example():
    facet = extend_to_facet(PAPER_FACE, 4, 5, 3)
    assert facet.word == PAPER_WORD
    assert facet.vertices == PAPER_FACET


def test_extend_fixes_facets():
    for m, n, r in UP_TO_4:
        for facet in facets(m, n, r):
            assert extension_word(facet.vertices, m, n, r) == facet.word
            assert extend_to_facet(facet.vertices, m, n, r) == facet


def test_extend_empty_face():
    facet = extend_to_facet([], 2, 2, 2)
    assert len(facet.vertices) == 4
    assert is_face(facet.vertices, 2, 2, 2)


def test_extend_every_face_of_223():
    for face in all_faces(2, 2, 3):
        facet = extend_to_facet(face, 2, 2, 3)
        assert face <= facet.vertices


def test_extend_rejects_non_face():
    with pytest.raises(ValueError):
        extend_to_facet([(1, 1), (2, 2)], 2, 2, 2)


@pytest.mark.parametrize("m, n, r", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_extend_raises_exactly_on_non_faces(m, n, r):
    # extend_to_facet runs no is_face check of its own
    verts = [(i, c) for i in range(1, m + 1) for c in range(1, n * r + 1)]
    for mask in range(1 << len(verts)):
        subset = [v for a, v in enumerate(verts) if mask >> a & 1]
        try:
            extend_to_facet(subset, m, n, r)
            raised = False
        except ValueError:
            raised = True
        assert raised != is_face(subset, m, n, r), subset


# ----------------------------------------------------------------------
# brute-force facet oracle

def test_bruteforce_matches_parametric():
    for m, n, r in SMALL + [(2, 2, 4)]:
        brute = maximal_faces_bruteforce(m, n, r)
        param = {f.vertices for f in facets(m, n, r)}
        assert brute == param, (m, n, r)


def test_bruteforce_222_catalog():
    # frozen from an independent subset-filter enumeration
    expected = {
        frozenset(s) for s in [
            [(1, 1), (1, 2), (1, 3), (2, 1)],
            [(1, 2), (1, 3), (1, 4), (2, 2)],
            [(1, 2), (1, 3), (2, 1), (2, 2)],
            [(1, 3), (1, 4), (2, 2), (2, 3)],
            [(1, 3), (2, 1), (2, 2), (2, 3)],
            [(1, 4), (2, 2), (2, 3), (2, 4)],
        ]}
    assert maximal_faces_bruteforce(2, 2, 2) == expected


def test_bruteforce_size_guard():
    with pytest.raises(SizeGuardError):
        maximal_faces_bruteforce(4, 4, 2)


# ----------------------------------------------------------------------
# h-vector of the complex

def test_complex_h_vector():
    assert list(complex_h_vector(2, 2, 2).coeffs) == [1, 4, 1]
    assert list(complex_h_vector(1, 1, 1).coeffs) == [1]
    assert list(complex_h_vector(2, 2, 3).coeffs) == [1, 7, 4]
    for m, n, r in SMALL:
        if m * n * r <= 12:
            assert complex_h_vector(m, n, r) == h_poly_via_words(m, n, r)
    with pytest.raises(SizeGuardError):
        complex_h_vector(3, 3, 3)


# ----------------------------------------------------------------------
# shelling evidence (open question: evaluated, never asserted as theory)

def test_paper_order_is_a_shelling():
    ordering = [Facet(2, 2, 3, w) for w, _ in PAPER_223_ORDER]
    assert check_shelling_order(ordering)


def test_single_facet_is_trivially_shelled():
    assert check_shelling_order(list(facets(1, 1, 1)))
    assert check_shelling_order(list(facets(1, 2, 2)))


def test_shelling_rejects_incomplete_or_mixed():
    catalog = list(facets(2, 2, 3))
    with pytest.raises(ValueError):
        check_shelling_order(catalog[:5])
    with pytest.raises(ValueError):
        check_shelling_order([])
    with pytest.raises(ValueError):
        check_shelling_order(catalog + [catalog[0]])


def test_scrambled_order_result_is_recorded():
    # exploratory: move a far facet to the second slot; we record the
    # verdict without claiming a value for it
    catalog = [Facet(2, 2, 3, w) for w, _ in PAPER_223_ORDER]
    scrambled = [catalog[0], catalog[11], *catalog[1:11]]
    verdict = check_shelling_order(scrambled)
    assert isinstance(verdict, bool)
    print(f"scrambled (2,2,3) order shelling verdict: {verdict}")
    reversed_order = list(reversed(catalog))  # also adjacent-transposition
    print(f"reversed paper order shelling verdict: "
          f"{check_shelling_order(reversed_order)}")


# ----------------------------------------------------------------------
# vertex parsing

def test_parse_vertices():
    assert parse_vertices("(4,5),(3,7)") == [(4, 5), (3, 7)]
    assert parse_vertices("( 1 , 2 )") == [(1, 2)]
    for bad in ["", "4,5", "(4,5],(3,7)", "(4,5) junk"]:
        with pytest.raises(ValueError):
            parse_vertices(bad)

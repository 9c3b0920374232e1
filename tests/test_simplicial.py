import gc
import inspect
import random
import re
import tracemalloc
from collections import deque
from itertools import combinations, islice
from math import comb

import pytest

from doubledet import simplicial
from doubledet.errors import BudgetExceededError, SizeGuardError
from doubledet.invariants import (h_poly_via_words, minimal_generator_count,
                                  multiplicity)
from doubledet.multiset import multiset_permutations
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
# the stream against the word decoder: every board up to 4, and boards
# with long sub-words, many matrices, one row or one column
STREAMED = UP_TO_4 + [(5, 5, 4), (4, 4, 5), (1, 1, 7), (7, 1, 1), (1, 6, 2)]

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
    verts, _ = simplicial.read_face(vertices, m, n, r)
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


def fields(facet):
    return facet.word, facet.g, facet.h, facet.paths, facet.vertices


@pytest.mark.parametrize("m, n, r", STREAMED)
def test_stream_matches_the_word_decoder(m, n, r):
    # the reference lists the words in order and decodes each on its own
    letters = "M" * (m - 1) + "N" * (n - 1) + "R" * (r - 1)
    decoded = [Facet(m, n, r, "".join(word))
               for word in multiset_permutations(letters)]
    assert list(map(fields, facets(m, n, r))) == list(map(fields, decoded))


@pytest.mark.parametrize("m, n", [(1, 1), (4, 4), (3, 5)])
def test_one_matrix_charges_no_table(m, n, monkeypatch):
    # matrix 1 is matrix r: its one box is met once, and never tabled
    def charged(*args):
        raise AssertionError(f"charged {args}")

    monkeypatch.setattr(simplicial, "_charge", charged)
    assert sum(1 for _ in facets(m, n, 1)) == multiplicity(m, n, 1)


def middle_builds(m, n, r, room, monkeypatch):
    """How often the stream builds each middle matrix's (k, box) entries
    with ``room`` units of tables."""
    builds, entries = {}, simplicial._entries

    def counting(k, n, top, right, last):
        if 1 < k < r:
            builds[k, top, right] = builds.get((k, top, right), 0) + 1
        return entries(k, n, top, right, last)

    monkeypatch.setattr(simplicial, "_entries", counting)
    monkeypatch.setattr(simplicial, "TABLED_VERTICES", room)
    deque(facets(m, n, r), maxlen=0)
    monkeypatch.undo()
    return builds


@pytest.mark.parametrize("last", [False, True])
def test_charge_is_what_the_table_holds(last):
    # the closed form against the entries it charges for: 8 per table,
    # 3 per entry and 1 per vertex of the entry's path
    for top in range(1, 8):
        for right in range(1, 8):
            held = list(simplicial._entries(2, 3, top, right, last))
            assert simplicial._charge(top, right, last) == 8 + sum(
                3 + len(path) for *_, path in held), (top, right)


@pytest.mark.parametrize("room", [0, 20, 100])
@pytest.mark.parametrize("m, n, r", [(3, 3, 3), (2, 3, 1), (4, 3, 2),
                                     (3, 3, 4), (2, 3, 5)])
def test_untabled_boxes_stream_the_same(m, n, r, room, monkeypatch):
    # no box tabled, or only the boxes that fit in 20 or 100 units: the
    # rest are built per visit
    expected = list(map(fields, facets(m, n, r)))
    monkeypatch.setattr(simplicial, "TABLED_VERTICES", room)
    assert list(map(fields, facets(m, n, r))) == expected


@pytest.mark.parametrize("m, n, r", [(3, 3, 4), (2, 3, 5)])
def test_held_and_per_visit_middle_tables_mix(m, n, r, monkeypatch):
    # at 100 units, of the middle (k, box) tables met more than once,
    # some are built once (held) and some once per visit
    visits = middle_builds(m, n, r, 0, monkeypatch)
    builds = middle_builds(m, n, r, 100, monkeypatch)
    again = [key for key, count in visits.items() if count > 1]
    assert any(builds[key] == 1 for key in again)
    assert any(builds[key] == visits[key] for key in again)


def overshoot_at(k, monkeypatch):
    """Make ``_step`` overshoot by one column at each right step of
    matrix k only."""
    source = inspect.getsource(simplicial._step)
    mutant = source.replace("col += 1", f"col += 1 + (k == {k})")
    assert mutant != source
    namespace = dict(vars(simplicial))
    exec(mutant, namespace)
    monkeypatch.setattr(simplicial, "_step", namespace["_step"])


@pytest.mark.parametrize("room", [0, simplicial.TABLED_VERTICES])
def test_matrix_r_paths_check_their_corner(room, monkeypatch):
    # matrix 3's paths are built once per box, and the check bites
    overshoot_at(3, monkeypatch)
    monkeypatch.setattr(simplicial, "TABLED_VERTICES", room)
    assert len(list(facets(2, 2, 2))) == 6  # no matrix 3 to walk
    with pytest.raises(ArithmeticError, match="path 3 along"):
        list(facets(2, 2, 3))


@pytest.mark.parametrize("room", [0, simplicial.TABLED_VERTICES])
@pytest.mark.parametrize("r", [3, 4])
def test_middle_matrix_paths_check_their_corner(r, room, monkeypatch):
    # matrix 2 is neither matrix 1 nor matrix r: its paths come from a
    # per-(k, box) table or are built per visit, and the check bites
    overshoot_at(2, monkeypatch)
    monkeypatch.setattr(simplicial, "TABLED_VERTICES", room)
    with pytest.raises(ArithmeticError, match="path 2 along"):
        list(facets(2, 2, r))


def stream_peak(stream):
    """The peak of memory traced while ``stream`` is drained, over what
    was traced before."""
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        deque(stream, maxlen=0)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# one box of 12,870 paths met once, and 79 boxes of up to 79 paths, each
# met once: held, their paths would peak near 15 and 12 MiB
@pytest.mark.parametrize("m, n, r", [(9, 9, 1), (2, 80, 2)])
def test_the_table_is_bounded_whatever_the_catalog(m, n, r):
    peak = stream_peak(facets(m, n, r))
    assert peak < 256 * 2 ** 10, f"peak {peak} B"


def test_many_matrices_keep_the_tables_bounded():
    # the first 2r+2 facets of a 2 x 2 board with r = 200 meet about 3r
    # (k, box) boxes, more than the tables hold; one iterator of entries
    # per matrix is held besides
    peak = stream_peak(islice(facets(2, 2, 200), 402))
    assert peak < 256 * 2 ** 10, f"peak {peak} B"


def test_the_stream_holds_only_its_prefix():
    # 34,650 facets: a per-stream table growing with the catalog shows in
    # the peak, and anything the stream keeps past its end in what is left
    # of its own allocations.  A full collection empties the interpreter's
    # free lists, which tracemalloc counts as live; other modules' gc
    # callbacks may allocate, so only simplicial's allocations are summed
    own = [tracemalloc.Filter(True, simplicial.__file__)]
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        deque(facets(5, 5, 5), maxlen=0)
        gc.collect()
        peak = tracemalloc.get_traced_memory()[1]
        kept = tracemalloc.take_snapshot().filter_traces(own).traces
    finally:
        tracemalloc.stop()
    assert peak - start < 256 * 2 ** 10, f"peak {peak - start} B"
    assert sum(trace.size for trace in kept) == 0


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


@pytest.mark.parametrize("word, message", [
    ("MNRX", "word 'MNRX' uses letters outside M, N, R"),
    ("MNRRX", "word 'MNRRX' uses letters outside M, N, R"),
    ("mnrr", "word 'mnrr' uses letters outside M, N, R"),
    ("MMRR", "word 'MMRR' needs 1 M's, 1 N's, 2 R's"),
])
def test_word_validation_messages(word, message):
    with pytest.raises(ValueError) as caught:
        Facet(2, 2, 3, word)
    assert str(caught.value) == message


def test_single_path_staircase():
    facet = Facet(3, 3, 1, "MMNN")
    assert facet.vertices == {(3, 1), (2, 1), (1, 1), (1, 2), (1, 3)}
    facet = Facet(3, 3, 1, "NNMM")
    assert facet.vertices == {(3, 1), (3, 2), (3, 3), (2, 3), (1, 3)}


def test_roundtrip_everywhere():
    for m, n, r in UP_TO_4 + [(4, 5, 3)]:
        for facet in facets(m, n, r):
            blocks = simplicial.read_face(facet.vertices, m, n, r)[1]
            assert facet_word(blocks, m, n, r) == facet.word
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
    # unbroken paths too short or too long: named as the word they spell
    for vertices, word in [([(1, 1), (1, 3)], "'R', with 0 M's and 0 N's"),
                           ([(1, 1), (1, 2), (1, 3), (1, 4)],
                            "'NRN', with 0 M's and 2 N's")]:
        with pytest.raises(ValueError) as caught:
            facet_from_vertices(vertices, 2, 2, 2)
        assert str(caught.value) == (
            f"vertex set is not a facet: its paths spell {word}, not 1 and 1")


# ----------------------------------------------------------------------
# extension

def test_extend_paper_example():
    facet = extend_to_facet(PAPER_FACE, 4, 5, 3)
    assert facet.word == PAPER_WORD
    assert facet.vertices == PAPER_FACET


def test_extend_fixes_facets():
    for m, n, r in UP_TO_4:
        for facet in facets(m, n, r):
            blocks = simplicial.read_face(facet.vertices, m, n, r)[1]
            assert extension_word(blocks, m, n, r) == facet.word
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


def _extension_error(vertices, m, n, r):
    blocks = simplicial.read_face(vertices, m, n, r)[1]
    with pytest.raises(ValueError) as caught:
        extension_word(blocks, m, n, r)
    return str(caught.value)


def test_extension_word_names_a_bad_anchor_inside_a_block():
    # (1,5) and (2,6) are a diagonal of matrix 3: in-block (1,1) and (2,2)
    assert _extension_error([(2, 4), (1, 5), (2, 6)], 2, 2, 3) == (
        "input is not a face of the complex: no path (1,1)->(2,2) in "
        "matrix 3")


def test_extension_word_names_a_bad_closing_anchor():
    # matrix 2's path must end at row 2 (matrix 3's first point) and
    # column 2 (matrix 1's filler), below its only point (1,3)
    assert _extension_error([(1, 3), (2, 5)], 2, 2, 3) == (
        "input is not a face of the complex: no path (1,1)->(2,2) in "
        "matrix 2")


def reference_extension_word(blocks, m, n, r):
    """The extender as it was written in in-block columns, kept as the
    reference for ``extension_word``'s words and error texts."""
    # each matrix's first point as (row, in-block column), 1-based
    firsts = [(block[0][0], block[0][1] - offset) if block else None
              for offset, block in zip(range(0, n * r, n), blocks)]
    if None in firsts:
        # with no occupied matrix, every matrix lies before the sentinel r
        occupied = [k for k, block in enumerate(blocks) if block] or [r]
        for k in range(occupied[0]):
            firsts[k] = (m, n)
        for c, d in zip(occupied, occupied[1:]):
            for k in range(c + 1, d):
                firsts[k] = (firsts[d][0], firsts[c][1])
        for k in range(occupied[-1] + 1, r):
            firsts[k] = (1, 1)
    word = ""
    end_col, offset = n, 0
    for k, (block, (first_row, first_col)) in enumerate(zip(blocks, firsts),
                                                        start=1):
        if k > 1:
            word += "R"
        r1 = first_row if k > 1 else m
        c1 = (first_col if k < r else 1) + offset
        for r2, c2 in block or ((first_row, first_col + offset),):
            if r1 < r2 or c1 > c2:
                raise reference_no_path(k, offset, r1, c1, r2, c2)
            word += "M" * (r1 - r2) + "N" * (c2 - c1)
            r1, c1 = r2, c2
        r2, c2 = firsts[k][0] if k < r else 1, end_col + offset
        if r1 < r2 or c1 > c2:
            raise reference_no_path(k, offset, r1, c1, r2, c2)
        word += "M" * (r1 - r2) + "N" * (c2 - c1)
        end_col = first_col
        offset += n
    return word


def reference_no_path(k, offset, r1, c1, r2, c2):
    return ValueError("input is not a face of the complex: no path "
                      f"({r1},{c1 - offset})->({r2},{c2 - offset}) "
                      f"in matrix {k}")


def _extension_outcome(extender, vertices, m, n, r):
    """The extender's word for the vertex set, or its error text."""
    blocks = simplicial.read_face(vertices, m, n, r)[1]
    try:
        return extender(blocks, m, n, r)
    except ValueError as exc:
        return f"error: {exc}"


def _sweep_inputs():
    """(vertex set, m, n, r): every face of every board of at most 12
    vertices, every facet of (4, 4, 5), and seeded random vertex sets on
    boards up to 4 x 4 x 5, half of them subsets of a facet (faces) and
    half drawn from the whole board (mostly non-faces)."""
    for m, n, r in [(m, n, r) for m in range(1, 13) for n in range(1, 13)
                    for r in range(1, 13) if m * n * r <= 12]:
        for face in all_faces(m, n, r):
            yield face, m, n, r
    for facet in facets(4, 4, 5):
        yield facet.vertices, 4, 4, 5
    rng = random.Random(30)
    for draw in range(4000):
        m, n, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5)
        if draw % 2:
            pool = sorted(Facet(m, n, r, "".join(rng.sample(
                "M" * (m - 1) + "N" * (n - 1) + "R" * (r - 1),
                m + n + r - 3))).vertices)
        else:
            pool = simplicial.board(m, n, r)
        yield rng.sample(pool, rng.randint(0, len(pool))), m, n, r


def test_extension_word_matches_the_in_block_reference():
    count = errors = 0
    for vertices, m, n, r in _sweep_inputs():
        got = _extension_outcome(extension_word, vertices, m, n, r)
        assert got == _extension_outcome(reference_extension_word, vertices,
                                         m, n, r), (sorted(vertices), m, n, r)
        count += 1
        errors += got.startswith("error: ")
    # the sweep reaches both outcomes, many times each
    assert count > 40_000 and 1_000 < errors < count - 1_000


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

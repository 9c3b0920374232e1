"""The simplicial complex of the diagonal initial ideal.

Variables are drawn on an m x (nr) board: x[i,j,k] sits at (i, (k-1)n + j).
The initial ideal is quadratic and squarefree, so the complex is the
independence complex of a conflict graph on board positions: (i,c) and
(i',c') conflict when the two variables form the diagonal of a minor.

Every facet is a union of r monotone paths, one per matrix, with steps
up (-1,0) and right (0,1); writing the steps as letters M (up) and
N (right) and separating consecutive paths by R encodes each facet as a
word with exactly m-1 M's, n-1 N's and r-1 R's, and this is a bijection.
The word is therefore used as the identity of a facet.  Path k runs from
(g_{k-1}, h_k) to (g_k, h_{k-1}) in matrix k, where g and h drop from m
and n by the M's resp. N's of each sub-word.  ``_step``, the one path
builder, walks path k from the state (g_{k-1}, h_{k-1}) and checks its
corner; ``_assemble``, the one assembler, checks the vertex count.
``Facet`` (one word) and ``facets`` (the catalog) build through both.
``facets`` streams: it holds the current prefix (matrices 1..r-1) and its
pending choices, plus a table of matrix r's paths per box (g_{r-1},
h_{r-1}), since matrix r spends every letter left.  The table holds at
most ``TABLED_VERTICES`` vertices over all its paths, whatever the board,
r and the catalog's size.

A board vertex is a plain ``(row, col)`` tuple.  ``vertex_str`` writes it
as ``(r,c)`` and ``parse_vertices`` reads a list of those back.  Board
column c is column j of matrix k, where c = (k-1)n + j.

``read_face`` is the one reader of a vertex set: it checks each vertex
against the board and groups the set by matrix in path order.  Its
callers (``facet_from_vertices``, ``extend_to_facet`` and the facet walk
of ``doubledet.verify``) read a vertex set once and hand the per-matrix
blocks to ``facet_word``, the one encoder (blocks to word), and to
``extension_word``, the one extender (the blocks of a face to the word of
a facet holding it).  Both return a word and build no ``Facet``, so a
caller holding a facet compares words: an equal word means an equal
vertex set.  ``facet_from_vertices`` and ``extend_to_facet`` decode the
word and check the input's vertices against the facet's.

Each enumeration refuses itself before it walks: ``initial_generators``
over ``errors.MAX_LISTED`` board pairs, the others over a budget or cap.
"""

from __future__ import annotations

import re
from itertools import chain, combinations
from math import comb
from operator import itemgetter

from .errors import (DEFAULT_BUDGET, MAX_LISTED, BudgetExceededError, bound,
                     check_sizes)
from .intpoly import IntPolynomial
# multiset_permutations: unused, bound for bench/tests/test_install.py
from .multiset import multinomial, multiset_permutations  # noqa: F401

#: fixed caps on the board vertices of maximal_faces_bruteforce and all_faces
MAX_BRUTEFORCE_VERTICES = 27
MAX_FACE_VERTICES = 12

_ROW, _COL = itemgetter(0), itemgetter(1)


def vertex_for_variable(v, n):
    """The board vertex (i, (k-1)n + j) of the variable (i, j, k)."""
    i, j, k = v
    return i, (k - 1) * n + j


def _layout(col, n):
    """(k - 1, j - 1) for board column col: column j of matrix k.

    ``read_face`` inlines the same split (block ``(col - 1) // n``) in
    its per-vertex loop.  ``extension_word`` works in board columns and
    inlines it only in its error text (in-block column ``col - k * n``)
    and its fillers' ``k * n`` offsets.  A change of board layout touches
    all three."""
    return divmod(col - 1, n)


def read_face(vertices, m, n, r):
    """The set of ``(row, col)`` vertices given and, for k = 1..r, entry
    k-1 the list of those in matrix k in path order (column ascending, row
    descending): the blocks that ``facet_word`` and ``extension_word``
    take.  Rejects a vertex off the m x nr board, naming the first in path
    order."""
    check_sizes(m, n, r)
    verts = {(row, col) for row, col in vertices}
    # two stable sorts: row descending, then column ascending
    ordered = sorted(verts, key=_ROW, reverse=True)
    ordered.sort(key=_COL)
    width = n * r
    blocks = [[] for _ in range(r)]
    for v in ordered:
        row, col = v
        if not (1 <= row <= m and 1 <= col <= width):
            raise ValueError(
                f"vertex {vertex_str(v)} outside the {m} x {width} board")
        blocks[(col - 1) // n].append(v)
    return verts, blocks


def conflicts(v1, v2, n):
    """True iff the two board positions carry a forbidden (diagonal) pair:
    inside one matrix, both coordinates strictly increase together; across
    matrices, rows increase with the matrix index, or columns do."""
    if v1 == v2:
        return False
    (i1, c1), (i2, c2) = v1, v2
    k1, j1 = _layout(c1, n)
    k2, j2 = _layout(c2, n)
    if k1 > k2:
        (i1, j1, k1), (i2, j2, k2) = (i2, j2, k2), (i1, j1, k1)
    if k1 == k2:
        return (i2 - i1) * (j2 - j1) > 0
    return i1 < i2 or j1 < j2


def initial_generators(m, n, r):
    """All conflicting vertex pairs: the degree-2 squarefree generators of
    the initial ideal, as a set of 2-element frozensets."""
    check_sizes(m, n, r)
    bound(comb(m * n * r, 2), MAX_LISTED, "simplicial.initial_generators",
          "board pairs")
    return frozenset(frozenset(pair)
                     for pair in combinations(board(m, n, r), 2)
                     if conflicts(*pair, n))


def initial_generator_count(m, n, r):
    """Closed form for len(initial_generators): inclusion-exclusion over
    the three conflict conditions."""
    check_sizes(m, n, r)
    return (r * comb(m, 2) * comb(n, 2)
            + comb(r, 2) * comb(m, 2) * n * n
            + comb(r, 2) * comb(n, 2) * m * m
            - comb(r, 2) * comb(m, 2) * comb(n, 2))


def board(m, n, r):
    """All board positions, row-major."""
    check_sizes(m, n, r)
    return [(i, c) for i in range(1, m + 1) for c in range(1, n * r + 1)]


class Facet:
    """One facet, decoded from its step word on {M, N, R}.

    Attributes: ``g`` and ``h`` are the row/column profiles (length r+1,
    weakly decreasing, from m resp. n down to 1); ``paths`` holds the r
    vertex tuples; ``vertices`` is their union, always of size m+n+r-2.
    """

    __slots__ = ("m", "n", "r", "word", "g", "h", "paths", "vertices")

    def __init__(self, m, n, r, word):
        check_sizes(m, n, r)
        counts = (word.count("M"), word.count("N"), word.count("R"))
        if sum(counts) != len(word):
            raise ValueError(f"word {word!r} uses letters outside M, N, R")
        if counts != (m - 1, n - 1, r - 1):
            raise ValueError(
                f"word {word!r} needs {m - 1} M's, {n - 1} N's, {r - 1} R's")
        g, h, paths = [m], [n], []
        for k, sub in enumerate(word.split("R"), start=1):
            bottom, left, path = _step(k, sub, n, g[-1], h[-1])
            g.append(bottom)
            h.append(left)
            paths.append(path)
        _assemble(self, m, n, r, word, tuple(g), tuple(h), tuple(paths),
                  frozenset(chain.from_iterable(paths)))

    def __eq__(self, other):
        if isinstance(other, Facet):
            return (self.m, self.n, self.r, self.word) == (
                other.m, other.n, other.r, other.word)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.n, self.r, self.word))

    def __repr__(self):
        return f"Facet({self.m},{self.n},{self.r},{self.word!r})"


def _step(k, sub, n, top, right):
    """(g_k, h_k, path k) for sub-word ``sub`` of matrix k, walked from the
    state (g_{k-1}, h_{k-1}) = (top, right).  Raises ArithmeticError
    unless the walk ends at its corner (g_k, h_{k-1})."""
    ups = sub.count("M")
    bottom, left = top - ups, right - len(sub) + ups
    offset = (k - 1) * n
    row, col = top, offset + left
    path = [(row, col)]
    for step in sub:
        if step == "M":
            row -= 1
        else:
            col += 1
        path.append((row, col))
    if row != bottom or col != offset + right:
        raise ArithmeticError(f"path {k} along {sub!r} misses its corner")
    return bottom, left, tuple(path)


def _assemble(facet, m, n, r, word, g, h, paths, vertices):
    """``facet`` with its fields set; ``vertices`` is the union of its
    paths.  Raises ArithmeticError unless there are m+n+r-2."""
    facet.m, facet.n, facet.r, facet.word = m, n, r, word
    facet.g, facet.h, facet.paths = g, h, paths
    facet.vertices = vertices
    if len(vertices) != m + n + r - 2:
        raise ArithmeticError(f"{word} has {len(vertices)} vertices")
    return facet


#: the most vertices, summed over its paths, that ``facets``' table of
#: matrix r's paths holds.  A held vertex costs 70-100 bytes (tracemalloc,
#: boxes of 5 x 5 to 2 x 200), so a full table takes at most about
#: 200 KiB; the whole table of a 5 x 5 board, 1,849 vertices in 251
#: paths, fits.  A box that does not fit is built per prefix
TABLED_VERTICES = 2048


def facets(m, n, r, budget=DEFAULT_BUDGET):
    """Yield every facet once, in lexicographic word order (M < N < R).

    ``_prefixes`` yields the words of matrices 1..r-1 in order.  Matrix r
    spends every letter left, so its sub-words and paths depend only on
    its box (g_{r-1}, h_{r-1}): they are built in word order, each path's
    corner checked by ``_step``.  A box first met is kept in a per-box
    table if its paths' vertices, C(top+right-2, top-1) paths of
    top+right-1 each, fit in what the table has left of
    ``TABLED_VERTICES``; any other box's paths are built once per prefix
    and not kept.  Each prefix's facets share its g and h (g_r = h_r =
    1); each facet's vertices are the prefix's set and its path, and
    their count is checked as the facet is assembled.  Besides the table,
    only the current prefix and its pending choices are held.
    """
    check_sizes(m, n, r)
    bound(multinomial((m - 1, n - 1, r - 1)), budget, "simplicial.facets",
          "facets", BudgetExceededError)
    new = Facet.__new__
    table = {}  # box -> matrix r's (sub-word, path) pairs, in word order
    room = TABLED_VERTICES
    for word, g, h, paths in _prefixes(m, n, r):
        box = top, right = g[-1], h[-1]
        tail = table.get(box)
        if tail is None:
            tail = ((sub, _step(r, sub, n, top, right)[2])
                    for sub in _subwords(top - 1, right - 1))
            size = comb(top + right - 2, top - 1) * (top + right - 1)
            if size <= room:
                room -= size
                tail = table[box] = list(tail)
        g, h = g + (1,), h + (1,)
        union = frozenset(chain.from_iterable(paths)).union
        for sub, path in tail:
            yield _assemble(new(Facet), m, n, r, word + sub, g, h,
                            paths + (path,), union(path))


def _prefixes(m, n, r):
    """Yield (word, g, h, paths) for matrices 1..r-1 of every facet, each
    prefix once, in word order: the word with an R after each sub-word,
    g and h up to g_{r-1} and h_{r-1}, and the r-1 paths.

    An odometer: matrix k's state (g_{k-1}, h_{k-1}) leaves g_{k-1}-1 M's
    and h_{k-1}-1 N's, and its choices are the sub-words on at most that
    many, depth first, M before N.  A sub-word comes after its
    extensions, which first differ from it where it has R, as R sorts
    above M and N: so the prefixes come out in order.  A choice's path is
    built, and its corner checked, once per visit of its prefix.
    """
    if r == 1:
        yield "", (m,), (n,), ()
        return
    # the chosen sub-words (each with its R), g, h and paths of matrices
    # 1..k-1
    subs, g, h, paths = [], [m], [n], []
    # sub-words to visit, last pushed first: (k, sub-word, M's and N's
    # left); (k, sub-word, None, None) chooses the sub-word, pushed before
    # its extensions so that it is met after them
    pending = [(1, "", m - 1, n - 1)]
    while pending:
        k, sub, i, j = pending.pop()
        if i is not None:
            pending.append((k, sub, None, None))
            if j:
                pending.append((k, sub + "N", i, j - 1))
            if i:
                pending.append((k, sub + "M", i - 1, j))
            continue
        # choose sub for matrix k: visit every prefix below it
        del subs[k - 1:], g[k:], h[k:], paths[k - 1:]
        bottom, left, path = _step(k, sub, n, g[-1], h[-1])
        subs.append(sub + "R")
        g.append(bottom)
        h.append(left)
        paths.append(path)
        if k + 1 == r:
            yield "".join(subs), tuple(g), tuple(h), tuple(paths)
        else:
            pending.append((k + 1, "", bottom - 1, left - 1))


def _subwords(i, j):
    """Yield the words on exactly i M's and j N's in lexicographic order
    (M < N): once one kind runs out, the other ends the word."""
    pending = [("", i, j)]
    while pending:
        sub, i, j = pending.pop()
        if i and j:
            pending += (sub + "N", i, j - 1), (sub + "M", i - 1, j)
        else:
            yield sub + "M" * i + "N" * j


def facet_word(blocks, m, n, r):
    """The word of the facet whose ``read_face`` blocks are given, read off
    its paths: the one encoder.  Rejects blocks whose paths break; it does
    not check that the word's facet has exactly these vertices
    (``facet_from_vertices`` does)."""
    word = ""
    for k, block in enumerate(blocks, start=1):
        if not block:
            raise ValueError(f"no vertices in matrix {k}: not a facet")
        if k > 1:
            word += "R"
        row, col = block[0]
        for next_row, next_col in block[1:]:
            if next_col == col and next_row == row - 1:
                word += "M"
            elif next_row == row and next_col == col + 1:
                word += "N"
            else:
                raise ValueError(
                    f"vertices {vertex_str((row, col))} and "
                    f"{vertex_str((next_row, next_col))} are not one step "
                    "apart: not a facet")
            row, col = next_row, next_col
    return word


def facet_from_vertices(vertices, m, n, r):
    """Reconstruct a facet from its vertex set; rejects sets that are not
    facets (wrong block structure, broken paths, stray vertices)."""
    verts, blocks = read_face(vertices, m, n, r)
    word = facet_word(blocks, m, n, r)  # r-1 R's, one per block boundary
    ups, rights = word.count("M"), word.count("N")
    if (ups, rights) != (m - 1, n - 1):
        raise ValueError(f"vertex set is not a facet: its paths spell "
                         f"{word!r}, with {ups} M's and {rights} N's, "
                         f"not {m - 1} and {n - 1}")
    facet = Facet(m, n, r, word)
    if facet.vertices != verts:
        raise ValueError("vertex set does not match its path decomposition")
    return facet


def extension_word(blocks, m, n, r):
    """The word of a facet containing the face whose ``read_face`` blocks
    are given: the one extender.  It works in board columns throughout.

    Empty matrices receive one filler point (the (m, n) corner before the
    first occupied matrix, the (1, 1) corner after the last, and between
    occupied matrices c < d the point taking its row from d's first vertex
    and its column from c's first vertex).  Path k runs from (g_{k-1}, h_k)
    to (g_k, h_{k-1}), as in the word decoder: from matrix k's first point
    (row m for k = 1, its matrix's column 1 for k = r) through its points,
    or its filler, to the row of matrix k+1's first point (1 for k = r)
    and the column, one matrix on, of matrix k-1's (n for k = 1).  Gaps
    are bridged up, then right.  Applied to a facet this reproduces its
    word.  Rejects some non-faces on the way; it does not check that the
    word's facet contains the face (``extend_to_facet`` does).
    """
    firsts = [block[0] if block else None for block in blocks]
    if None in firsts:
        # with no occupied matrix, every matrix lies before the sentinel r
        occupied = [k for k, block in enumerate(blocks) if block] or [r]
        for k in range(occupied[0]):
            firsts[k] = (m, n + k * n)
        for c, d in zip(occupied, occupied[1:]):
            for k in range(c + 1, d):
                firsts[k] = (firsts[d][0], firsts[c][1] + (k - c) * n)
        for k in range(occupied[-1] + 1, r):
            firsts[k] = (1, 1 + k * n)
    subs = []
    for k, block in enumerate(blocks):
        sub = ""
        r1 = firsts[k][0] if k else m
        c1 = firsts[k][1] if k < r - 1 else 1 + k * n
        end = (firsts[k + 1][0] if k < r - 1 else 1,
               firsts[k - 1][1] + n if k else n)
        for r2, c2 in [*(block or firsts[k:k + 1]), end]:
            if r1 < r2 or c1 > c2:
                offset = k * n
                raise ValueError("input is not a face of the complex: no "
                                 f"path ({r1},{c1 - offset})->"
                                 f"({r2},{c2 - offset}) in matrix {k + 1}")
            sub += "M" * (r1 - r2) + "N" * (c2 - c1)
            r1, c1 = r2, c2
        subs.append(sub)
    return "R".join(subs)


def extend_to_facet(face_vertices, m, n, r):
    """Grow a face into a facet containing it (see ``extension_word``);
    rejects every input that is not a face."""
    verts, blocks = read_face(face_vertices, m, n, r)
    facet = Facet(m, n, r, extension_word(blocks, m, n, r))
    if not verts <= facet.vertices:  # a subset of a facet is a face
        raise ValueError("input is not a face of the complex")
    return facet


def maximal_faces_bruteforce(m, n, r):
    """Oracle: facets as maximal independent sets of the conflict graph,
    enumerated Bron-Kerbosch style with pivoting on bitmasks."""
    check_sizes(m, n, r)
    verts = board(m, n, r)
    count = len(verts)
    bound(count, MAX_BRUTEFORCE_VERTICES, "simplicial.maximal_faces_bruteforce",
          "vertices")
    # non-neighbors in the conflict graph = admissible companions
    compat = [0] * count
    for a in range(count):
        for b in range(count):
            if a != b and not conflicts(verts[a], verts[b], n):
                compat[a] |= 1 << b
    out = set()

    def expand(chosen, candidates, excluded):
        if not candidates and not excluded:
            out.add(frozenset(verts[a]
                              for a in range(count) if chosen >> a & 1))
            return
        pool = candidates | excluded
        pivot = max(range(count), key=lambda a: ((pool >> a) & 1,
                                                 (candidates & compat[a]).bit_count()))
        rest = candidates & ~compat[pivot]
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            expand(chosen | 1 << a, candidates & compat[a],
                   excluded & compat[a])
            candidates &= ~(1 << a)
            excluded |= 1 << a

    expand(0, (1 << count) - 1, 0)
    return out


def all_faces(m, n, r):
    """Every face of the complex (independent sets, not only maximal)."""
    check_sizes(m, n, r)
    verts = board(m, n, r)
    count = len(verts)
    bound(count, MAX_FACE_VERTICES, "simplicial.all_faces", "vertices")
    faces = []
    current = []

    def grow(start):
        faces.append(frozenset(current))
        for a in range(start, count):
            if all(not conflicts(verts[a], v, n) for v in current):
                current.append(verts[a])
                grow(a + 1)
                current.pop()

    grow(0)
    return faces


def complex_h_vector(m, n, r):
    """h-vector of the complex from its face counts; must coincide with
    the ring's h-polynomial because passing to the initial ideal preserves
    the Hilbert series."""
    check_sizes(m, n, r)
    top = m + n + r - 2
    f = [0] * (top + 1)  # f[s] = number of faces with s vertices
    for face in all_faces(m, n, r):
        f[len(face)] += 1
    h = [sum((-1) ** (j - s) * comb(top - s, j - s) * f[s]
             for s in range(j + 1))
         for j in range(top + 1)]
    return IntPolynomial(h)


def check_shelling_order(ordering):
    """Evaluate the shelling condition on a complete facet ordering: each
    facet must meet every earlier one inside a codimension-one intersection
    with some earlier facet.  Orderings that are not a permutation of all
    facets are rejected."""
    ordering = list(ordering)
    if not ordering:
        raise ValueError("empty ordering")
    m, n, r = ordering[0].m, ordering[0].n, ordering[0].r
    if any((f.m, f.n, f.r) != (m, n, r) for f in ordering):
        raise ValueError("facets from different complexes")
    if (len({f.word for f in ordering}) != len(ordering)
            or len(ordering) != multinomial((m - 1, n - 1, r - 1))):
        raise ValueError("ordering is not a permutation of all facets")
    sets = [f.vertices for f in ordering]
    size = m + n + r - 2
    for j in range(1, len(sets)):
        ridges = [sets[k] & sets[j] for k in range(j)
                  if len(sets[k] & sets[j]) == size - 1]
        for i in range(j):
            meet = sets[i] & sets[j]
            if not any(meet <= ridge for ridge in ridges):
                return False
    return True


def vertex_str(v):
    return f"({v[0]},{v[1]})"


_VERTEX_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_vertices(text):
    """Parse a CLI vertex list like '(4,5),(3,7),(2,8)'."""
    found = _VERTEX_RE.findall(text)
    leftover = _VERTEX_RE.sub("", text).replace(",", "").strip()
    if not found or leftover:
        raise ValueError(f"cannot parse vertex list: {text!r}")
    return [(int(a), int(b)) for a, b in found]

"""The simplicial complex of the diagonal initial ideal.

Variables are drawn on an m x (nr) board: x[i,j,k] sits at (i, (k-1)n + j).
The initial ideal is quadratic and squarefree, so the complex is the
independence complex of a conflict graph on board positions: (i,c) and
(i',c') conflict when the two variables form the diagonal of a minor.

Every facet is a union of r monotone paths, one per matrix, with steps
up (-1,0) and right (0,1); writing the steps as letters M (up) and
N (right) and separating consecutive paths by R encodes each facet as a
word with exactly m-1 M's, n-1 N's and r-1 R's, and this is a bijection.
The word is therefore used as the identity of a facet.

A board vertex is a plain ``(row, col)`` tuple.  ``vertex_str`` writes it
as ``(r,c)`` and ``parse_vertices`` reads a list of those back.  Board
column c is column j of matrix k; ``_layout`` is the one reader of that
split.  ``facet_word`` and ``extension_word`` read their input through
``_read_vertices``, the one place that checks a vertex against the board
and groups a vertex set by matrix in path order.

``facet_word`` is the one encoder (vertex set to word) and
``extension_word`` the one extender (face to the word of a facet holding
it).  Both return a word and build no ``Facet``, so a caller holding a
facet compares words: an equal word means an equal vertex set.
``facet_from_vertices`` and ``extend_to_facet`` wrap them, decode the word
and check the input's vertices against the facet's.
"""

from __future__ import annotations

import re
from math import comb

from .errors import DEFAULT_BUDGET, BudgetExceededError, bound, check_sizes
from .intpoly import IntPolynomial
from .multiset import multinomial, multiset_permutations

#: fixed caps on the board vertices of maximal_faces_bruteforce and all_faces
MAX_BRUTEFORCE_VERTICES = 27
MAX_FACE_VERTICES = 12


def vertex_for_variable(v, n):
    """The board vertex (i, (k-1)n + j) of the variable (i, j, k)."""
    i, j, k = v
    return i, (k - 1) * n + j


def _layout(col, n):
    """(k - 1, j - 1) for board column col: column j of matrix k."""
    return divmod(col - 1, n)


def _read_vertices(vertices, m, n, r):
    """The set of ``(row, col)`` vertices given and, for k = 1..r, entry
    k-1 the list of those in matrix k in path order (column ascending, row
    descending).  Rejects a vertex off the m x nr board."""
    check_sizes(m, n, r)
    verts = {(row, col) for row, col in vertices}
    blocks = [[] for _ in range(r)]
    for v in sorted(verts, key=lambda v: (v[1], -v[0])):
        row, col = v
        if not (1 <= row <= m and 1 <= col <= n * r):
            raise ValueError(
                f"vertex {vertex_str(v)} outside the {m} x {n * r} board")
        blocks[_layout(col, n)[0]].append(v)
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
    verts = board(m, n, r)
    return frozenset(
        frozenset((verts[a], verts[b]))
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
        if conflicts(verts[a], verts[b], n))


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
        if set(word) - set("MNR"):
            raise ValueError(f"word {word!r} uses letters outside M, N, R")
        if (word.count("M"), word.count("N"), word.count("R")) != (
                m - 1, n - 1, r - 1):
            raise ValueError(
                f"word {word!r} needs {m - 1} M's, {n - 1} N's, {r - 1} R's")
        self.m, self.n, self.r, self.word = m, n, r, word
        subwords = word.split("R")
        g, h = [m], [n]
        for sub in subwords:  # path k spends the M's and N's of sub-word k
            g.append(g[-1] - sub.count("M"))
            h.append(h[-1] - sub.count("N"))
        self.g, self.h = tuple(g), tuple(h)
        paths = []
        for k, sub in enumerate(subwords, start=1):
            row, col = g[k - 1], (k - 1) * n + h[k]
            path = [(row, col)]
            for step in sub:
                row, col = (row - 1, col) if step == "M" else (row, col + 1)
                path.append((row, col))
            if path[-1] != (g[k], (k - 1) * n + h[k - 1]):
                raise ArithmeticError(f"path {k} of {word} misses its corner")
            paths.append(tuple(path))
        self.paths = tuple(paths)
        self.vertices = frozenset(v for path in paths for v in path)
        if len(self.vertices) != m + n + r - 2:
            raise ArithmeticError(f"{word} has {len(self.vertices)} vertices")

    def __eq__(self, other):
        if isinstance(other, Facet):
            return (self.m, self.n, self.r, self.word) == (
                other.m, other.n, other.r, other.word)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.n, self.r, self.word))

    def __repr__(self):
        return f"Facet({self.m},{self.n},{self.r},{self.word!r})"


def facets(m, n, r, budget=DEFAULT_BUDGET):
    """Yield every facet once, in lexicographic word order (M < N < R)."""
    check_sizes(m, n, r)
    bound(multinomial((m - 1, n - 1, r - 1)), budget, "simplicial.facets",
          "facets", BudgetExceededError)
    letters = "M" * (m - 1) + "N" * (n - 1) + "R" * (r - 1)
    for word in multiset_permutations(letters):
        yield Facet(m, n, r, "".join(word))


def facet_word(vertices, m, n, r):
    """The word of the facet with this vertex set, read off its paths: the
    one encoder.  Rejects a set whose paths break; it does not check that
    the word's facet has exactly these vertices (``facet_from_vertices``
    does)."""
    _, blocks = _read_vertices(vertices, m, n, r)
    words = []
    for k, block in enumerate(blocks, start=1):
        if not block:
            raise ValueError(f"no vertices in matrix {k}: not a facet")
        steps = []
        for a, b in zip(block, block[1:]):
            delta = (b[0] - a[0], b[1] - a[1])
            if delta == (-1, 0):
                steps.append("M")
            elif delta == (0, 1):
                steps.append("N")
            else:
                raise ValueError(f"vertices {vertex_str(a)} and "
                                 f"{vertex_str(b)} are not one step apart: "
                                 "not a facet")
        words.append("".join(steps))
    return "R".join(words)


def facet_from_vertices(vertices, m, n, r):
    """Reconstruct a facet from its vertex set; rejects sets that are not
    facets (wrong block structure, broken paths, stray vertices)."""
    verts, _ = _read_vertices(vertices, m, n, r)
    facet = Facet(m, n, r, facet_word(verts, m, n, r))
    if facet.vertices != verts:
        raise ValueError("vertex set does not match its path decomposition")
    return facet


def extension_word(face_vertices, m, n, r):
    """The word of a facet containing the face: the one extender.

    Vertices are grouped by matrix; empty matrices receive one filler point
    (the (m, n) corner before the first occupied matrix, the (1, 1) corner
    after the last, and between occupied matrices c < d the point taking
    its row from d's first vertex and its column from c's first vertex).
    Inside each matrix, consecutive anchor points are then bridged moving
    up first, then right.  Applied to a facet this reproduces its word.
    Rejects some non-faces on the way; it does not check that the word's
    facet contains the face (``extend_to_facet`` does).
    """
    _, grouped = _read_vertices(face_vertices, m, n, r)
    # per-matrix points in path order, as (row, in-block column); 1-based
    blocks = [None] + [[(row, _layout(col, n)[1] + 1) for row, col in block]
                       for block in grouped]
    occupied = [k for k in range(1, r + 1) if blocks[k]]
    if not occupied:
        for k in range(1, r + 1):
            blocks[k] = [(m, n)]
    else:
        first, last = occupied[0], occupied[-1]
        for k in range(1, r + 1):
            if blocks[k]:
                continue
            if k < first:
                blocks[k] = [(m, n)]
            elif k > last:
                blocks[k] = [(1, 1)]
            else:
                c = max(q for q in occupied if q < k)
                d = min(q for q in occupied if q > k)
                blocks[k] = [(blocks[d][0][0], blocks[c][0][1])]
    g = [m] + [blocks[k + 1][0][0] for k in range(1, r)] + [1]
    h = [n] + [blocks[k][0][1] for k in range(1, r)] + [1]
    words = []
    for k in range(1, r + 1):
        anchors = [(g[k - 1], h[k])] + blocks[k] + [(g[k], h[k - 1])]
        steps = []
        for (r1, c1), (r2, c2) in zip(anchors, anchors[1:]):
            if r1 < r2 or c1 > c2:
                raise ValueError("input is not a face of the complex: no "
                                 f"path ({r1},{c1})->({r2},{c2}) in matrix {k}")
            steps.append("M" * (r1 - r2) + "N" * (c2 - c1))
        words.append("".join(steps))
    return "R".join(words)


def extend_to_facet(face_vertices, m, n, r):
    """Grow a face into a facet containing it (see ``extension_word``);
    rejects every input that is not a face."""
    verts, _ = _read_vertices(face_vertices, m, n, r)
    facet = Facet(m, n, r, extension_word(verts, m, n, r))
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

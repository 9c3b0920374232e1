"""Finite posets with a natural labeling.

Elements are the integers 0..n-1; the natural label of element ``e`` is
``e + 1``, and every stored order must satisfy ``a`` < ``b`` (as ints)
whenever ``a`` precedes ``b``.  The order is stored as its transitive
closure, one bitmask of strict successors per element (n^2 / 8 bytes in
all), plus its cover relation, both derived once at construction.
Order ideals are frozensets of elements, linear extensions are tuples of
elements (the sequence in which the elements are listed), and all
iteration orders are lexicographic in the labels, so repeated runs
produce identical output.
"""

from __future__ import annotations

from .errors import check_sizes


class Poset:
    """Immutable finite poset on 0..n-1 with the identity natural labeling.

    ``relations`` is any iterable of pairs (a, b) meaning a precedes-or-equals
    b; the transitive closure is taken automatically.  Pairs with a > b are
    rejected, which forces the labeling to be natural and makes cycles
    impossible.
    """

    def __init__(self, n, relations=()):
        if n < 0:
            raise ValueError("poset size must be nonnegative")
        self.n = n
        up = [set() for _ in range(n)]
        for a, b in relations:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"element out of range: ({a}, {b})")
            if a > b:
                raise ValueError(
                    f"relation {a + 1} < {b + 1} violates the natural labeling")
            if a != b:
                up[a].add(b)
        # one pass in reverse label order yields the closure and the covers,
        # as edges point upward in label.  A given successor b of a is a
        # cover unless it lies above a smaller given successor; anything
        # strictly between a and b has a smaller label than b.  Bit b of
        # closure[a] is set iff a strictly precedes b.
        covers, lower = [], [set() for _ in range(n)]
        closure = [0] * n
        for a in range(n - 1, -1, -1):
            acc = 0
            for b in sorted(up[a]):
                if not acc >> b & 1:
                    covers.append((a, b))
                    lower[b].add(a)
                    acc |= 1 << b | closure[b]
            closure[a] = acc
        self._up = tuple(closure)
        self._covers = tuple(sorted(covers))
        self._lower = tuple(frozenset(s) for s in lower)

    def lower_covers(self, a):
        """The elements a covers: its predecessors with nothing between."""
        return self._lower[a]

    def __eq__(self, other):
        if isinstance(other, Poset):
            return self.n == other.n and self._up == other._up
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._up))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"

    def covers(self):
        """Sorted cover pairs (a, b): a < b with nothing strictly between."""
        return list(self._covers)

    # ------------------------------------------------------------------
    # ideals, extensions, chain statistics

    def order_ideals(self):
        """All downward closed subsets, in lexicographic order of their
        sorted label tuples (the empty ideal first).

        Under inclusion these form a distributive lattice: the union and
        the intersection of ideals are again ideals.
        """
        ideals = {frozenset()}
        # after step e, every ideal inside {0..e}: e is maximal in those
        # holding it (labels are natural), so they come from step e-1
        for e in range(self.n):
            ideals |= {ideal | {e} for ideal in ideals
                       if self._lower[e] <= ideal}
        return sorted(ideals, key=sorted)

    def linear_extensions(self):
        """Yield every linear extension once, lexicographically.

        An extension is a tuple listing all elements so that no element
        appears before one of its predecessors.  The placed elements always
        form an order ideal, so an element is ready once its lower covers
        are placed.  This listing is the brute-force oracle for
        ``invariants.poset_descent_polynomial``, which never calls it.
        """
        below = self._lower
        placed, seq = set(), []  # seq: placed in the order placed
        stack = [iter(range(self.n))]  # per depth: the elements left to try
        while stack:
            if len(seq) == self.n:
                yield tuple(seq)
            for e in stack[-1]:
                if e not in placed and below[e] <= placed:
                    placed.add(e)
                    seq.append(e)
                    stack.append(iter(range(self.n)))
                    break
            else:
                stack.pop()
                if seq:
                    placed.discard(seq.pop())

    def width(self):
        """Largest antichain, via Dilworth: n minus a maximum matching of
        the strict order viewed as a bipartite graph."""
        match = [-1] * self.n  # match[b] = a chained below b
        above = [[b for b in range(a + 1, self.n) if up >> b & 1]
                 for a, up in enumerate(self._up)]

        def augment(a, seen):
            for b in above[a]:
                if b in seen:
                    continue
                seen.add(b)
                if match[b] == -1 or augment(match[b], seen):
                    match[b] = a
                    return True
            return False

        matched = sum(1 for a in range(self.n) if augment(a, set()))
        return self.n - matched

    def rank(self):
        """Length (edge count) of the longest chain; -1 for the empty poset."""
        height = [0] * self.n
        for b in range(self.n):
            for a in self._lower[b]:
                height[b] = max(height[b], height[a] + 1)
        return max(height, default=-1)

    def is_pure(self):
        """True iff all maximal chains have the same length.

        Computed by propagating, along cover edges, the set of saturated
        chain lengths from minimal elements (kept as bitmasks); the empty
        poset counts as pure.
        """
        # bit k of lengths[e]: a saturated chain of length k ends at e
        lengths = [int(not below) for below in self._lower]
        for e in range(self.n):
            for a in self._lower[e]:
                lengths[e] |= lengths[a] << 1
        top = 0
        for e in range(self.n):
            if not self._up[e]:  # maximal element
                top |= lengths[e]
        return top.bit_count() <= 1


def make_pmnr(m, n, r):
    """The poset of three disjoint chains with m-1, n-1 and r-1 elements.

    Labels run along the first chain, then the second, then the third,
    increasing upward inside each chain.
    """
    check_sizes(m, n, r)
    sizes = (m - 1, n - 1, r - 1)
    relations = []
    start = 0
    for size in sizes:
        relations.extend((e, e + 1) for e in range(start, start + size - 1))
        start += size
    return Poset(sum(sizes), relations)


def pmnr_chain_ranges(m, n, r):
    """Element index ranges of the three chains of make_pmnr(m, n, r)."""
    a = m - 1
    b = a + n - 1
    c = b + r - 1
    return range(0, a), range(a, b), range(b, c)


# ----------------------------------------------------------------------
# text format: first line "n=<count>", then one "a < b" cover relation per
# line, in natural (1-based) labels

def parse_poset_text(text):
    """The element count n and the cover pairs, 0-based, of a poset in the
    text format; the order itself is not built."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("poset file must start with 'n=<count>'")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad element count: {lines[0]!r}") from None
    relations = []
    for ln in lines[1:]:
        parts = ln.split("<")
        if len(parts) != 2:
            raise ValueError(f"bad cover relation line: {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad cover relation line: {ln!r}") from None
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"label out of range in line: {ln!r}")
        relations.append((a - 1, b - 1))
    return n, relations

"""Finite posets with a natural labeling.

Elements are the integers 0..n-1; the natural label of element ``e`` is
``e + 1``, and every stored order must satisfy ``a`` < ``b`` (as ints)
whenever ``a`` precedes ``b``.  The order is stored as its transitive
closure, one bitmask of strict successors per element (n^2 / 8 bytes in
all), plus its cover relation, both derived once at construction.  A set
of elements is a bitmask (bit e for element e), and order ideals are
bitmasks too.  The covers are kept in two forms: ``below`` holds each
element's lower covers as a bitmask, which the ideal sweeps (here, in
``grid`` and in ``invariants``), the linear extensions and the purity
test read; ``_above`` holds each element's upper covers in increasing
order, which the two ready-set walks (``linear_extensions`` and the
descent route of ``invariants``) and ``covers()`` read.  Linear
extensions are tuples of elements (the sequence in which the elements are
listed), listed lexicographically, so repeated runs produce identical
output.
"""

from __future__ import annotations

from .errors import bound, check_sizes

#: fixed cap on the ideals ``Poset.order_ideals`` lists
MAX_IDEALS = 10_000


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
        above, below = [[] for _ in range(n)], [0] * n
        closure = [0] * n
        for a in range(n - 1, -1, -1):
            acc = 0
            for b in sorted(up[a]):
                if not acc >> b & 1:
                    above[a].append(b)
                    below[b] |= 1 << a
                    acc |= 1 << b | closure[b]
            closure[a] = acc
        self._up = tuple(closure)
        #: _above[a]: the upper covers of a, increasing
        self._above = tuple(map(tuple, above))
        #: bit a of below[b] is set iff b covers a
        self.below = tuple(below)

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
        return [(a, b) for a, bs in enumerate(self._above) for b in bs]

    # ------------------------------------------------------------------
    # ideals, extensions, chain statistics

    def order_ideals(self):
        """All downward closed subsets, as bitmasks, the empty ideal first.

        Under inclusion these form a distributive lattice: the union and
        the intersection of ideals are again ideals.  SizeGuardError once
        the list passes MAX_IDEALS, so at most twice that are listed.
        Each step scans only the ideals that can hold e's lower covers: on
        a union of chains, such as P_mnr, a step scans the ideals of the
        step before, or all ideals at a chain's bottom, so the listing
        makes at most (chains + 1) mask tests per ideal.
        """
        ideals, starts = [0], []  # starts[x]: where step x's ideals begin
        # after step e, every ideal inside {0..e}: e is maximal in those
        # holding it (labels are natural), so they come from step e-1.  An
        # ideal holding e's lower covers holds the largest of them, x, and
        # every ideal holding x was listed at step x or later
        for e, need in enumerate(self.below):
            first = starts[need.bit_length() - 1] if need else 0
            starts.append(len(ideals))
            ideals += [i | 1 << e for i in ideals[first:] if i & need == need]
            bound(len(ideals), MAX_IDEALS, "poset.order_ideals", "ideals")
        return ideals

    def linear_extensions(self):
        """Yield every linear extension once, lexicographically.

        An extension is a tuple listing all elements so that no element
        appears before one of its predecessors.  The placed elements always
        form an order ideal, so an element is ready once its lower covers
        are placed.  The walk keeps the ready elements as a bitmask: placing
        e clears e's bit and sets each upper cover of e whose lower covers
        are now all placed, and each depth tries its ready bits lowest
        first: a step costs e's covers, not a scan of every element.  This
        listing is the oracle of ``invariants.poset_descent_polynomial``.
        """
        n, below, above = self.n, self.below, self._above
        ready = sum(1 << e for e, need in enumerate(below) if not need)
        placed, seq = 0, []  # seq: placed in the order placed
        stack = [(ready, ready)]  # per depth: ready elements, those untried
        while stack:
            if len(seq) == n:
                yield tuple(seq)
            ready, left = stack.pop()
            if left:
                low = left & -left
                stack.append((ready, left ^ low))
                e = low.bit_length() - 1
                placed |= low
                seq.append(e)
                ready ^= low
                for b in above[e]:
                    if below[b] & placed == below[b]:
                        ready |= 1 << b
                stack.append((ready, ready))
            elif seq:
                placed ^= 1 << seq.pop()

    def width(self):
        """Largest antichain, via Dilworth: n minus a maximum matching of
        the strict order viewed as a bipartite graph.  The matching grows
        by one augmenting path per element, searched depth first on an
        explicit stack, so a long path costs no recursion."""
        up, match = self._up, [-1] * self.n  # match[b] = a chained below b
        # bit b: b was visited since the matching last grew; a failed
        # search changes nothing, so what it visited stays a dead end
        seen = matched = 0
        for root in range(self.n):
            tails, heads = [root], []  # the path so far: tails[i] < heads[i]
            while tails:
                free = up[tails[-1]] & ~seen
                if not free:  # a dead end: back up one edge
                    tails.pop()
                    del heads[-1:]
                    continue
                low = free & -free
                seen |= low
                b = low.bit_length() - 1
                heads.append(b)
                if match[b] == -1:  # each tail on the path takes its head
                    for a, b in zip(tails, heads):
                        match[b] = a
                    seen, matched = 0, matched + 1
                    break
                tails.append(match[b])
        return self.n - matched

    def rank(self):
        """Length (edge count) of the longest chain; -1 for the empty poset."""
        height = [0] * self.n
        # sorted by lower end, so a's height is final before (a, b)
        for a, b in self.covers():
            height[b] = max(height[b], height[a] + 1)
        return max(height, default=-1)

    def is_pure(self):
        """True iff all maximal chains have the same length.

        Computed by propagating, along cover edges, the set of saturated
        chain lengths from minimal elements (kept as bitmasks); the empty
        poset counts as pure.
        """
        # bit k of lengths[e]: a saturated chain of length k ends at e
        lengths = [int(not need) for need in self.below]
        for a, b in self.covers():
            lengths[b] |= lengths[a] << 1
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
    chains = pmnr_chain_ranges(m, n, r)
    return Poset(chains[-1].stop,
                 [(e, e + 1) for chain in chains for e in chain[:-1]])


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
        if a == b:  # no element covers itself
            raise ValueError(f"bad cover relation line: {ln!r}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"label out of range in line: {ln!r}")
        relations.append((a - 1, b - 1))
    return n, relations

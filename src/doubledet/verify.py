"""The cross-verification harness behind ``doubledet verify``.

Every closed form (generator count, multiplicity, Gorenstein criterion,
h-polynomial, facet catalog, ...) is re-derived by an independent
enumeration oracle.  The checks come in three cumulative levels:
``formulas`` < ``complex`` < ``groebner``.  ``run_checks`` yields each
check's outcome as the check returns, so a caller can write it before the
next check starts.

The check contract.  A check is a function of no arguments.  It returns a
detail string when the closed form and its oracle agree, and otherwise
fails by raising; ``run_checks`` maps what it raises to a status:

* ``CheckFailed``: the two disagree -> ``FAIL``;
* ``SizeGuardError`` and its subclass ``BudgetExceededError``: the
  oracle's work exceeds a fixed cap or ``--budget`` -> ``skip``, so a
  budget never ends a run; the detail names the layer and the count.
  ``--budget`` bounds only what a check lists one by one: the facets,
  the extensions ``multiplicity-extensions`` lists, and the S-pairs.  A
  recursion that lists nothing (the h-polynomial routes, the ideal
  multichain count) is bounded by its own fixed caps alone.  A listing
  shared by checks guards itself, and its skips name it, not the check;
* ``AssertionError``, ``ArithmeticError`` or any other ``ValueError``
  raised inside the library: an invariant of a library object is broken,
  or the library rejects its own output (a facet encoder that refuses a
  facet) -> ``FAIL``, never an exit as if the input were invalid;
* ``LookupError`` (``IndexError``, ``KeyError``) raised inside the
  library: a closed form or an oracle reads past what it built (a
  series cut one term short, a count read from a key it never set) ->
  ``FAIL``, never a traceback.

A check never uses ``assert``, so it gives the same verdict under
``python -O``.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from . import generators, grid, invariants, poset, simplicial, sorting
from .errors import (LEVELS, MAX_LISTED, BudgetExceededError, CheckFailed,
                     SizeGuardError, bound)
from .intpoly import IntPolynomial
from .multiset import descents, multinomial
from .ring import Binomial


class Outcome(NamedTuple):
    name: str
    status: str  # "ok", "skip" or "FAIL"
    detail: str


def _require(condition, detail):
    if not condition:
        raise CheckFailed(detail)


def _entries_at_positions(minor, m, n):
    """The grid points at a minor's printed rows and columns, in its
    ``entries`` layout, read back through the inverse of the H and V
    layouts: column c of H is column (c - 1) % n + 1 of matrix
    (c - 1) // n + 1, and row c of V splits the same way with m."""
    (row1, row2), (col1, col2) = minor.rows, minor.cols
    if minor.source == "H":
        (k1, j1), (k2, j2) = divmod(col1 - 1, n), divmod(col2 - 1, n)
        return ((row1, j1 + 1, k1 + 1), (row1, j2 + 1, k2 + 1),
                (row2, j1 + 1, k1 + 1), (row2, j2 + 1, k2 + 1))
    (k1, i1), (k2, i2) = divmod(row1 - 1, m), divmod(row2 - 1, m)
    return ((i1 + 1, col1, k1 + 1), (i1 + 1, col2, k1 + 1),
            (i2 + 1, col1, k2 + 1), (i2 + 1, col2, k2 + 1))


def build_checks(m, n, r, level, budget):
    """The ordered ``(name, check)`` pairs up to ``level`` for one size."""
    want = LEVELS.index(level)
    checks = []

    def check(name, tier=0):
        def add(fn):
            if tier <= want:
                checks.append((name, fn))
            return fn
        return add

    # listings shared by the checks that read them; a build that raises
    # (a listing over its cap) is not cached
    @functools.cache
    def families():
        return generators.generator_families(m, n, r)

    @functools.cache
    def minors():
        """The minors' binomials, all that their readers use, and the
        first minor whose printed rows and columns do not hold its entries
        (None if every one does), which ``kernel-membership`` reports."""
        listed = generators.minor_basis(m, n, r)
        misplaced = next((mi for mi in listed
                          if _entries_at_positions(mi, m, n) != mi.entries),
                         None)
        return [mi.binomial for mi in listed], misplaced

    @functools.cache
    def relations():
        """The sorting relations, for the two checks that read them; below
        the groebner tier the first is the last, and drops the listing."""
        return generators.sorting_relations(m, n, r)

    @functools.cache
    def conflict_pairs():
        return simplicial.initial_generators(m, n, r)

    @check("ideal-count")
    def ideal_count():
        bound(m * n * r, poset.MAX_IDEALS, "verify.ideal_count", "ideals")
        count = len(poset.make_pmnr(m, n, r).order_ideals())
        _require(count == m * n * r, f"{count} != {m * n * r}")
        return f"{count} ideals"

    @check("lattice-isomorphism")
    def lattice_iso():
        _require(grid.lattice_isomorphic_to_ideals(m, n, r),
                 "map not an isomorphism")
        return "ideal lattice is the grid"

    @check("comparable-pairs")
    def comparable_pairs():
        total = m * n * r
        bound(total * (total + 1) // 2, 500 * 501 // 2,
              "verify.comparable_pairs", "point pairs")
        points = grid.grid_points(m, n, r)
        brute = sum(1 for a in range(len(points))
                    for b in range(a, len(points))
                    if grid.comparable(points[a], points[b]))
        closed = grid.count_comparable_pairs(m, n, r)
        _require(brute == closed, f"{brute} != {closed}")
        return f"{closed} comparable pairs"

    @check("generator-count")
    def generator_count():
        sizes = generators.family_sizes(m, n, r)
        mu = invariants.minimal_generator_count(m, n, r)
        _require(sum(sizes.values()) == mu, f"{sizes} vs mu={mu}")
        return f"mu = {mu}"

    @check("families-vs-sorting-relations")
    def families_match():
        fams = families()
        sizes = generators.family_sizes(m, n, r)
        for key, val in fams.items():
            _require(len(val) == sizes[key],
                     f"{key}: {len(val)} != {sizes[key]}")
        union = set().union(*fams.values())
        rels = set(relations())
        if want < 2:  # the last reader: relations-reduce-to-zero is not run
            relations.cache_clear()
        _require(union == rels, "families differ from sorting relations")
        mu = invariants.minimal_generator_count(m, n, r)
        _require(len(rels) == mu, f"{len(rels)} relations vs mu={mu}")
        return f"{len(rels)} relations in 4 families"

    @check("kernel-membership")
    def kernel_membership():
        points = grid.grid_points(m, n, r)
        bound(comb(len(points) + 1, 2), MAX_LISTED,
              "verify.kernel_membership", "monomials")
        for key, val in families().items():
            _require(all(sorting.in_kernel(b, m, n, r) for b in val),
                     f"a {key} generator is not in the kernel")
        listed, misplaced = minors()
        expected = generators.minor_count(m, n, r)
        _require(len(listed) == expected,
                 f"{len(listed)} minors, closed form {expected}")
        _require(misplaced is None,
                 f"{misplaced} does not sit at its printed rows and columns")
        binomials = set(listed)
        _require(len(binomials) == len(listed), "a minor is listed twice")
        _require(all(sorting.in_kernel(b, m, n, r) for b in binomials),
                 "a minor is not in the kernel")
        # phi itself: one fibre per basis monomial of (R/ker phi)_2, and
        # the kernel test tells the fibres apart
        fibres = {sorting.phi_monomial(term, m, n, r): term
                  for term in combinations_with_replacement(points, 2)}
        hf = invariants.hilbert_function(m, n, r, 2)
        _require(len(fibres) == hf, f"{len(fibres)} degree-2 fibres of "
                                    f"phi, Hilbert function {hf}")
        reps = list(fibres.values())
        _require(not any(sorting.in_kernel(Binomial.make(a, b), m, n, r)
                         for a, b in zip(reps, reps[1:])),
                 "a binomial joining two fibres of phi is in the kernel")
        return f"{len(listed)} minors and all generators in the kernel"

    @check("minor-decomposition")
    def decompositions():
        fams = families()
        total = 0
        for val in fams.values():
            for b in val:
                generators.decompose_into_minors(b, m, n, r)
                total += 1
        return f"{total} generators decomposed into minors"

    @check("multiplicity-extensions")
    def extensions_count():
        mult = invariants.multiplicity(m, n, r)
        bound(mult, budget, "verify.extensions_count", "extensions",
              BudgetExceededError)
        # the one listing of the extensions: the brute-force h-polynomial
        p = poset.make_pmnr(m, n, r)
        coeffs = [0] * max(1, p.n)
        for ext in p.linear_extensions():
            coeffs[descents(ext)] += 1
        count = sum(coeffs)
        _require(count == mult, f"{count} != {mult}")
        brute = IntPolynomial(coeffs)
        h = invariants.h_poly_via_linear_extensions(m, n, r)
        _require(brute == h, f"listed extensions give {brute}, "
                             f"the recursion {h}")
        return f"{count} linear extensions = multiplicity"

    @check("poset-stats")
    def poset_stats():
        report = invariants.compute_invariants(m, n, r)
        p = poset.make_pmnr(m, n, r)
        expected_rank = -1 if p.n == 0 else max(m, n, r) - 2
        expected_width = sum(1 for s in (m, n, r) if s > 1)
        rank, width, pure = p.rank(), p.width(), p.is_pure()
        _require(rank == expected_rank, f"rank {rank} != {expected_rank}")
        _require(width == expected_width, f"width {width} != {expected_width}")
        _require(pure == report.gorenstein,
                 f"pure={pure} but gorenstein={report.gorenstein}")
        # the Hibi ring of J(P) has dim |P| + 1 and a = -(rank P + 2)
        _require(report.dim == p.n + 1, f"dim {report.dim} != {p.n + 1}")
        _require(report.a_invariant == -(rank + 2),
                 f"a-invariant {report.a_invariant} != {-(rank + 2)}")
        return f"rank {rank}, width {width}, pure={str(pure).lower()}"

    @check("hilbert-oracle")
    def hilbert_oracle():
        # both sides are polynomials in d of degree |P| = dim - 1, so
        # agreeing at d = 0..dim-1 they agree at every d
        p = poset.make_pmnr(m, n, r)
        counts = invariants.order_preserving_map_counts(p, p.n)
        for d, oracle in enumerate(counts):
            closed = invariants.hilbert_function(m, n, r, d)
            _require(closed == oracle, f"d={d}: {closed} != {oracle}")
        return (f"order-preserving map counts match for d = 0..{p.n} "
                "(dim - 1) and so for every d")

    @check("h-poly-agreement")
    def hpoly_agreement():
        report = invariants.compute_invariants(m, n, r)
        words = invariants.h_poly_via_words(m, n, r)
        exts = invariants.h_poly_via_linear_extensions(m, n, r)
        series = invariants.h_poly_via_series(m, n, r)
        _require(words == exts == series, f"{words} / {exts} / {series}")
        _require(words.degree == report.regularity,
                 f"deg h = {words.degree} != regularity {report.regularity}")
        _require(words(1) == report.multiplicity,
                 f"h(1) = {words(1)} != multiplicity {report.multiplicity}")
        _require(words.is_palindromic() == report.gorenstein,
                 f"palindromic={words.is_palindromic()} but "
                 f"gorenstein={report.gorenstein}")
        return f"h = {words}"

    @check("macmahon")
    def macmahon():
        report = invariants.compute_invariants(m, n, r)
        _require(invariants.macmahon_check((m - 1, n - 1, r - 1),
                                           report.regularity + 2),
                 "descent count differs from binomial series")
        return "descent count matches binomial series"

    @check("symmetry")
    def symmetry():
        _require(invariants.check_symmetry(m, n, r),
                 "invariants change under a permutation of (m, n, r)")
        return "invariants symmetric in (m, n, r)"

    # --- complex tier ---------------------------------------------------

    # one walk over the catalog feeds the three facet-stream checks, so
    # each facet is decoded once; a walk that raises (a budget refusal) is
    # not cached, and each of the three reports it
    @functools.cache
    def facet_walk():
        """The facet count and, per check, the detail of its first failing
        facet.  Each word must exceed the one before it, so the count is
        of distinct facets.  A re-encoded word equal to the facet's word
        means an equal vertex set, so no second ``Facet`` is built."""
        dim = invariants.compute_invariants(m, n, r).dim
        recoders = (
            ("word-codec-roundtrip", simplicial.facet_word,
             "roundtrip failed for"),
            ("extend-fixes-facets", simplicial.extension_word,
             "extension moves"))
        count, failed, previous = 0, {}, None
        for facet in simplicial.facets(m, n, r, budget=budget):
            count += 1
            word, verts = facet.word, facet.vertices
            if previous is not None and word <= previous:
                failed.setdefault("facet-count-purity", f"facet {word} "
                                  f"does not follow {previous} in word order")
            previous = word
            if len(verts) != dim:
                failed.setdefault("facet-count-purity", f"facet {word} has "
                                  f"size {len(verts)}, dim {dim}")
            try:  # one read feeds both recoders; if it raises, both fail
                blocks = simplicial.read_face(verts, m, n, r)[1]
            except ValueError as exc:
                for name, _, what in recoders:
                    failed.setdefault(name, f"{what} {word}: {exc}")
                continue
            for name, recode, what in recoders:
                if name in failed:
                    continue
                try:  # a recoder that raises fails its own check only
                    if recode(blocks, m, n, r) != word:
                        failed[name] = f"{what} {word}"
                except ValueError as exc:
                    failed[name] = f"{what} {word}: {exc}"
        return count, failed

    def walk_verdict(name):
        """The facet count, unless the walk failed the check ``name``."""
        count, failed = facet_walk()
        if name in failed:
            raise CheckFailed(failed[name])
        return count

    @check("facet-count-purity", tier=1)
    def facet_catalog():
        report = invariants.compute_invariants(m, n, r)
        count = walk_verdict("facet-count-purity")
        _require(count == report.multiplicity, f"{count} facets")
        return f"{count} facets, all of size {report.dim}"

    @check("facets-vs-bruteforce", tier=1)
    def facets_vs_bruteforce():
        brute = simplicial.maximal_faces_bruteforce(m, n, r)
        param = {f.vertices for f in simplicial.facets(m, n, r, budget=budget)}
        _require(brute == param, "facet sets differ")
        return f"{len(brute)} facets agree with maximal independent sets"

    @check("word-codec-roundtrip", tier=1)
    def codec_roundtrip():
        walk_verdict("word-codec-roundtrip")
        return "word -> vertices -> word is the identity"

    @check("extend-fixes-facets", tier=1)
    def extend_fixes():
        walk_verdict("extend-fixes-facets")
        return "extension procedure fixes every facet"

    @check("extend-fixes-faces", tier=1)
    def extend_faces():
        listed = simplicial.all_faces(m, n, r)
        for face in listed:
            try:  # extend_to_facet refuses a facet that misses the face
                simplicial.extend_to_facet(face, m, n, r)
            except ValueError as exc:
                shown = ",".join(map(simplicial.vertex_str, sorted(face)))
                raise CheckFailed(
                    f"no facet holds face {{{shown}}}: {exc}") from None
        return f"each of the {len(listed)} faces extends to a facet holding it"

    @check("initial-generator-count", tier=1)
    def edge_count():
        edges = conflict_pairs()
        closed = simplicial.initial_generator_count(m, n, r)
        mu = invariants.minimal_generator_count(m, n, r)
        _require(len(edges) == closed == mu, f"{len(edges)}, {closed}, {mu}")
        return f"{mu} quadratic monomial generators"

    @check("complex-h-vector", tier=1)
    def h_vector():
        hv = simplicial.complex_h_vector(m, n, r)
        hw = invariants.h_poly_via_words(m, n, r)
        _require(hv == hw, f"{hv} != {hw}")
        return f"complex h-vector = {hv}"

    @check("shelling-evidence", tier=1)
    def shelling_evidence():
        bound(multinomial((m - 1, n - 1, r - 1)), 2000,
              "verify.shelling_evidence", "facets")
        verdict = simplicial.check_shelling_order(
            simplicial.facets(m, n, r, budget=budget))
        # open question: recorded, never required
        return f"info: lexicographic order is a shelling: {verdict}"

    # --- groebner tier --------------------------------------------------

    @check("groebner-basis", tier=2)
    def groebner_certificate():
        from . import groebner
        basis = minors()[0]
        _require(groebner.verify_groebner(basis, m, n, r, budget=budget),
                 "an S-polynomial does not reduce to zero")
        return f"{len(basis)} minors form a Groebner basis"

    @check("initial-ideal-match", tier=2)
    def initial_ideal_match():
        from . import groebner
        lts = groebner.initial_ideal_minimal_generators(minors()[0])
        as_pairs = {frozenset(simplicial.vertex_for_variable(v, n)
                              for v in mono) for mono in lts}
        _require(as_pairs == conflict_pairs(),
                 "leading terms differ from the conflict pairs")
        return f"{len(lts)} leading terms match the conflict pairs"

    @check("relations-reduce-to-zero", tier=2)
    def relations_reduce():
        from . import groebner
        rels = relations()  # first: too many of both skips on relations
        basis = [groebner.SparsePoly.from_binomial(b) for b in minors()[0]]
        polys = (groebner.SparsePoly.from_binomial(rel) for rel in rels)
        for rel, rem in zip(rels, groebner.remainders(polys, basis),
                            strict=True):
            if rem:
                raise CheckFailed(f"{rel} does not reduce to zero")
        return "all sorting relations reduce to zero"

    return checks


def run_checks(checks):
    """Run the checks one after another, yielding each one's ``Outcome``
    as soon as the check returns, before the next check starts."""
    for name, fn in checks:
        try:
            status, detail = "ok", fn()
        except CheckFailed as exc:
            status, detail = "FAIL", str(exc)
        except SizeGuardError as exc:  # a ValueError: caught first
            status, detail = "skip", str(exc)
        except (AssertionError, ArithmeticError, LookupError,
                ValueError) as exc:
            status = "FAIL"
            detail = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        yield Outcome(name, status, detail)

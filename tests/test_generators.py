import re
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from doubledet import generators, grid, simplicial
from doubledet.errors import MAX_LISTED, SizeGuardError
from doubledet.generators import (Minor, decompose_into_minors,
                                  family_sizes, generator_families,
                                  hv_minor_count, minor_basis, minor_count,
                                  minor_dependency_witness, minors_H,
                                  minors_V, sorting_relations)
from doubledet.ring import Binomial
from doubledet.sorting import in_kernel

SMALL = [(m, n, r) for m in range(1, 4) for n in range(1, 4)
         for r in range(1, 4)]


def diagonal_key(v):
    """The diagonal order's (k, i, j) key of the variable (i, j, k)."""
    return v[2], v[0], v[1]


def block(minor):
    """The matrix index k if all four entries lie in one matrix, else None."""
    ks = {k for _, _, k in minor.entries}
    return ks.pop() if len(ks) == 1 else None


def expand(signed_minors):
    """Oracle: symbolic signed sum of minors as a {monomial: coeff} dict."""
    acc = Counter()
    for sign, minor in signed_minors:
        a11, a12, a21, a22 = minor.entries
        acc[tuple(sorted((a11, a22), key=diagonal_key))] += sign
        acc[tuple(sorted((a12, a21), key=diagonal_key))] -= sign
    return {t: c for t, c in acc.items() if c}


def binomial_dict(b):
    return {tuple(sorted(b.plus, key=diagonal_key)): 1,
            tuple(sorted(b.minus, key=diagonal_key)): -1}


def mu_closed(m, n, r):
    return (comb(m * n * r + 1, 2)
            - comb(m + 1, 2) * comb(n + 1, 2) * comb(r + 1, 2))


# ----------------------------------------------------------------------
# minors

def test_minor_counts_222():
    assert len(minors_H(2, 2, 2)) == comb(2, 2) * comb(4, 2) == 6
    assert len(minors_V(2, 2, 2)) == comb(4, 2) * comb(2, 2) == 6
    assert len(minor_basis(2, 2, 2)) == 10  # two in-matrix minors repeat


def test_minor_counts_111():
    assert minors_H(1, 1, 1) == []
    assert minors_V(1, 1, 1) == []


def test_paper_minor_m1_in_H():
    m1 = Binomial.make(((1, 1, 1), (2, 2, 2)),
                       ((2, 1, 1), (1, 2, 2)))
    assert m1 in {mi.binomial for mi in minors_H(2, 2, 2)}


def test_minor_layout_and_block():
    h = minors_H(2, 2, 3)
    assert all(mi.source == "H" for mi in h)
    assert all(mi.rows[0] < mi.rows[1] and mi.cols[0] < mi.cols[1]
               for mi in h)
    blocks = [block(mi) for mi in h]
    assert set(blocks) == {1, 2, 3, None}


def minors_H_by_position(m, n, r):
    """Reference: the minors of H walked by position, column (k-1)n + j
    holding column j of matrix k."""
    def entry(i, c):
        return i, (c - 1) % n + 1, (c - 1) // n + 1
    return [Minor("H", (i1, i2), (c1, c2),
                  (entry(i1, c1), entry(i1, c2), entry(i2, c1), entry(i2, c2)))
            for i1, i2 in combinations(range(1, m + 1), 2)
            for c1, c2 in combinations(range(1, n * r + 1), 2)]


def minors_V_by_position(m, n, r):
    """Reference: the minors of V walked by position, row (k-1)m + i
    holding row i of matrix k."""
    def entry(rho, j):
        return (rho - 1) % m + 1, j, (rho - 1) // m + 1
    return [Minor("V", (r1, r2), (j1, j2),
                  (entry(r1, j1), entry(r1, j2), entry(r2, j1), entry(r2, j2)))
            for r1, r2 in combinations(range(1, m * r + 1), 2)
            for j1, j2 in combinations(range(1, n + 1), 2)]


def minor_basis_by_binomial(m, n, r):
    """Reference: the minors of H then V, each binomial listed once."""
    seen, out = set(), []
    for minor in minors_H_by_position(m, n, r) + minors_V_by_position(m, n, r):
        if minor.binomial not in seen:
            seen.add(minor.binomial)
            out.append(minor)
    return out


@pytest.mark.parametrize("m, n, r", [
    *product(range(1, 5), repeat=3), (1, 1, 9), (9, 1, 1), (1, 9, 1)])
def test_minor_listings_match_the_position_references(m, n, r):
    assert minors_H(m, n, r) == minors_H_by_position(m, n, r)
    assert minors_V(m, n, r) == minors_V_by_position(m, n, r)
    assert minor_basis(m, n, r) == minor_basis_by_binomial(m, n, r)


def test_minor_dedup_count():
    for m, n, r in SMALL:
        listed = len(minors_H(m, n, r)) + len(minors_V(m, n, r))
        assert listed == hv_minor_count(m, n, r)
        expected = listed - r * comb(m, 2) * comb(n, 2)
        assert len(minor_basis(m, n, r)) == expected == minor_count(m, n, r)
    assert len(minor_basis(4, 4, 5)) == minor_count(4, 4, 5) == 2100


# ----------------------------------------------------------------------
# each listing's guard counts what it walks, and refuses before walking

@pytest.mark.parametrize("listing, walk, sizes, refused", [
    (generator_families, (Binomial, "make"), (14, 14, 14),
     "generators.generator_families: 2608515 generators"),
    # no relation to keep, but 4,498,500 pairs to test
    (sorting_relations, (grid, "comparable"), (3000, 1, 1),
     "generators.sorting_relations: 4498500 grid pairs"),
    (minor_basis, (generators, "_h_minor"), (14, 14, 14),
     "generators.minor_basis: 3478020 minors"),
    (simplicial.initial_generators, (simplicial, "conflicts"), (3000, 1, 1),
     "simplicial.initial_generators: 4498500 board pairs"),
], ids=lambda v: getattr(v, "__name__", None))
def test_listing_over_the_cap_refuses_before_its_walk(
        monkeypatch, listing, walk, sizes, refused):
    calls = 0

    def walked(*args):
        nonlocal calls
        calls += 1
        raise AssertionError("the walk started")

    monkeypatch.setattr(*walk, walked)
    with pytest.raises(SizeGuardError, match=f"^{re.escape(refused)} exceed "
                                             f"guard {MAX_LISTED}$"):
        listing(*sizes)
    assert calls == 0


@pytest.mark.parametrize("m, n, r", [(300, 1, 1), (1, 300, 1), (1, 1, 300),
                                     (40, 2, 1), (40, 1, 2), (2, 40, 1)])
def test_families_walk_in_proportion_to_what_they_build(monkeypatch, m, n,
                                                         r):
    # a nonempty family's loops pull at most two index pairs per generator;
    # a loop nested in an empty one would pull its pairs for nothing
    pulled = 0
    real = generators.combinations

    def counting(iterable, k):
        nonlocal pulled
        for item in real(iterable, k):
            pulled += 1
            yield item

    monkeypatch.setattr(generators, "combinations", counting)
    built = sum(map(len, generator_families(m, n, r).values()))
    assert built == sum(family_sizes(m, n, r).values())
    assert pulled <= 2 * built


# ----------------------------------------------------------------------
# the four families

def test_family_sizes_examples():
    assert list(family_sizes(2, 2, 2).values()) == [2, 2, 2, 3]
    assert list(family_sizes(2, 2, 3).values()) == [6, 6, 3, 9]
    sizes = family_sizes(1, 3, 4)
    assert sizes["same_column"] == sizes["same_block"] == sizes["mixed"] == 0
    assert sizes["same_row"] != 0


def test_families_match_their_sizes():
    for m, n, r in SMALL:
        fams = generator_families(m, n, r)
        sizes = family_sizes(m, n, r)
        for key, val in fams.items():
            assert len(val) == sizes[key]
            assert len(set(val)) == len(val)
        # pairwise disjoint
        all_elems = [b for val in fams.values() for b in val]
        assert len(set(all_elems)) == len(all_elems)


def test_sorting_relation_counts():
    assert len(sorting_relations(2, 2, 2)) == 9
    assert sorting_relations(1, 1, 4) == []
    assert len(sorting_relations(3, 2, 4)) == 120


def test_sorting_relations_equal_families():
    for m, n, r in SMALL:
        fams = generator_families(m, n, r)
        union = set().union(*fams.values())
        assert union == set(sorting_relations(m, n, r))


def test_family_sum_is_mu():
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(1, 6):
                assert sum(family_sizes(m, n, r).values()) == mu_closed(m, n, r)


def test_everything_in_kernel():
    for m, n, r in [(2, 2, 2), (3, 2, 2), (2, 3, 3)]:
        for val in generator_families(m, n, r).values():
            assert all(in_kernel(b, m, n, r) for b in val)
        assert all(in_kernel(mi.binomial, m, n, r)
                   for mi in minor_basis(m, n, r))


# ----------------------------------------------------------------------
# decompositions

def test_decompose_same_row_is_one_v_minor():
    g = Binomial.make(((1, 2, 1), (1, 1, 2)),
                      ((1, 1, 1), (1, 2, 2)))
    parts = decompose_into_minors(g, 1, 2, 2)
    assert len(parts) == 1
    sign, minor = parts[0]
    assert abs(sign) == 1 and minor.source == "V"
    assert expand(parts) == binomial_dict(g)


def test_decompose_mixed_third_form_is_v_plus_h():
    g = Binomial.make(((2, 2, 1), (1, 1, 2)),
                      ((1, 1, 1), (2, 2, 2)))
    parts = decompose_into_minors(g, 2, 2, 2)
    assert len(parts) == 2
    assert {minor.source for _, minor in parts} == {"V", "H"}
    assert expand(parts) == binomial_dict(g)


def test_decompose_same_block_is_block_minor():
    g = Binomial.make(((1, 2, 1), (2, 1, 1)),
                      ((1, 1, 1), (2, 2, 1)))
    parts = decompose_into_minors(g, 2, 2, 1)
    assert len(parts) == 1
    assert block(parts[0][1]) == 1
    assert expand(parts) == binomial_dict(g)


def test_decompose_expands_back_everywhere():
    for m, n, r in SMALL:
        for val in generator_families(m, n, r).values():
            for g in val:
                parts = decompose_into_minors(g, m, n, r)
                assert 1 <= len(parts) <= 2
                assert expand(parts) == binomial_dict(g)


def test_decompose_rejects_outsiders():
    # plus term is not the meet/join pair of the minus term
    bad = Binomial.make(((1, 2, 1), (2, 1, 1)),
                        ((1, 2, 2), (2, 1, 2)))
    with pytest.raises(ValueError):
        decompose_into_minors(bad, 2, 2, 2)
    # comparable pair is no relation at all
    comparable_pair = Binomial.make(((1, 1, 1), (2, 2, 1)),
                                    ((1, 1, 2), (2, 2, 2)))
    with pytest.raises(ValueError):
        decompose_into_minors(comparable_pair, 2, 2, 2)
    # out-of-range variable
    g = Binomial.make(((1, 2, 1), (2, 1, 1)),
                      ((1, 1, 1), (2, 2, 1)))
    with pytest.raises(ValueError):
        decompose_into_minors(g, 1, 2, 2)


def test_decompose_rejects_index_zero():
    # a generator of (2, 2, 2) with every row index lowered by one
    g = Binomial.make(((0, 1, 1), (1, 2, 2)), ((0, 2, 1), (1, 1, 2)))
    with pytest.raises(ValueError,
                       match=r"x\[0,[12],1\] outside a 2x2 x2 arrangement"):
        decompose_into_minors(g, 2, 2, 2)


# ----------------------------------------------------------------------
# dependency witness

def test_witness_222_matches_hand_calculation():
    witness = minor_dependency_witness(2, 2, 2)
    assert witness is not None
    assert expand(witness) == {}
    descriptors = [(s, mi.source, mi.rows, mi.cols) for s, mi in witness]
    assert descriptors == [
        (1, "H", (1, 2), (1, 4)),
        (-1, "H", (1, 2), (2, 3)),
        (-1, "V", (1, 4), (1, 2)),
        (1, "V", (2, 3), (1, 2)),
    ]
    # binomials are the four cross-matrix minors of the 2x2x2 arrangement
    m1 = witness[0][1].binomial
    assert str(m1) == "x[1,1,1]*x[2,2,2] - x[2,1,1]*x[1,2,2]"


def test_witness_trivial_cases():
    assert minor_dependency_witness(1, 1, 1) is None
    assert minor_dependency_witness(1, 2, 2) is None


def test_witness_223_exists_and_cancels():
    witness = minor_dependency_witness(2, 2, 3)
    assert witness is not None
    assert len(witness) == 4
    assert len({mi for _, mi in witness}) == 4
    assert expand(witness) == {}


def test_witness_is_none_or_cancels_everywhere():
    found = 0
    for m, n, r in SMALL:
        witness = minor_dependency_witness(m, n, r)
        if witness is None:
            continue
        found += 1
        assert len(witness) == 4
        assert len({mi for _, mi in witness}) == 4
        assert {s for s, _ in witness} <= {1, -1}
        assert expand(witness) == {}
    assert found == 8


# ----------------------------------------------------------------------
# serialization

_VAR_RE = re.compile(r"x\[(\d+),(\d+),(\d+)\]")


def parse_binomial(text):
    """Inverse of str(Binomial): 'x[...]*x[...] - x[...]*x[...]'."""
    sides = text.split("-")
    if len(sides) != 2:
        raise ValueError(f"expected exactly one '-' in binomial: {text!r}")
    terms = []
    for side in sides:
        found = _VAR_RE.findall(side)
        if len(found) != 2 or _VAR_RE.sub("", side).replace("*", "").strip():
            raise ValueError(f"bad binomial term: {side.strip()!r}")
        term = tuple(tuple(map(int, v)) for v in found)
        if any(index < 1 for v in term for index in v):
            raise ValueError(
                f"variable indices must be positive: {side.strip()!r}")
        terms.append(term)
    return Binomial.make(*terms)


def test_binomial_text_roundtrip():
    for m, n, r in [(2, 2, 2), (3, 2, 2)]:
        for b in sorting_relations(m, n, r):
            assert parse_binomial(str(b)) == b


def test_binomial_text_format():
    b = Binomial.make(((2, 1, 1), (1, 2, 2)),
                      ((1, 1, 1), (2, 2, 2)))
    assert str(b) == "x[1,1,1]*x[2,2,2] - x[2,1,1]*x[1,2,2]"
    with pytest.raises(ValueError):
        parse_binomial("x[1,1,1]*x[2,2,2]")
    with pytest.raises(ValueError):
        parse_binomial("x[1,1]*x[2,2,2] - x[2,1,1]*x[1,2,2]")


def test_parse_binomial_rejects_index_zero():
    with pytest.raises(ValueError, match="positive"):
        parse_binomial("x[0,1,1]*x[2,2,2] - x[2,1,1]*x[1,2,2]")
    with pytest.raises(ValueError, match="positive"):
        parse_binomial("x[1,1,1]*x[2,2,2] - x[2,1,0]*x[1,2,2]")

from collections import Counter
from functools import cmp_to_key
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from doubledet import groebner, verify
from doubledet.errors import BudgetExceededError
from doubledet.generators import minor_basis, sorting_relations
from doubledet.groebner import (SparsePoly, divides,
                                initial_ideal_minimal_generators,
                                leading_term, quotient, reduce, remainders,
                                s_polynomial, verify_groebner)
from doubledet.ring import Binomial, lex_greater, monomial, monomial_str
from doubledet.simplicial import initial_generators, vertex_for_variable

GB_SIZES = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (1, 2, 5), (2, 2, 1)]


def paper_m1():
    return Binomial.make(((1, 1, 1), (2, 2, 2)),
                         ((2, 1, 1), (1, 2, 2)))


def test_variable_order():
    # x[1,1,1] > x[1,2,1] > x[2,1,1] > x[1,1,2]
    chain = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]
    for a, b in zip(chain, chain[1:]):
        assert lex_greater(monomial([a]), monomial([b]))


def test_lex_greater_prefix_rule():
    v = (1, 1, 1)
    w = (2, 2, 1)
    assert lex_greater(monomial([v, v]), monomial([v]))
    assert lex_greater(monomial([v]), monomial([w, w]))


def test_leading_term_is_diagonal():
    p = SparsePoly.from_binomial(paper_m1())
    assert leading_term(p) == monomial(((1, 1, 1), (2, 2, 2)))
    single = SparsePoly({monomial([(1, 2, 1)]): 3})
    assert leading_term(single) == monomial([(1, 2, 1)])
    with pytest.raises(ValueError):
        leading_term(SparsePoly())


def test_from_binomial_equals_the_generic_constructor():
    v, w, u = (1, 1, 1), (2, 2, 2), (2, 1, 1)
    raw = [paper_m1(),
           Binomial((w, v), (u, (1, 2, 2))),  # terms not yet canonical
           Binomial((v, w), (v, w)),  # equal terms: one term, -1
           Binomial((w, v), (v, w))]  # equal once canonical
    for b in raw:
        expected = SparsePoly({monomial(b.plus): 1, monomial(b.minus): -1})
        assert SparsePoly.from_binomial(b) == expected
    assert SparsePoly.from_binomial(raw[2]).terms == {(v, w): -1}


def test_str_lists_terms_from_the_leading_term_down():
    v, w = (1, 1, 1), (1, 2, 1)
    # v*v > v*w > v > w: a monomial is below its own extensions
    p = SparsePoly({(v,): 1, (w,): -2, (v, w): 3, (v, v): 1})
    assert str(p).startswith(monomial_str(leading_term(p)))
    assert str(p) == ("x[1,1,1]*x[1,1,1] + 3*x[1,1,1]*x[1,2,1] + x[1,1,1] "
                      "- 2*x[1,2,1]")


def reference_greater(a, b):
    """The diagonal order written out: the first differing variable decides,
    the one with the smaller (k, i, j) being larger; on a prefix the longer
    monomial wins."""
    for va, vb in zip(a, b):
        if (va[2], va[0], va[1]) != (vb[2], vb[0], vb[1]):
            return (va[2], va[0], va[1]) < (vb[2], vb[0], vb[1])
    return len(a) > len(b)


def reference_monomial(variables):
    return tuple(sorted(variables, key=lambda v: (v[2], v[0], v[1])))


VARIABLES = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))


@given(st.lists(st.lists(VARIABLES, min_size=1, max_size=4)
                .map(reference_monomial), min_size=1, max_size=6, unique=True),
       st.lists(VARIABLES, min_size=2, max_size=2),
       st.lists(VARIABLES, min_size=2, max_size=2))
def test_every_reader_of_the_diagonal_order_agrees(monos, term_a, term_b):
    for a, b in permutations(monos, 2):
        assert lex_greater(a, b) == reference_greater(a, b), (a, b)
    ranked = sorted(monos, key=cmp_to_key(
        lambda a, b: -1 if reference_greater(a, b) else 1))
    p = SparsePoly({t: 1 for t in monos})
    assert leading_term(p) == ranked[0]
    assert str(p) == " + ".join(monomial_str(t) for t in ranked)
    a, b = reference_monomial(term_a), reference_monomial(term_b)
    if a != b:
        plus, minus = (a, b) if reference_greater(a, b) else (b, a)
        made = Binomial.make(term_a, term_b)
        assert made == (plus, minus) == (monomial(plus), monomial(minus))
        assert lex_greater(made.plus, made.minus)


@pytest.mark.parametrize("term", [[], [(1, 1, 1)],
                                  [(1, 1, 1), (1, 2, 1), (2, 1, 1)]])
def test_binomial_terms_must_have_degree_2(term):
    with pytest.raises(ValueError, match="degree 2"):
        Binomial.make(term, [(1, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="degree 2"):
        Binomial.make([(1, 1, 1), (1, 2, 1)], term)


MONOMIALS = st.lists(VARIABLES, max_size=4).map(reference_monomial)


@given(MONOMIALS, MONOMIALS)
def test_monomial_helpers_are_multiset_operations(a, b):
    ca, cb = Counter(a), Counter(b)
    assert divides(a, b) == (not ca - cb)
    big = reference_monomial((ca | cb).elements())
    for mono, part in ((big, a), (big, b), (reference_monomial(a + b), a)):
        q = quotient(mono, part)
        assert Counter(q) == Counter(mono) - Counter(part)
        assert q == monomial(q)


def largest(monos):
    monos = list(monos)
    return next(a for a in monos
                if all(a == b or reference_greater(a, b) for b in monos))


def reference_reduce(p, basis):
    """The division strategy written out as a scan of the basis: the largest
    term still to do, divided by the basis element whose leading term is
    strictly the greatest of those dividing it (so the first element wins
    a tie), divisibility being multiset inclusion."""
    work, remainder = dict(p.terms), {}
    while work:
        t = largest(work)
        coeff = work.pop(t)
        chosen = None
        for b in basis:
            lt = largest(b.terms)
            if not Counter(lt) - Counter(t) and (
                    chosen is None or reference_greater(lt, chosen[0])):
                chosen = (lt, b)
        if chosen is None:
            remainder[t] = coeff
            continue
        lt, b = chosen
        shift = list((Counter(t) - Counter(lt)).elements())
        for mono, c in b.terms.items():
            mono = reference_monomial(list(mono) + shift)
            if mono != t:
                work[mono] = work.get(mono, 0) - c * coeff * b.terms[lt]
                if not work[mono]:
                    del work[mono]
    return SparsePoly(remainder)


def minor_polys(m, n, r):
    return [SparsePoly.from_binomial(mi.binomial)
            for mi in minor_basis(m, n, r)]


def tied_minors(m, n, r):
    """Two minors of the board with the same leading term."""
    seen = {}
    for p in minor_polys(m, n, r):
        lt = leading_term(p)
        if lt in seen:
            return seen[lt], p
        seen[lt] = p
    raise LookupError("no tie")


@st.composite
def division_problems(draw):
    """A polynomial of degree 1-4 over a board up to (2, 2, 3), and a
    shuffled sample of the board's minors, where leading terms can tie."""
    m, n, r = draw(st.sampled_from([(2, 2, 2), (2, 2, 3), (1, 2, 3)]))
    minors = draw(st.permutations(minor_polys(m, n, r)))
    basis = minors[:draw(st.integers(1, len(minors)))]
    variables = st.tuples(st.integers(1, m), st.integers(1, n),
                          st.integers(1, r))
    terms = draw(st.dictionaries(
        st.lists(variables, min_size=1, max_size=4).map(reference_monomial),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=6))
    return SparsePoly(terms), basis


TIE = tied_minors(2, 2, 3)


@given(division_problems())
@example((SparsePoly({leading_term(TIE[0]): 1}), list(TIE)))
def test_reduce_matches_the_linear_scan(problem):
    p, basis = problem
    assert str(reduce(p, basis)) == str(reference_reduce(p, basis))
    ps = [p] + [SparsePoly({t: c}) for t, c in p.terms.items()]
    assert list(remainders(ps, basis)) == [reduce(q, basis) for q in ps]


def test_all_minor_leading_terms_are_diagonals():
    for m, n, r in [(2, 2, 3), (3, 2, 2), (3, 3, 2)]:
        for minor in minor_basis(m, n, r):
            a11, _, _, a22 = minor.entries
            p = SparsePoly.from_binomial(minor.binomial)
            assert leading_term(p) == monomial((a11, a22))


def test_reduce_basics():
    basis = [SparsePoly.from_binomial(mi.binomial)
             for mi in minor_basis(2, 2, 2)]
    assert not reduce(SparsePoly(), basis)
    v = SparsePoly({monomial([(1, 1, 1)]): 1})
    assert reduce(v, basis) == v  # a variable is never reducible by quadrics


def test_generators_reduce_to_zero():
    for m, n, r in [(2, 2, 2), (2, 2, 3)]:
        basis = [SparsePoly.from_binomial(mi.binomial)
                 for mi in minor_basis(m, n, r)]
        for rel in sorting_relations(m, n, r):
            assert not reduce(SparsePoly.from_binomial(rel), basis)


def test_reduce_is_deterministic_remainder():
    basis = [SparsePoly.from_binomial(mi.binomial)
             for mi in minor_basis(2, 2, 2)]
    # an element outside the ideal keeps a nonzero, stable remainder
    p = SparsePoly({monomial(((1, 1, 1), (1, 1, 2))): 1})
    r1, r2 = reduce(p, basis), reduce(p, basis)
    assert r1 == r2 == p


def test_remainder_stream_divides_each_monomial_once(monkeypatch):
    divided = []
    real = groebner._step

    def counting(t, *prepared):
        divided.append(t)
        return real(t, *prepared)

    monkeypatch.setattr(groebner, "_step", counting)
    basis = minor_polys(2, 2, 3)
    s_polys = [s_polynomial(f, g) for f, g in combinations(basis, 2)]
    assert not any(remainders(s_polys + basis, basis))
    assert len(divided) == len(set(divided)) > 0


@settings(max_examples=25)
@given(st.permutations(minor_polys(2, 2, 3)))
def test_remainder_stream_memo_carries_no_coefficient(minors):
    # a half basis is no Groebner basis, so remainders are nonzero; every
    # monomial of the stream comes back with -3 times its coefficient
    basis = minors[:len(minors) // 2]
    s_polys = [s_polynomial(f, g) for f, g in combinations(basis, 2)]
    stream = s_polys + [SparsePoly({t: -3 * c for t, c in s.terms.items()})
                        for s in s_polys]
    assert list(remainders(stream, basis)) == [
        reference_reduce(p, basis) for p in stream]


def test_each_remainder_stream_divides_by_its_own_basis():
    # the same leading term with two different tails: the first element
    # of each basis divides, and a memo kept across streams would reuse
    # the first basis's step
    p = SparsePoly({leading_term(TIE[0]): 1})
    bases = [list(TIE), list(reversed(TIE))]
    expected = [reference_reduce(p, basis) for basis in bases]
    assert expected[0] != expected[1]
    for basis, want in zip(bases, expected):
        assert list(remainders([p, p], basis)) == [want, want]


X, Y, Z = (monomial([v]) for v in ((1, 1, 1), (1, 2, 1), (2, 1, 1)))


@pytest.mark.parametrize("bad", [
    SparsePoly({X: 1, Y: -1, Z: 1}),  # a trinomial
    SparsePoly({X: 2, Y: -1}),  # 2*x - y
    SparsePoly({X: 1, Y: 1}),  # x + y
    SparsePoly({X: 1}),  # a monomial
    SparsePoly()])  # zero
def test_remainders_divide_only_by_monomial_differences(bad):
    basis = minor_polys(2, 2, 2)
    with pytest.raises(ValueError, match="difference of two monomials"):
        next(remainders([SparsePoly({X: 1})], basis + [bad]))


@given(division_problems())
def test_a_negated_minor_divides_as_the_minor(problem):
    # -1 on the leading term: dividing c*t still leaves c times the other
    # monomial times t / lt
    p, basis = problem
    negated = [SparsePoly({t: -c for t, c in b.terms.items()})
               for b in basis]
    assert leading_term(negated[0]) == leading_term(basis[0])
    assert negated[0].terms[leading_term(negated[0])] == -1
    assert list(remainders([p], negated)) == [reference_reduce(p, negated)]


def scaled(p, coeff, mono):
    """p times coeff times the monomial, term by term."""
    return SparsePoly({reference_monomial(t + mono): c * coeff
                       for t, c in p.terms.items()})


def difference(p, q):
    out = dict(p.terms)
    for t, c in q.terms.items():
        out[t] = out.get(t, 0) - c
    return SparsePoly(out)


POLYS = st.dictionaries(
    st.lists(VARIABLES, min_size=1, max_size=3).map(reference_monomial),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=5).map(SparsePoly)


@given(POLYS, POLYS)
@example(*TIE)
@example(*minor_polys(2, 2, 2)[:2])
def test_s_polynomial_is_its_definition(f, g):
    # lc(g) * (lcm / lt(f)) * f - lc(f) * (lcm / lt(g)) * g, the leading
    # terms and the lcm taken as multisets
    lt_f, lt_g = largest(f.terms), largest(g.terms)
    big = Counter(lt_f) | Counter(lt_g)
    shift_f = tuple((big - Counter(lt_f)).elements())
    shift_g = tuple((big - Counter(lt_g)).elements())
    expected = difference(scaled(f, g.terms[lt_g], shift_f),
                          scaled(g, f.terms[lt_f], shift_g))
    s = s_polynomial(f, g)
    assert s == expected and str(s) == str(expected)
    assert reference_monomial(big.elements()) not in s.terms


def test_s_polynomial_cancels_leading_terms():
    polys = [SparsePoly.from_binomial(mi.binomial)
             for mi in minor_basis(2, 2, 2)]
    f, g = polys[0], polys[1]
    s = s_polynomial(f, g)
    big = reference_monomial(
        (Counter(leading_term(f)) | Counter(leading_term(g))).elements())
    assert not s or lex_greater(big, leading_term(s))


def test_verify_groebner_positive():
    for m, n, r in GB_SIZES + [(3, 3, 3)]:
        minors = [mi.binomial for mi in minor_basis(m, n, r)]
        assert verify_groebner(minors, m, n, r), (m, n, r)


def test_verify_groebner_negative_control():
    single = [Binomial.make(((1, 1, 1), (2, 2, 1)),
                            ((1, 2, 1), (2, 1, 1)))]
    assert verify_groebner(single, 2, 2, 2) is False


@pytest.mark.parametrize("size", [(2, 2, 2), (2, 2, 3)])
def test_verify_groebner_needs_every_leading_term(size):
    # dropping one minor is no control: another may share its leading term
    minors = [mi.binomial for mi in minor_basis(*size)]
    for lt in {b.plus for b in minors}:
        kept = [b for b in minors if b.plus != lt]
        assert verify_groebner(kept, *size) is False, lt


def test_verify_groebner_rejects_non_members():
    # a binomial outside the kernel cannot be part of a basis of the ideal
    outside = [Binomial.make(((1, 1, 1), (1, 2, 1)),
                             ((2, 1, 1), (2, 2, 1)))]
    assert verify_groebner(outside, 2, 2, 2) is False


def test_verify_groebner_budget():
    minors = [mi.binomial for mi in minor_basis(2, 2, 3)]
    with pytest.raises(BudgetExceededError):
        verify_groebner(minors, 2, 2, 3, budget=10)


def test_verify_groebner_refuses_before_testing_the_basis(monkeypatch):
    # the S-pair count needs only the basis size, so a refusal tests no
    # element for kernel membership and builds no polynomial
    calls = []

    def record(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(groebner, "in_kernel", record("in_kernel"))
    monkeypatch.setattr(groebner.SparsePoly, "from_binomial",
                        record("from_binomial"))
    checks = [(name, fn) for name, fn in verify.build_checks(
        2, 2, 3, "groebner", 10) if name == "groebner-basis"]
    assert [tuple(o) for o in list(verify.run_checks(checks))] == [
        ("groebner-basis", "skip",
         "groebner.verify_groebner: 351 S-pairs exceed budget 10")]
    assert calls == []


def test_initial_ideal_matches_conflict_pairs():
    for m, n, r in GB_SIZES:
        minors = [mi.binomial for mi in minor_basis(m, n, r)]
        lts = initial_ideal_minimal_generators(minors)
        as_pairs = {frozenset(vertex_for_variable(v, n) for v in mono)
                    for mono in lts}
        assert as_pairs == set(initial_generators(m, n, r)), (m, n, r)


def test_initial_ideal_generators_are_squarefree_quadrics():
    minors = [mi.binomial for mi in minor_basis(2, 3, 2)]
    for mono in initial_ideal_minimal_generators(minors):
        assert len(mono) == 2 and mono[0] != mono[1]

import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from doubledet import poset
from doubledet.errors import SizeGuardError
from doubledet.grid import (comparable, count_comparable_pairs, grid_points,
                            join, lattice_isomorphic_to_ideals, meet)


def comparable_oracle(p, q):
    """The generic componentwise order, on points of any length."""
    return (all(a <= b for a, b in zip(p, q))
            or all(a >= b for a, b in zip(p, q)))


def meet_oracle(p, q):
    return tuple(map(min, p, q))


def join_oracle(p, q):
    return tuple(map(max, p, q))


@pytest.mark.parametrize("size", [(3, 3, 3), (2, 4, 1), (1, 1, 5)])
def test_order_primitives_are_the_componentwise_definitions(size):
    points = grid_points(*size)
    for p, q in product(points, repeat=2):
        assert comparable(p, q) is comparable_oracle(p, q), (p, q)
        assert meet(p, q) == meet_oracle(p, q), (p, q)
        assert join(p, q) == join_oracle(p, q), (p, q)


def comparable_pairs_bruteforce(m, n, r):
    """Oracle: unordered pairs (including a point with itself)."""
    points = grid_points(m, n, r)
    return sum(1 for a in range(len(points)) for b in range(a, len(points))
               if comparable(points[a], points[b]))


def test_meet_join_examples():
    p, q = (2, 1, 3), (1, 2, 3)
    assert meet(p, q) == (1, 1, 3)
    assert join(p, q) == (2, 2, 3)
    assert meet(p, p) == p and join(q, q) == q


def test_lattice_laws_exhaustive_222():
    points = grid_points(2, 2, 2)
    for p, q in product(points, repeat=2):
        assert meet(p, q) == meet(q, p)
        assert join(p, q) == join(q, p)
        # absorption
        assert meet(p, join(p, q)) == p
        assert join(p, meet(p, q)) == p
    for p, q, s in product(points, repeat=3):
        assert meet(p, join(q, s)) == join(meet(p, q), meet(p, s))
        assert join(p, meet(q, s)) == meet(join(p, q), join(p, s))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.data())
def test_lattice_laws_random_333(m, n, r, data):
    pick = st.tuples(st.integers(1, m), st.integers(1, n), st.integers(1, r))
    p, q, s = (data.draw(pick) for _ in range(3))
    assert meet(p, join(q, s)) == join(meet(p, q), meet(p, s))
    assert join(p, meet(q, s)) == meet(join(p, q), join(p, s))
    assert comparable(p, q) == (meet(p, q) in (p, q))


def test_comparable_examples():
    assert comparable((1, 1, 1), (2, 2, 2))
    assert not comparable((2, 1, 1), (1, 2, 1))
    assert comparable((2, 1, 2), (2, 1, 3))


def test_count_comparable_pairs_examples():
    assert count_comparable_pairs(2, 2, 2) == 27
    assert count_comparable_pairs(1, 1, 1) == 1
    assert count_comparable_pairs(3, 2, 4) == 180
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, -2)]:
        with pytest.raises(ValueError):
            count_comparable_pairs(*bad)


def test_count_comparable_pairs_bruteforce_up_to_4():
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(1, 5):
                assert (count_comparable_pairs(m, n, r)
                        == comparable_pairs_bruteforce(m, n, r))


def test_lattice_isomorphic_to_ideals():
    assert lattice_isomorphic_to_ideals(1, 1, 1)
    assert lattice_isomorphic_to_ideals(2, 2, 2)
    assert lattice_isomorphic_to_ideals(3, 2, 4)
    assert lattice_isomorphic_to_ideals(4, 3, 2)
    assert lattice_isomorphic_to_ideals(21, 21, 21)
    with pytest.raises(SizeGuardError, match="27000 ideals"):
        lattice_isomorphic_to_ideals(30, 30, 30)


def patched_pmnr(monkeypatch, change):
    """Patch ``poset.make_pmnr`` to build its poset from the covers that
    ``change`` makes of the three chains' covers."""
    def make_pmnr(m, n, r):
        real = real_make_pmnr(m, n, r)
        return poset.Poset(real.n, change(real.covers()))

    real_make_pmnr = poset.make_pmnr
    monkeypatch.setattr(poset, "make_pmnr", make_pmnr)


def test_lattice_isomorphism_refuses_a_dropped_chain_cover(monkeypatch):
    # (3, 2, 2): 0 < 1 is the one cover of the first chain
    patched_pmnr(monkeypatch, lambda covers: covers[1:])
    assert not lattice_isomorphic_to_ideals(3, 2, 2)
    assert not lattice_isomorphic_to_ideals(4, 3, 2)


def test_lattice_isomorphism_refuses_a_cross_chain_relation(monkeypatch):
    # the first chain's bottom below the second chain's bottom
    patched_pmnr(monkeypatch, lambda covers: covers + [(0, 2)])
    assert not lattice_isomorphic_to_ideals(3, 2, 2)
    assert not lattice_isomorphic_to_ideals(3, 3, 2)


def test_lattice_isomorphism_of_long_chains_is_not_quadratic():
    for size in ((3000, 1, 1), (1, 1, 3000)):
        start = time.perf_counter()
        assert lattice_isomorphic_to_ideals(*size)
        assert time.perf_counter() - start < 0.05, size

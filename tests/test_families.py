import random
from itertools import combinations_with_replacement

import pytest

import reference_routes as ref
from baxt.checker import check, is_balanced
from baxt.families import (basis2, basis2_rows, basis4, isoterm_search,
                           pk_qk, _multiset_permutations)
from baxt.oracle import sample_check
from baxt.words import ident, iword


def test_p2_q2_spelled_out():
    idn = pk_qk(2)
    assert idn.lhs == iword(
        "x1* x2* x3* x4* x x* x* x1 x2 x3 x4 x x* x x1* x3* x2* x4*")
    assert idn.rhs == iword(
        "x1* x2* x3* x4* x x* x x1 x2 x3 x4 x* x* x x1* x3* x2* x4*")


def test_pk_qk_shape():
    for k in range(2, 6):
        idn = pk_qk(k)
        assert len(idn.lhs) == len(idn.rhs) == 6 * k + 6
        assert is_balanced(idn)
        # the two sides differ exactly at the edges of the middle block
        diff = [i for i, (a, b) in enumerate(zip(idn.lhs, idn.rhs)) if a != b]
        assert diff == [2 * k + 2, 4 * k + 3]


def test_pk_qk_permutations():
    idn = pk_qk(2, pi=(2, 1, 3, 4))
    assert idn.lhs[3:9] != pk_qk(2).lhs[3:9]
    assert is_balanced(idn)
    with pytest.raises(ValueError):
        pk_qk(1)
    with pytest.raises(ValueError):
        pk_qk(2, pi=(1, 1, 2, 3))


def test_basis2_contents():
    rows = basis2_rows()
    assert len(rows) == 22
    tags = [t for t, _ in rows]
    assert len(set(tags)) == 22
    first = dict(rows)["e1.1"]
    assert first == ident("x* h x k x y s x* t x", "x* h x k y x s x* t x")
    full = basis2()
    assert len(full) == 44
    assert ident("x t x* s y x k x h x*",
                 "x t x* s x y k x h x*") in full  # the reverse of e1.1


def test_basis4_contents():
    rows = basis4()
    assert rows == [ident("x h y k x y s x t y", "x h y k y x s x t y"),
                    ident("x h y k x y s y t x", "x h y k y x s y t x")]


def test_basis_identities_hold():
    assert all(check(i, 2).verdict for i in basis2())
    for n in (2, 3, 4):
        assert all(check(i, n).verdict for i in basis4())


def test_basis_identities_balanced_and_unrefuted():
    # six-base grids are too large to scan outright, so sample the length-3
    # grid heavily; no draw may falsify a basis identity
    for seed, idn in enumerate(basis2()):
        assert is_balanced(idn)
        assert not sample_check(idn, 2, 3, 400, seed=seed).refuted
    for seed, idn in enumerate(basis4()):
        assert is_balanced(idn)
        assert not sample_check(idn, 4, 3, 400, seed=seed).refuted


def test_multiset_permutations():
    perms = list(_multiset_permutations("aab"))
    assert perms == [tuple("aab"), tuple("aba"), tuple("baa")]


def test_multiset_permutations_match_the_reference():
    # every multiset of at most 6 letters over x, x*, y, given unsorted,
    # then random ones of up to 8 letters over three bases
    rng = random.Random(11)
    letters = iword("x x* y")
    pools = [list(c) for m in range(7)
             for c in combinations_with_replacement(letters, m)]
    pools += [rng.choices(iword("x x* y y* z"), k=rng.randint(0, 8))
              for _ in range(200)]
    for pool in pools:
        rng.shuffle(pool)
        assert list(_multiset_permutations(pool)) == list(ref.multiset_permutations(pool))


def test_isoterm_search():
    assert isoterm_search(iword("x x* y y*"), 2) == []
    assert isoterm_search(iword("x y y* x*"), 3) == []
    assert isoterm_search(iword("x y x y"), 4) == []
    # a genuinely non-isolated word: x y x x and x x y x are congruent mates?
    partners = isoterm_search(iword("x h y k x y s x t y"), 4)
    assert iword("x h y k y x s x t y") in partners
    with pytest.raises(ValueError):
        isoterm_search(iword("x y z x* y* z* x y z x*") + iword("z"), 2)

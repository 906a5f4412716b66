import random
from collections import defaultdict
from itertools import combinations, product

import pytest

import reference_routes as ref
from baxt.checker import check, conditions_baxt3, is_balanced
from baxt.families import basis2, basis2_rows, basis4, isoterm_search, pk_qk
from baxt.oracle import brute_force_check, sample_check
from baxt.words import Identity, ident, iword, restrict


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
    # the middle run is x1 ... x2k in order on both sides, and the tail
    # takes the odd-numbered letters before the even-numbered ones
    for k in range(2, 6):
        idn = pk_qk(k)
        xs = [f"x{i}" for i in range(1, 2 * k + 1)]
        mid = iword(" ".join(xs))
        assert idn.lhs[2 * k + 3:4 * k + 3] == idn.rhs[2 * k + 3:4 * k + 3] == mid
        tail = iword(" ".join(t + "*" for t in xs[0::2] + xs[1::2]))
        assert idn.lhs[-2 * k:] == idn.rhs[-2 * k:] == tail
    with pytest.raises(ValueError):
        pk_qk(1)


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


def test_isoterm_search():
    assert isoterm_search(iword("x x* y y*"), 2) == []
    assert isoterm_search(iword("x y y* x*"), 3) == []
    assert isoterm_search(iword("x y x y"), 4) == []
    # a genuinely non-isolated word: x y x x and x x y x are congruent mates?
    partners = isoterm_search(iword("x h y k x y s x t y"), 4)
    assert iword("x h y k y x s x t y") in partners
    with pytest.raises(ValueError):
        isoterm_search(iword("x y z x* y* z* x y z x*") + iword("z"), 2)


def test_isoterm_search_refuses_a_rank_below_one():
    # an empty result would certify an isoterm, so a word whose walk never
    # calls the checker (one letter, repeated) is refused too
    for word in ("x x", "x y"):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            isoterm_search(iword(word), 0)


def test_rank3_class_is_not_connected_by_swaps():
    a, b = iword("x x* y x y x* x x* y*"), iword("x x* y x* y x x x* y*")
    idn = Identity(a, b)
    assert check(idn, 3).verdict and conditions_baxt3(idn)
    assert not brute_force_check(idn, 3).refuted
    # neither word has an adjacent swap that stays in its rank-3 class
    for w in (a, b):
        swaps = [w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                 for i in range(len(w) - 1) if w[i] != w[i + 1]]
        assert not any(check(Identity(w, s), 3).verdict for s in swaps)
    # the search walks the rank-2 class, so it still finds the partner
    assert isoterm_search(a, 3) == [b] == ref.isoterm_partners(a, 3)
    assert isoterm_search(b, 3) == [a] == ref.isoterm_partners(b, 3)


def test_isoterm_search_matches_the_enumeration():
    # every word over two bases up to length 5 that starts with x (renaming
    # the bases or starring one of them maps classes to classes), then
    # random words over two and three bases
    rng = random.Random(17)
    two, three = iword("x x* y y*"), iword("x x* y y* z z*")
    words = [(two[0],) + w for m in range(5) for w in product(two, repeat=m)]
    words += [tuple(rng.choices(two, k=rng.randint(7, 8))) for _ in range(10)]
    words += [tuple(rng.choices(three, k=7)) for _ in range(8)]
    partnered = set()
    for u in words:
        for n in range(1, 6):
            got = isoterm_search(u, n)
            assert got == ref.isoterm_partners(u, n), (u, n)
            if got:
                partnered.add(n)
    assert partnered == {1, 2, 3, 4, 5}


def _random_pairs(rng, letters, count):
    """Words of 6 to 9 letters, each with a rearrangement of it: a few
    random adjacent swaps away, or a random shuffle."""
    pairs = []
    for _ in range(count):
        u = tuple(rng.choices(letters, k=rng.randint(6, 9)))
        v = list(u)
        if rng.random() < 0.5:
            rng.shuffle(v)
        else:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(v) - 1)
                v[i], v[i + 1] = v[i + 1], v[i]
        pairs.append(Identity(u, tuple(v)))
    return pairs


def test_verdicts_are_the_conjunction_over_restrictions():
    # a verdict is the conjunction of the verdicts on the restrictions to
    # one or two bases
    rng = random.Random(23)
    pairs = _random_pairs(rng, iword("x x* y y* z z* w"), 400)
    for n in (2, 3, 4):
        verdicts = set()
        for idn in pairs:
            bases = sorted({x.base for x in idn.lhs})
            subsets = [(b,) for b in bases] + list(combinations(bases, 2))
            parts = all(check(Identity(restrict(idn.lhs, B), restrict(idn.rhs, B)),
                              n, witness=False).verdict for B in subsets)
            verdict = check(idn, n, witness=False).verdict
            assert verdict == parts, (idn, n)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_rank_n_identities_hold_at_rank_2():
    rng = random.Random(29)
    pairs = _random_pairs(rng, iword("x x* y y* z"), 600)
    for n in (3, 4, 5):
        held = [idn for idn in pairs if check(idn, n, witness=False).verdict]
        assert any(idn.lhs != idn.rhs for idn in held)
        assert all(check(idn, 2, witness=False).verdict for idn in held)


def test_rank2_class_key_matches_the_checker():
    rng = random.Random(31)
    seen = set()
    for idn in _random_pairs(rng, iword("x x* y y* z z*"), 400):
        same = ref.rank2_class_key(idn.lhs) == ref.rank2_class_key(idn.rhs)
        assert same == check(idn, 2, witness=False).verdict, idn
        seen.add(same)
    assert seen == {True, False}


def test_greedy_step_stays_in_the_rank2_class():
    # the two-base lemma, exhaustively to length 7: for words u ~ v over two
    # bases with u != v, let c be u's letter just after their common prefix;
    # moving the first c after that prefix in v one place left stays in the
    # class.  The rank-2 walk of isoterm_search is complete because of it.
    letters = iword("x x* y y*")
    steps = 0
    for m in range(8):
        classes = defaultdict(list)
        for w in product(letters, repeat=m):
            classes[ref.rank2_class_key(w)].append(w)
        for members in classes.values():
            # the prefixes of the class, each with the letters after it
            after = defaultdict(set)
            for u in members:
                for p in range(m):
                    after[u[:p]].add(u[p])
            for v in members:
                for p in range(m):
                    for c in after[v[:p]] - {v[p]}:
                        j = v.index(c, p)
                        s = v[:j - 1] + (v[j], v[j - 1]) + v[j + 1:]
                        assert check(Identity(v, s), 2, witness=False).verdict, (v, s)
                        steps += 1
    assert steps == 7840


def test_greedy_step_stays_in_the_rank2_class_on_long_words():
    # the two-base lemma past the isoterm cap: walk from u to v by adjacent
    # swaps that the rank-2 checker accepts, then bubble v back to u by the
    # greedy step; every step is accepted and keeps u's class
    letters = iword("x x* y y*")
    rng = random.Random(37)
    moved = steps = 0
    for _ in range(400):
        u = tuple(rng.choices(letters, k=rng.randint(8, 30)))
        key = ref.rank2_class_key(u)
        v = u
        for _ in range(40):
            i = rng.randrange(len(v) - 1)
            s = v[:i] + (v[i + 1], v[i]) + v[i + 2:]
            if s != v and check(Identity(v, s), 2, witness=False).verdict:
                v = s
        moved += v != u
        while v != u:
            p = next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)
            j = v.index(u[p], p)
            s = v[:j - 1] + (v[j], v[j - 1]) + v[j + 1:]
            assert check(Identity(v, s), 2, witness=False).verdict, (u, v, s)
            assert ref.rank2_class_key(s) == key, (u, v, s)
            v = s
            steps += 1
    assert (moved, steps) == (362, 2369)

import json
import pickle
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

import reference_routes as ref
from baxt.monoid import (RankMismatchError, canonical, element_to_json_obj,
                         equivalent, evaluation, identity_element,
                         invariant_key, key_of, lpi, multiply,
                         rewrite_neighbors, rpi, sharp, sharp_word)
from baxt.trees import p_baxt
from baxt.words import AWord, parse_aword
from definitions import congruence_class, support

W = parse_aword("36131512665", 6)


@st.composite
def aword_pairs(draw, max_rank=4, max_len=7):
    n = draw(st.integers(1, max_rank))
    mk = lambda: AWord(tuple(draw(st.lists(st.integers(1, n), max_size=max_len))), n)
    return mk(), mk()


awords = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=8).map(
        lambda s: AWord(tuple(s), n)))


def test_evaluation():
    assert evaluation(W) == (3, 1, 2, 0, 2, 3)
    assert evaluation(AWord((), 4)) == (0, 0, 0, 0)
    assert evaluation(parse_aword("111", 1)) == (3,)


def test_rpi_running_example():
    assert rpi(W) == {(2, 1, 1), (5, 2, 1), (5, 3, 2)}
    assert rpi(AWord((), 3)) == frozenset()
    assert rpi(parse_aword("21", 2)) == frozenset()


def test_lpi_running_example():
    assert lpi(W) == {(1, 2, 3), (3, 5, 2), (3, 6, 1)}
    assert lpi(parse_aword("12", 2)) == {(1, 2, 1)}
    assert lpi(parse_aword("1111", 2)) == frozenset()


@given(awords)
def test_precedence_key_shapes(w):
    # at most one higher letter per lower letter in rpi, and dually in lpi
    lows = [a for (_, a, _) in rpi(w)]
    assert len(lows) == len(set(lows))
    highs = [b for (_, b, _) in lpi(w)]
    assert len(highs) == len(set(highs))


@given(awords)
def test_sharp_mirrors_the_key(w):
    # the rpi pass is the lpi pass on the sharp word, relabelled a -> m-a
    m = w.rank + 1
    sw = sharp_word(w)
    assert rpi(w) == {(m - a, m - b, ell) for (a, b, ell) in lpi(sw)}
    assert evaluation(sw) == evaluation(w)[::-1]


def test_key_matches_the_quadratic_reference_on_all_short_words():
    for n in range(1, 5):
        for length in range(7):
            for t in product(range(1, n + 1), repeat=length):
                assert key_of(t, n) == ref.key_of(t, n), (t, n)


def _random_words(seed=7, size=2000):
    """Fixed-seed words: rank and length log-uniform, the rank mostly below
    400 (the reference is quadratic in the support), a few up to 3000 with
    up to 3*10^4 letters, and every tenth word a permutation of its
    alphabet or of a part of it."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        top = 3000 if i % 100 == 0 else 400
        n = int(top ** rng.random())
        if i % 10 == 5:
            word = rng.sample(range(1, n + 1), rng.randint(1, n))
        else:
            length = int((3 * 10 ** 4 if top == 3000 else 3000) ** rng.random())
            word = rng.choices(range(1, n + 1), k=length)
        out.append((tuple(word), n))
    out.append((tuple(rng.sample(range(1, 3001), 3000)), 3000))
    out.append((tuple(rng.choices(range(1, 3001), k=3 * 10 ** 4)), 3000))
    return out


def test_key_matches_the_quadratic_reference_on_random_words():
    for symbols, n in _random_words():
        assert key_of(symbols, n) == ref.key_of(symbols, n), (len(symbols), n)


def _cover_triples(seed=11, size=3000):
    """Fixed-seed words p, x, y and s over ranks 1-5, y a shuffle of x.
    The letters of x are drawn from those that p and s share, from those
    of p, from those of s or from all of 1..n, a quarter of the time each
    (all of 1..n where the chosen letters are none)."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        n = rng.randint(1, 5)
        p = tuple(rng.choices(range(1, n + 1), k=rng.randint(0, 6)))
        s = tuple(rng.choices(range(1, n + 1), k=rng.randint(0, 6)))
        pool = rng.choice([sorted(set(p) & set(s)), sorted(set(p)), sorted(set(s)),
                           range(1, n + 1)]) or range(1, n + 1)
        x = tuple(rng.choices(pool, k=rng.randint(1, 5)))
        out.append((n, p, x, tuple(rng.sample(x, len(x))), s))
    return out


def test_a_middle_whose_letters_occur_before_and_after_it_can_be_shuffled():
    # the oracle's content cover rule: p x s and p y s, y a shuffle of x,
    # are congruent when every letter of x occurs in p and in s.  Letters
    # of x that all occur in p alone, or in s alone, are not enough
    differ = Counter()
    for n, p, x, y, s in _cover_triples():
        same = key_of(p + x + s, n) == key_of(p + y + s, n)
        in_p, in_s = set(x) <= set(p), set(x) <= set(s)
        if in_p and in_s:
            assert same, (n, p, x, y, s)
        elif not same:
            differ[in_p, in_s] += 1
    assert differ[True, False] and differ[False, True] and differ[False, False]


def test_equivalent():
    assert equivalent(parse_aword("2121", 2), parse_aword("2211", 2))
    assert not equivalent(parse_aword("12", 2), parse_aword("21", 2))
    assert equivalent(AWord((), 2), AWord((), 2))
    with pytest.raises(RankMismatchError):
        equivalent(AWord((1,), 2), AWord((1,), 3))


def test_multiply():
    one, two = canonical(parse_aword("1", 2)), canonical(parse_aword("2", 2))
    assert multiply(one, two) == canonical(parse_aword("12", 2))
    e = canonical(parse_aword("2121", 2))
    assert multiply(e, identity_element(2)) == e
    assert multiply(identity_element(2), e) == e
    twenty_one = canonical(parse_aword("21", 2))
    sq = multiply(twenty_one, twenty_one)
    assert sq == canonical(parse_aword("2121", 2)) == canonical(parse_aword("2211", 2))
    with pytest.raises(RankMismatchError):
        multiply(one, canonical(AWord((1,), 3)))


@given(aword_pairs())
def test_multiply_matches_word_concat(pair):
    u, w = pair
    assert multiply(canonical(u), canonical(w)) == canonical(u.concat(w))


def test_sharp_word_examples():
    assert sharp_word(parse_aword("112", 2)) == parse_aword("122", 2)
    assert sharp_word(parse_aword("123", 3)) == parse_aword("123", 3)
    assert sharp_word(AWord((), 5)) == AWord((), 5)


@given(awords)
def test_sharp_involution(w):
    e = canonical(w)
    assert sharp(sharp(e)) == e
    assert sharp_word(sharp_word(w)) == w


@given(aword_pairs())
def test_sharp_antihomomorphism(pair):
    u, w = pair
    eu, ew = canonical(u), canonical(w)
    assert sharp(multiply(eu, ew)) == multiply(sharp(ew), sharp(eu))


def test_rewrite_neighbors_examples():
    assert parse_aword("2211", 2) in rewrite_neighbors(parse_aword("2121", 2))
    assert rewrite_neighbors(parse_aword("11", 1)) == set()
    assert rewrite_neighbors(parse_aword("12", 2)) == set()


@given(awords)
def test_rewrite_neighbors_sound(w):
    for o in rewrite_neighbors(w):
        assert equivalent(w, o)
        assert p_baxt(w) == p_baxt(o)


@given(awords)
def test_sharp_respects_congruence(w):
    for o in rewrite_neighbors(w):
        assert equivalent(sharp_word(w), sharp_word(o))


def test_rewrite_closure_matches_invariants_small():
    # words of A_3^<=4: rewriting reaches exactly the invariant class
    words = [AWord(t, 3) for L in range(5) for t in product((1, 2, 3), repeat=L)]
    by_key = {}
    for w in words:
        by_key.setdefault(invariant_key(w), set()).add(w)
    for w in words:
        assert congruence_class(w) == by_key[invariant_key(w)]


def test_length_and_support_preserved():
    w = parse_aword("2121", 2)
    for o in rewrite_neighbors(w):
        assert len(o) == len(w)
        assert support(o) == support(w)
        assert evaluation(o) == evaluation(w)


def test_element_json():
    obj = element_to_json_obj(canonical(W))
    assert obj["n"] == 6
    assert obj["representative"] == "36131512665"
    assert obj["ev"] == [3, 1, 2, 0, 2, 3]
    assert obj["rpi"] == [[2, 1, 1], [5, 2, 1], [5, 3, 2]]
    assert obj["lpi"] == [[1, 2, 3], [3, 5, 2], [3, 6, 1]]
    json.dumps(obj)  # serializable


def test_element_equality_ignores_representative():
    a = canonical(parse_aword("2121", 2))
    b = canonical(parse_aword("2211", 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(a) == hash((a.rank, a.key))
    assert a != canonical(parse_aword("2121", 3))  # same letters, other rank


def test_element_survives_pickle():
    e = canonical(W)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and hash(back) == hash(e)
    assert back.representative == W and back.key == e.key

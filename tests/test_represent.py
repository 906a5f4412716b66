import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_routes as ref
from baxt.monoid import (RankMismatchError, canonical, equivalent,
                         invariant_key, sharp_word)
from baxt.represent import (PairElement, _letter_pair_words, generator_images,
                            index_pairs, materialize, pair_sharp, phi1, phi2,
                            phi3, phi_ij, phi_n, tuple_equal, tuple_sharp)
from baxt.semiring import (NEG_INF, block_diag, gen_J, gen_P, identity_matrix,
                           mat_mul, scalar, skew_transpose)
from baxt.words import AWord, parse_aword
from definitions import decode1, decode2, decode3, words_upto


def rank_words(n, max_len=8):
    return st.lists(st.integers(1, n), max_size=max_len).map(
        lambda s: AWord(tuple(s), n))


def test_phi2_generators():
    images = generator_images(2)
    s1, one = scalar(1), scalar(0)
    assert images[1] == block_diag([s1, gen_P(), gen_J(), one])
    assert phi2(parse_aword("1", 2)) == images[1]
    assert phi2(AWord((), 2)) == identity_matrix(6)


def test_generator_images_are_copies():
    images = generator_images(2)
    before = phi2(parse_aword("12", 2))
    images[1] = images[2] = identity_matrix(6)
    assert phi2(parse_aword("12", 2)) == before
    assert generator_images(2)[1] == block_diag([scalar(1), gen_P(), gen_J(),
                                                 scalar(0)])
    with pytest.raises(ValueError):
        generator_images(4)


def test_phi1():
    assert phi1(AWord((), 1)) == identity_matrix(2)
    m = phi1(parse_aword("111", 1))
    assert m[0, 0] == 3 == m[1, 1]


def test_phi2_constant_on_classes():
    assert phi2(parse_aword("2121", 2)) == phi2(parse_aword("2211", 2))


def test_dims():
    assert phi2(AWord((), 2)).dim == 6
    assert phi3(AWord((), 3)).dim == 15


@given(st.lists(st.integers(1, 3), max_size=5), st.lists(st.integers(1, 3), max_size=5))
def test_phi3_homomorphism(a, b):
    u, w = AWord(tuple(a), 3), AWord(tuple(b), 3)
    assert phi3(u.concat(w)) == mat_mul(phi3(u), phi3(w))


@given(rank_words(2))
def test_phi2_sharp_compatible(w):
    assert phi2(sharp_word(w)) == skew_transpose(phi2(w))


@given(rank_words(3, 6))
def test_phi3_sharp_compatible(w):
    assert phi3(sharp_word(w)) == skew_transpose(phi3(w))


def test_phi2_separates_small_classes():
    seen = {}
    for w in words_upto(2, 6):
        key, mat = invariant_key(w), phi2(w)
        if key in seen:
            assert seen[key] == mat
        else:
            assert mat not in seen.values()
            seen[key] = mat


def test_closed_forms_small():
    # the same blocks, not only the same matrix, as the product of the
    # generator images: the images' block split, the empty word's included
    for n, phi, max_len in ((1, phi1, 5), (2, phi2, 5), (3, phi3, 4)):
        for syms, image in ref.product_images(n, max_len).items():
            assert phi(AWord(syms, n)).blocks == image.blocks, syms
    # long words, where the counts of the precedence triples grow large
    rng = random.Random(17)
    for n, phi in ((2, phi2), (3, phi3)):
        for _ in range(40):
            syms = rng.choices(range(1, n + 1), k=rng.randint(50, 400))
            w = AWord(tuple(syms), n)
            assert phi(w).blocks == ref.product_fold(w).blocks, w


def test_images_match_the_dense_reference_fold():
    rng = random.Random(29)
    for n, phi in ((1, phi1), (2, phi2), (3, phi3)):
        for length in [0, 1, 2, 300] + [rng.randint(3, 300) for _ in range(6)]:
            w = AWord(tuple(rng.choices(range(1, n + 1), k=length)), n)
            assert phi(w).rows == ref.dense_fold(w), w


def _runs_word(rng, n, length):
    """A word of a few long stretches, each over a random set of letters, so
    that first and last occurrences fall deep inside it and the precedence
    counts grow with its length."""
    cuts = sorted(rng.sample(range(1, length), rng.randint(1, 5)))
    syms = []
    for lo, hi in zip([0] + cuts, cuts + [length]):
        letters = rng.sample(range(1, n + 1), rng.randint(1, n))
        syms += rng.choices(letters, k=hi - lo)
    return AWord(tuple(syms), n)


def test_images_decode_to_the_invariant_key():
    # the faithfulness theorem read constructively: an image alone gives
    # back its class's key, for the product of the generator images of
    # every short word and for the library's images of long words
    decode = {1: decode1, 2: decode2, 3: decode3}
    for n, max_len in ((1, 8), (2, 8), (3, 6)):
        for syms, image in ref.product_images(n, max_len).items():
            assert decode[n](image) == invariant_key(AWord(syms, n)), syms
    rng = random.Random(19)
    for n, phi in ((1, phi1), (2, phi2), (3, phi3)):
        for _ in range(6):
            w = _runs_word(rng, n, 10**5)
            assert decode[n](phi(w)) == invariant_key(w)


def test_empty_word_keeps_the_images_split():
    for n, phi in ((1, phi1), (2, phi2), (3, phi3)):
        splits = {M.sizes for M in generator_images(n).values()}
        assert len(splits) == 1, (n, splits)
        assert phi(AWord((), n)).sizes == splits.pop()
    assert phi1(AWord((), 1)).blocks == (((0, NEG_INF), (NEG_INF, 0)),)


def test_wrong_rank_rejected():
    with pytest.raises(RankMismatchError):
        phi2(parse_aword("123", 3))
    with pytest.raises(RankMismatchError):
        phi_n(parse_aword("12", 2))
    with pytest.raises(RankMismatchError):
        phi_ij(parse_aword("12", 2), 1, 2)


# --- component maps for rank >= 4 -----------------------------------------

def test_letter_maps_outer_pair():
    # (1, 4) at n=4 is the mirror-pair case: both components use the same map
    pe = phi_ij(parse_aword("1", 4), 1, 4)
    assert pe.first == canonical(parse_aword("1", 3))
    assert pe.second == canonical(parse_aword("1", 3))
    pe = phi_ij(parse_aword("2", 4), 1, 4)
    assert pe.first == canonical(parse_aword("31", 3))
    pe = phi_ij(parse_aword("4", 4), 1, 4)
    assert pe.first == canonical(parse_aword("3", 3))


def test_letter_maps_nested_pair():
    # (1, 2) at n=4 has 1 < 2 < 3 < 4 as i < j < j# < i#
    pe = phi_ij(parse_aword("3", 4), 1, 2)
    assert pe.first == canonical(AWord((), 3))
    assert pe.second == canonical(parse_aword("2", 3))
    pe = phi_ij(parse_aword("1", 4), 1, 2)
    assert pe.first == canonical(parse_aword("1", 3))
    assert pe.second == canonical(AWord((), 3))


def test_letter_maps_fixed_point_case():
    # (1, 3) at n=5: 3 is self-mirrored, so the two component maps chain
    table = _letter_pair_words(5, 1, 3)
    assert table[1] == ((1,), ())
    assert table[2] == ((2, 1), ())
    assert table[3] == ((2,), (2,))
    assert table[4] == ((), (3, 2))
    assert table[5] == ((), (3,))


def test_letter_maps_interleaved_case():
    # (1, 4) at n=5: 1 < 4# = 2 < 4 < 1# = 5 interleave
    table = _letter_pair_words(5, 1, 4)
    assert table[1] == ((1,), ())
    assert table[2] == ((2, 1), (2,))
    assert table[3] == ((2, 1), (3, 2))
    assert table[4] == ((2,), (3, 2))
    assert table[5] == ((), (3,))


def test_every_index_pair_dispatches():
    # the sorted-points rule gives the maps of the four-family reference
    for n in range(2, 41):
        for (i, j) in index_pairs(n):
            assert _letter_pair_words(n, i, j) == ref._letter_pair_words(n, i, j)


def test_letter_pair_words_rejects_bad_pairs():
    for n, i, j in [(4, 2, 2), (4, 3, 1), (4, 0, 2), (4, 1, 5)]:
        with pytest.raises(ValueError):
            _letter_pair_words(n, i, j)


def test_phi_ij_empty_word():
    pe = phi_ij(AWord((), 4), 2, 3)
    eps = canonical(AWord((), 3))
    assert pe == PairElement(eps, eps)


def test_phi_n_vs_equivalence_small():
    words = words_upto(4, 3)
    tuples = {w.symbols: phi_n(w) for w in words}
    for u in words:
        for w in words:
            assert tuple_equal(tuples[u.symbols], tuples[w.symbols]) \
                == equivalent(u, w)


@settings(max_examples=40)
@given(rank_words(4, 6))
def test_phi_n_sharp_compatible(w):
    assert tuple_equal(phi_n(sharp_word(w)), tuple_sharp(phi_n(w)))


def test_pair_sharp_involution():
    pe = phi_ij(parse_aword("1234", 4), 1, 3)
    assert pair_sharp(pair_sharp(pe)) == pe


def test_materialize():
    t = phi_n(AWord((), 4))
    m = materialize(t)
    assert m.dim == 180
    assert m == identity_matrix(180)


@settings(max_examples=15, deadline=None)
@given(rank_words(4, 5))
def test_materialize_respects_involution(w):
    t = phi_n(w)
    assert materialize(tuple_sharp(t)) == skew_transpose(materialize(t))

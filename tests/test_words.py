import random
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

import reference_routes as ref
from baxt.checker import check, check_baxt4plus, check_plain
from baxt.families import isoterm_search, pk_qk
from baxt.oracle import brute_force_check, enumerate_classes, sample_check
from baxt.semiring import identity_matrix
from baxt.words import (AWord, Atom, Concat, Identity, IVar, ParseError,
                        PivotAbsentError, RangeError, Star, bar, common_ends,
                        content, flatten, format_iword, final_part, id_letter,
                        initial_part, iword, letter_ids, occ, occ_after,
                        occ_before, parse_aword, parse_identity, parse_term,
                        restrict, reverse, star_word, v)

ivars = st.builds(IVar, st.sampled_from("wxyz"), st.booleans())
iwords = st.lists(ivars, max_size=12).map(tuple)

# running example word: x* z x y* x y z z x
U = iword("x* z x y* x y z z x")


def test_content_and_occ():
    assert content(U) == frozenset(iword("x y z x* y*"))
    assert occ(v("x"), U) == 3
    assert occ(v("x*"), U) == 1
    assert occ(v("y"), U) == occ(v("y*"), U) == 1


def test_bar():
    assert bar(U) == iword("x z x y x y z z x")


def test_restrict():
    assert restrict(U, {"x"}) == iword("x* x x x")
    assert restrict(U, {"x", "y"}) == iword("x* x y* x y x")
    assert restrict(U, set()) == ()


def test_occ_before_after():
    assert occ_before(v("y*"), v("x"), U) == 1
    assert occ_after(v("y*"), v("x"), U) == 2
    assert occ_before(v("x"), v("x"), U) == 0
    with pytest.raises(PivotAbsentError):
        occ_before(v("q"), v("x"), U)
    with pytest.raises(PivotAbsentError):
        occ_after(v("q*"), v("x"), U)


def test_initial_final_part():
    assert initial_part(U) == iword("x* z y*")
    assert final_part(U) == iword("y z x")
    assert initial_part(()) == ()


def test_reverse_example():
    u = iword("x x x x x z y* z* z* z* x*")
    assert reverse(u) == iword("x* z* z* z* y* z x x x x x")
    assert reverse(()) == ()
    assert reverse(iword("x")) == iword("x")


def test_star_word():
    assert star_word(iword("x y* z")) == iword("z* y x*")
    assert star_word(()) == ()
    assert star_word(iword("x")) == iword("x*")


@given(iwords)
def test_star_word_involution(u):
    assert star_word(star_word(u)) == u


@given(iwords, iwords)
def test_star_word_antihomomorphism(u, w):
    assert star_word(u + w) == star_word(w) + star_word(u)


@given(iwords)
def test_reverse_involution(u):
    assert reverse(reverse(u)) == u


@given(iwords)
def test_initial_part_counts_bases(u):
    nbases = len({x.base for x in u})
    assert len(initial_part(u)) == nbases
    assert len(final_part(u)) == nbases


@given(iwords, st.sets(st.sampled_from("wxyz")))
def test_restrict_preserves_counts(u, keep):
    r = restrict(u, keep)
    for x in set(u):
        if x.base in keep:
            assert occ(x, r) == occ(x, u)
        else:
            assert occ(x, r) == 0


def test_flatten_nested_example():
    t = parse_term("x(x x(y x*)*)* z y*")
    assert flatten(t) == iword("x y x* x* x* z y*")


def test_flatten_trivial():
    assert flatten(Star(Atom(v("x")))) == iword("x*")
    assert flatten(Star(Star(Atom(v("x"))))) == iword("x")


def test_flatten_idempotent_on_flat_words():
    text = "x y* x* z"
    assert flatten(parse_term(text)) == iword(text)


def test_parse_term_shapes():
    t = parse_term("x*")
    assert t == Star(Atom(v("x")))
    t = parse_term("x(x x(y x*)*)* z y*")
    assert isinstance(t, Concat) and len(t.parts) == 4
    assert t.parts[0] == Atom(v("x"))
    assert isinstance(t.parts[1], Star)


def test_parse_term_identifiers():
    # x2 is one identifier; a bare digit is not a variable
    assert flatten(parse_term("x2")) == (IVar("x2"),)
    with pytest.raises(ParseError):
        parse_term("x 2")


@pytest.mark.parametrize("bad", ["(x", "x)", "", "*x", "()", "x**)"])
def test_parse_term_errors(bad):
    with pytest.raises(ParseError):
        parse_term(bad)


def test_parse_aword():
    w = parse_aword("36131512665", 6)
    assert w.symbols == (3, 6, 1, 3, 1, 5, 1, 2, 6, 6, 5)
    assert parse_aword("", 3) == AWord((), 3)
    assert parse_aword("3, 6, 1", 6).symbols == (3, 6, 1)
    assert parse_aword("10 2", 12).symbols == (10, 2)


def test_parse_aword_errors():
    with pytest.raises(RangeError):
        parse_aword("4", 3)
    with pytest.raises(ParseError):
        parse_aword("1a2", 3)
    with pytest.raises(ParseError):
        parse_aword("12", 11)  # digit form is ambiguous above rank 9
    # ASCII decimal digits only: no '_' or sign, no other scripts' digits
    for text, n, tok, pos in [("1,1_0", 12, "1_0", 1), ("1,+2", 3, "+2", 1),
                              ("١٢", 3, "١", 0), ("１２", 3, "１", 0),
                              ("1 ２", 3, "２", 1), ("٣", 12, "٣", 0)]:
        msg = f"bad letter token '{tok}' at position {pos}"
        with pytest.raises(ParseError, match=re.escape(msg)):
            parse_aword(text, n)
    assert parse_aword("3, 6, 1", 6).symbols == (3, 6, 1)
    assert parse_aword("10 2", 12).symbols == (10, 2)


def test_awords_take_int_letters_and_ranks_only():
    # each of these was once accepted, or refused with a bare TypeError;
    # the message names the first bad letter in word order
    for symbols, rank, msg in [((1.5,), 2, "letter 1.5 "), ((2.0,), 2, "letter 2.0 "),
                               ((True,), 2, "letter True "), (("1",), 2, "letter '1' "),
                               ((1,), 2.5, "rank must be an int"),
                               ((1,), True, "rank must be an int")]:
        with pytest.raises(RangeError, match=re.escape(msg)):
            AWord(symbols, rank)
    # a bad letter is found whatever other letters equal it or follow it
    for symbols, bad in [((1, True), "True"), ((2, 2.0, 1), "2.0"),
                         ((1, 4, "x", 0), "4"), ((2, [1]), "[1]")]:
        with pytest.raises(RangeError, match=re.escape(f"letter {bad} is not an int in 1..3")):
            AWord(symbols, 3)


XXY = parse_identity("x y x ~= x x y")

#: every entry point that takes a rank, length bound, count or size: the
#: parameter's name, its least value and a call that passes it a value
BOUNDED = [pytest.param(name, lo, call, id=id_) for id_, name, lo, call in [
    ("AWord", "rank", 1, lambda n: AWord((), n)),
    ("check", "rank", 1, lambda n: check(XXY, n)),
    ("check-plain", "rank", 1, lambda n: check(XXY, n, "plain")),
    ("check_plain", "rank", 1, lambda n: check_plain(XXY, n)),
    ("check_baxt4plus", "rank", 4, lambda n: check_baxt4plus(XXY, n)),
    ("isoterm_search", "rank", 1,
     lambda n: isoterm_search(iword("x x* y x y x* x x* y*"), n)),
    ("pk_qk", "k", 2, pk_qk),
    ("enumerate_classes", "max_len", 0, lambda m: enumerate_classes(2, m)),
    ("brute_force_check-rank", "rank", 1, lambda n: brute_force_check(XXY, n)),
    ("brute_force_check-jobs", "jobs", 1, lambda j: brute_force_check(XXY, 2, jobs=j)),
    ("brute_force_check-max_len", "max_len", 0,
     lambda m: brute_force_check(XXY, 2, max_len=m)),
    ("sample_check-rank", "rank", 1, lambda n: sample_check(XXY, n, 1, 10)),
    ("sample_check-max_len", "max_len", 0, lambda m: sample_check(XXY, 2, m, 10)),
    ("sample_check-samples", "samples", 1, lambda s: sample_check(XXY, 2, 1, s)),
    ("identity_matrix", "size", 0, identity_matrix),
]]


@pytest.mark.parametrize("name, lo, call", BOUNDED)
def test_every_bound_is_an_int_at_least_its_least_value(name, lo, call):
    # each of these was once refused with a bare TypeError or another
    # parameter's message, or read as an int: check(..., 4.0) reported
    # "n":4.0 and check(..., True) answered at rank 1
    for value, msg in [(2.5, "an int, got 2.5"), (True, "an int, got True"),
                       (float(lo), f"an int, got {float(lo)!r}"),
                       (lo - 1, f">= {lo}, got {lo - 1}")]:
        with pytest.raises(RangeError, match=f"^{re.escape(f'{name} must be {msg}')}$"):
            call(value)


def test_aword_str():
    assert str(parse_aword("2121", 2)) == "2121"
    assert str(AWord((10, 2), 12)) == "10,2"


def test_printed_words_parse_back():
    # above rank 9 a one-letter word of two or more digits prints with a
    # trailing comma, so that it does not read as a digit run
    assert str(AWord((12,), 12)) == "12,"
    assert str(AWord((7,), 12)) == "7"
    for n in range(1, 13):
        for m in range(3):
            for symbols in product(range(1, n + 1), repeat=m):
                w = AWord(symbols, n)
                assert parse_aword(str(w), n) == w
    rng = random.Random(10)
    for n in range(10, 31):
        for _ in range(30):
            w = AWord(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6))), n)
            assert parse_aword(str(w), n) == w


def test_one_digit_words_parse_at_every_rank():
    # one digit is unambiguous above rank 9 too; two or more digits are not
    rng = random.Random(8)
    for n in range(10, 31):
        for a in range(1, 10):
            assert parse_aword(str(a), n) == AWord((a,), n)
        with pytest.raises(ParseError):
            parse_aword("12", n)
        for _ in range(20):
            w = AWord(tuple(rng.randint(1, n) for _ in range(rng.randint(2, 12))), n)
            assert parse_aword(str(w), n) == w


def test_parse_identity():
    idn = parse_identity("x y* ≈ y* x")
    assert idn == Identity(iword("x y*"), iword("y* x"))
    idn = parse_identity("x(x*)* ~= x x")
    assert idn == Identity(iword("x x"), iword("x x"))
    with pytest.raises(ParseError):
        parse_identity("x y")


@pytest.mark.parametrize("text, pos", [
    ("x ~= y $", 7),      # the right side, after '~='
    ("x ≈ y $", 6),       # the right side, after '≈'
    ("x $ ~= y", 2),      # the left side
    ("x ~= x ~= x", 7),   # a second separator
])
def test_parse_identity_errors_index_the_whole_text(text, pos):
    msg = f"bad character {text[pos]!r} at position {pos}"
    with pytest.raises(ParseError, match=re.escape(msg)):
        parse_identity(text)


def test_identity_transforms():
    idn = parse_identity("x y ~= y x")
    assert idn.reversed() == parse_identity("y x ~= x y")
    assert idn.starred() == parse_identity("y* x* ~= x* y*")


def test_format_iword_roundtrip():
    assert iword(format_iword(U)) == U


@given(iwords, iwords)
def test_letter_ids_sort_like_the_letters_and_decode_to_them(lhs, rhs):
    names, u, v = letter_ids(Identity(lhs, rhs))
    assert names == sorted({x.base for x in lhs + rhs})
    assert [id_letter(names, a) for a in u] == list(lhs)
    assert [id_letter(names, a) for a in v] == list(rhs)
    pairs = sorted(set(zip(u + v, lhs + rhs)))
    assert [x for _, x in pairs] == sorted(set(lhs + rhs))


# short id lists over few letters, so that common ends are frequent
ids = st.lists(st.integers(0, 3), max_size=10)


@given(ids, ids)
def test_common_ends_match_the_index_loops(u, v):
    # sides of any lengths, empty ones included
    p, s = common_ends(u, v)
    assert (p, s) == ref.common_ends_loops(u, v)
    assert p + s <= min(len(u), len(v))
    if len(u) == len(v) and u != v:
        assert (p, len(u) - s) == ref._full_window(u, v)


@given(ids)
def test_common_ends_of_a_side_with_itself_or_with_the_empty_side(u):
    assert common_ends(u, u) == (len(u), 0)
    assert common_ends(u, []) == common_ends([], u) == (0, 0)

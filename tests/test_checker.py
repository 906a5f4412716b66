from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from baxt import checker
from baxt.checker import (PlainModeError, check, check_baxt1,
                          check_baxt2, check_baxt3, check_baxt4plus,
                          check_plain, conditions_baxt2, conditions_baxt3,
                          is_balanced)
from baxt.families import basis2, basis4, pk_qk
from baxt.monoid import canonical
from baxt.oracle import eval_substitution
from baxt.words import (AWord, Identity, IVar, ident, iword, parse_identity,
                        restrict)
from definitions import pre, pren, suf, sufn

ivars = st.builds(IVar, st.sampled_from("xyz"), st.booleans())
iwords = st.lists(ivars, min_size=1, max_size=10).map(tuple)


@st.composite
def balanced_identities(draw):
    u = list(draw(iwords))
    w = draw(st.permutations(u))
    return Identity(tuple(u), tuple(w))


some_identities = st.one_of(
    balanced_identities(),
    st.builds(Identity, iwords, iwords),
)


def test_segment_views():
    assert pre(iword("x x x y z")) == iword("x x x")
    assert suf(iword("z y x x")) == iword("x x")
    assert pren(iword("x* y* x z")) == iword("x* y*")
    assert sufn(iword("z x y* y")) == iword("y")
    assert pren(iword("x y z")) == iword("x y z")
    assert sufn(iword("x y z")) == iword("x y z")
    with pytest.raises(ValueError):
        pre(())


def test_is_balanced():
    assert is_balanced(ident("x y", "y x"))
    assert not is_balanced(ident("x y", "x y y"))
    assert is_balanced(ident("x x*", "x* x"))
    assert not is_balanced(ident("x x", "x x*"))


def test_check_baxt1():
    assert check_baxt1(ident("x x*", "x x")).verdict
    assert not check_baxt1(ident("x", "x x")).verdict
    assert check_baxt1(ident("x y", "y* x")).verdict


def test_check_baxt2():
    assert check_baxt2(ident("x h y k x y s x t y",
                             "x h y k y x s x t y")).verdict
    r = check_baxt2(ident("x y", "y x"))
    assert not r.verdict and r.violated == "II"
    assert not check_baxt2(ident("x x* y y*", "x x* y* y")).verdict
    r = check_baxt2(ident("x x*", "x* x"))
    assert not r.verdict and r.violated == "I"


def test_check_baxt3():
    assert check_baxt3(pk_qk(2)).verdict
    r = check_baxt3(ident("x x* y y*", "y y* x x*"))
    assert not r.verdict
    assert is_balanced(ident("x x* y y*", "y y* x x*"))


def test_rank2_basis_row_fails_at_rank_3():
    # the first rank-2 basis row holds at rank 2 but not at rank 3: the
    # occurrence sums left of the first y differ (oracle witness x->1, y->2)
    idn = ident("x* h x k x y s x* t x", "x* h x k y x s x* t x")
    assert check_baxt2(idn).verdict
    r = check_baxt3(idn)
    assert not r.verdict and r.violated == "IV"


def test_check_baxt4plus():
    assert check_baxt4plus(ident("x h y k x y s x t y",
                                 "x h y k y x s x t y")).verdict
    r = check_baxt4plus(pk_qk(2))
    assert not r.verdict and r.violated == "OccLR"
    u = iword("x y* x z")
    assert check_baxt4plus(Identity(u, u)).verdict
    with pytest.raises(ValueError):
        check_baxt4plus(ident("x", "x"), 3)


def test_check_plain():
    assert check_plain(ident("x h y k x y s x t y",
                             "x h y k y x s x t y"), 4).verdict
    assert not check_plain(ident("x y", "y x"), 2).verdict
    assert not check_plain(ident("x y x", "x x y"), 2).verdict
    with pytest.raises(PlainModeError):
        check_plain(ident("x x*", "x* x"), 2)


def test_dispatcher():
    idn = parse_identity("x(x*)* ~= x x")
    assert check(idn, 4).verdict
    assert check(pk_qk(3), 3).verdict
    assert not check(pk_qk(3), 5).verdict
    assert check(ident("x y", "y x"), 1).verdict
    with pytest.raises(ValueError):
        check(ident("x", "x"), 0)
    with pytest.raises(ValueError):
        check(ident("x", "x"), 0, "plain")
    with pytest.raises(ValueError):
        check_plain(ident("x", "x"), 0)
    with pytest.raises(ValueError):
        check(ident("x", "x"), 2, mode="bogus")


def test_verdict_iff_no_violation():
    for idn in [ident("x y", "y x"), ident("x", "x"), pk_qk(2),
                ident("x x*", "x* x")]:
        for n in (1, 2, 3, 4):
            r = check(idn, n)
            assert r.verdict == (r.violated is None)
            assert r.verdict == (r.witness is None)


def test_report_json():
    r = check(ident("x y", "y x"), 4)
    obj = r.to_json_obj()
    assert obj["verdict"] == "NO" and obj["violated"] == "OccLR"
    assert obj["n"] == 4 and obj["mode"] == "involution"


# separation witnesses between consecutive ranks, confirmed against the
# brute-force oracle (see test_acceptance)
W23 = ident("x x* x y x x*", "x x* y x x x*")
W34 = ident("y* x x* x* y x x* x y*", "y* x x* x y x* x* x y*")


def test_rank_separation_witnesses():
    assert check(W23, 2).verdict and not check(W23, 3).verdict
    assert check(W34, 3).verdict and not check(W34, 4).verdict
    assert check(W34, 2).verdict


_LEFT_OR_RIGHT = [
    pytest.param(3, "IV", "y y* y x y x ~= y y* x y y x",
                 {"pivot": "x", "base": "y", "side": "left"}, id="IV-left"),
    pytest.param(3, "IV", "x* x x* y y* y ~= x* x y x* y* y",
                 {"pivot": "x*", "base": "y", "side": "right"}, id="IV-right"),
    pytest.param(3, "IV", "y y* y x y* y ~= y y* x y y* y",
                 {"pivot": "x", "base": "y", "side": "left"}, id="IV-tie"),
] + [
    pytest.param(n, "OccLR", text, {"pivot": "x", "letter": "y", "side": side},
                 id=f"OccLR-{n}-{kind}")
    for n in (4, "plain")
    for text, side, kind in (("y x x ~= x y x", "left", "left"),
                             ("x y x ~= x x y", "right", "right"),
                             ("x y y ~= y x y", "left", "tie"))
]


@pytest.mark.parametrize("n, violated, text, witness", _LEFT_OR_RIGHT)
def test_pivot_witness_takes_the_least_difference_left_first(n, violated, text,
                                                             witness):
    # one tail names every pivot witness: the least letter or base whose
    # counts differ before the pivot (left) or after it (right), and the
    # left side when both differ in the same one
    idn = parse_identity(text)
    report = check(idn, 2, "plain") if n == "plain" else check(idn, n)
    assert report.to_json_obj()["violated"] == violated
    assert report.to_json_obj()["witness"] == witness


@given(some_identities, st.sampled_from([1, 2, 3, 4, 6]))
def test_reverse_and_star_closure(idn, n):
    v0 = check(idn, n).verdict
    assert check(idn.reversed(), n).verdict == v0
    assert check(idn.starred(), n).verdict == v0


@settings(max_examples=60)
@given(balanced_identities(), st.sampled_from([2, 3, 4]))
def test_restriction_closure(idn, n):
    if not check(idn, n).verdict:
        return
    bases = {x.base for x in idn.lhs}
    for b in bases:
        keep = bases - {b}
        sub = Identity(restrict(idn.lhs, keep), restrict(idn.rhs, keep))
        assert check(sub, n).verdict


@given(some_identities)
# (III) with the role y absent and y* present: x x y* then x* against
# x x y* y* then x*, refuted at rank 2 by x -> 1, y -> 2
@example(ident("x x y* x* y* x x*", "x x y* y* x* x x*"))
def test_dual_evaluator_agreement(idn):
    assert conditions_baxt2(idn) == check_baxt2(idn).verdict
    assert conditions_baxt3(idn) == check_baxt3(idn).verdict


def test_literal_conditions_range_over_the_star_closure():
    # (III)/(V) role pairs over the occurring letters alone accepted this
    # identity at rank 2; x -> 2, y -> 1 refutes it there
    idn = parse_identity("y x* x* y* y* y y* ~= y x* y* x* y* y y*")
    assert not conditions_baxt2(idn) and not check(idn, 2).verdict
    assert not conditions_baxt3(idn) and not check(idn, 3).verdict
    sub = {"x": canonical(AWord((2,), 2)), "y": canonical(AWord((1,), 2))}
    assert not eval_substitution(idn, sub)


def test_literal_conditions_agree_with_check_on_all_short_swaps():
    # every word of length <= 6 over x, x*, y, y* that starts with x,
    # against each transposition of two different adjacent letters
    letters = [IVar("x", False), IVar("x", True), IVar("y", False),
               IVar("y", True)]
    count = 0
    for length in range(2, 7):
        for rest in product(letters, repeat=length - 1):
            u = (letters[0],) + rest
            for p in range(length - 1):
                if u[p] == u[p + 1]:
                    continue
                v = u[:p] + (u[p + 1], u[p]) + u[p + 2:]
                idn = Identity(u, v)
                count += 1
                assert conditions_baxt2(idn) == check(idn, 2).verdict, idn
                assert conditions_baxt3(idn) == check(idn, 3).verdict, idn
    assert count == 4779


@given(some_identities)
def test_rank_monotone(idn):
    # identities of a higher rank hold at every lower rank
    v = [check(idn, n).verdict for n in (1, 2, 3, 4)]
    for lo, hi in zip(v, v[1:]):
        assert lo or not hi


def test_basis_families_pass():
    assert all(check(i, 2).verdict for i in basis2())
    assert all(check(i, n).verdict for i in basis4() for n in (2, 3, 4))


def _cuts(monkeypatch, idn, n, mode="involution"):
    """The report of check(idn, n, mode) and how many sides it cut."""
    cut, sides = checker._pieces, []

    def counted(u):
        sides.append(u)
        return cut(u)

    monkeypatch.setattr(checker, "_pieces", counted)
    return check(idn, n, mode), len(sides)


@pytest.mark.parametrize("n, mode, text, violated", [
    (2, "involution", "x y* x z* y ≈ x y* x z* y", None),
    (2, "involution", "x* h x k x y s x* t x ≈ x* h x k y x s x* t x", None),
    (3, "involution", "x y* x z* y ≈ x y* x z* y", None),
    (3, "involution", str(pk_qk(2)), None),
    # sides that differ only inside a short window
    (3, "involution", "a b* c x h y k x y s x t y c a b ≈ "
                      "a b* c x h y k y x s x t y c a b", None),
    # pieces that agree, then a pivot sweep that fails: (IV), and (V)
    (3, "involution", "x* h x k x y s x* t x ≈ x* h x k y x s x* t x", "IV"),
    (3, "involution", "y y* x* y* y* x* ≈ y y* y* x* y* x*", "IV"),
    (3, "involution", "v6 v15 v6* v17 v17* v6 v13* v6* v19* v4 v6 v13 v34 v15* "
                      "v13* v6* ≈ v6 v15 v6* v17 v17* v6* v13* v6 v19* v4 v6 "
                      "v13 v34 v15* v13* v6*", "V"),
    (4, "involution", "x y* x z* y ≈ x y* x z* y", None),
    (7, "involution", str(basis4()[1]), None),
    (2, "plain", str(basis4()[0]), None),
    (5, "plain", "x y x z ≈ x y x z", None),
])
def test_balanced_sides_whose_pieces_agree_are_cut_once_each(monkeypatch, n, mode,
                                                             text, violated):
    # u, v and both reversed: four sides, the rank-3 pivot sweep included;
    # equal sides (the four rows that read "s ≈ s") are decided before
    # their letter ids are built, and nothing is cut
    idn = parse_identity(text)
    report, cuts = _cuts(monkeypatch, idn, n, mode)
    assert report.violated == violated
    assert cuts == (0 if idn.lhs == idn.rhs else 4)


@pytest.mark.parametrize("n, mode", [(2, "involution"), (3, "involution"),
                                     (4, "involution"), (2, "plain")])
def test_only_agreeing_sides_are_cut(monkeypatch, n, mode):
    # unbalanced: nothing is cut; forward pieces that differ: the reversed
    # sides are not cut
    report, cuts = _cuts(monkeypatch, ident("x y", "x y y"), n, mode)
    assert report.violated == "Balanced" and cuts == 0
    report, cuts = _cuts(monkeypatch, ident("x y", "y x"), n, mode)
    assert not report.verdict and cuts == 2

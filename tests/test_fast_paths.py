"""Differential tests: the checker's sweeps and the iterative, regex-lexed
parser against the reference routes they replaced (`reference_routes.py`),
on a fixed-seed corpus and on generated input.  `parse_identity` encodes an
identity of plain letters straight from its tokens and reads any other side
as a term; both readings are tested against the recursive reference parser,
and the encoded identities against ones built from `IVar` sides.  The
misaligned letters that both NO witness searches start from are tested
against the pivots whose counts differ, letter by letter.  A guard times
`check` at 1,000 and 4,000 variables on families whose routes are linear
in the number of variables, and the tropical images at 50,000 and 200,000
letters."""

import gc
import pickle
import random
import re
import sys
import time
import timeit
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import reference_routes as ref
from baxt import checker
from baxt.checker import CheckReport, check
from baxt.families import basis2, basis4, pk_qk
from baxt.represent import phi1, phi2, phi3
from baxt.words import (AWord, Identity, IVar, ParseError, common_ends,
                        format_iword, id_letter, ident, iword, letter_ids,
                        occ_after, occ_before, parse_identity, parse_side,
                        parse_term, restrict, star_word, v)
from definitions import pre, pren, suf, sufn

TEMPLATES = basis2() + basis4() + [pk_qk(2), pk_qk(3)]
PLAIN_TEMPLATES = basis4()


def _instance(rng, template, k, max_len, stars):
    """Substitute a random word over k fresh variables for every variable of
    the template, keeping each side at most max_len letters."""
    names = [f"v{i}" for i in rng.sample(range(4 * k), k)]
    pool = [IVar(b, s) for b in names for s in ((False, True) if stars else (False,))]
    bases = sorted({x.base for x in template.lhs})
    per = max(1, max_len // max(len(template.lhs), len(template.rhs)))
    images = {b: tuple(rng.choices(pool, k=rng.randint(1, per))) for b in bases}

    def subst(side):
        out = []
        for x in side:
            img = images[x.base]
            out.extend(star_word(img) if x.starred else img)
        return tuple(out)

    return Identity(subst(template.lhs), subst(template.rhs))


def _near_miss(rng, idn):
    """Swap one adjacent pair of distinct letters on one side."""
    side = list(idn.rhs if rng.random() < 0.5 else idn.lhs)
    spots = [i for i in range(len(side) - 1) if side[i] != side[i + 1]]
    if not spots:
        return idn
    i = rng.choice(spots)
    side[i], side[i + 1] = side[i + 1], side[i]
    if rng.random() < 0.5:
        return Identity(idn.lhs, tuple(side))
    return Identity(tuple(side), idn.rhs)


def corpus(seed=2024, size=5000):
    """(identity, star-free?) pairs: k = 2..30 variables, at most 200
    letters a side, small k weighted up; half substitution instances of the
    basis rows (and of p2 ~ q2, p3 ~ q3), half near misses, and a few with
    a letter dropped."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        plain = rng.random() < 0.2
        k = min(rng.randint(2, 30), rng.randint(2, 30), rng.randint(2, 30))
        template = rng.choice(PLAIN_TEMPLATES if plain else TEMPLATES)
        idn = _instance(rng, template, k, rng.choice((12, 24, 40, 80, 200)), not plain)
        if rng.random() < 0.5:
            idn = _near_miss(rng, idn)
        elif rng.random() < 0.05:
            idn = Identity(idn.lhs, idn.rhs[1:])
        out.append((idn, plain))
    return out


def reference_check(idn, n, mode="involution"):
    if n == 1:
        return ref.check_rank1(idn, mode)
    if mode == "plain" or n >= 4:
        return ref._occ_lr_check(idn, n, mode)
    return ref._procedure_check(idn, n)


def test_corpus_reports_match_the_reference_routes():
    cases = corpus()
    assert len(cases) >= 5000
    verdicts = set()
    for idn, plain in cases:
        for n in (1, 2, 3, 4, 5):
            report = check(idn, n)
            assert report == reference_check(idn, n), (str(idn), n)
            verdicts.add((n, report.violated))
        if plain:
            for n in (1, 2):
                assert check(idn, n, "plain") == reference_check(idn, n, "plain")
    # every kind of violation occurs in the corpus
    for n, tag in [(1, "Balanced"), (2, "I"), (2, "II"), (2, "III"), (3, "III"),
                   (3, "IV"), (3, "V"), (4, "OccLR"), (5, None)]:
        assert (n, tag) in verdicts, (n, tag)


def test_rank1_reports_print_as_the_reference():
    unbalanced = [ident("x", "x x"), ident("x y* y", "y x x*"),
                  ident("a b", "b* c"), ident("x x*", "")]
    for idn in basis2() + unbalanced:
        assert check(idn, 1).to_json() == ref.check_rank1(idn).to_json(), str(idn)
    # the witness names the first base, in sorted order, whose counts differ
    assert check(ident("y x* y", "x y x*"), 1).to_json() == (
        '{"verdict":"NO","n":1,"mode":"involution","violated":"Balanced",'
        '"witness":{"letter":"x","lhs":1,"rhs":2}}')


def named_statistic(u, report):
    """The statistic a NO report's witness names, on the side u, from the
    paper's definitions: of u restricted to the witness pair's bases for
    the segment views, of u itself for the directional counts."""
    w = report.witness
    if "pair" in w:
        r = restrict(u, w["pair"])
        view = {"pre": pre, "pren": pren, "suf": suf, "sufn": sufn}[w["check"]]
        seg = view(r)
        if w["side"] == "left":
            beside = r[len(seg):len(seg) + 1]  # the letter right after
        else:
            end = len(r) - len(seg)
            beside = r[end - 1:end] if end else ()  # the letter right before
        if w["check"] in ("pre", "suf"):
            return seg, beside
        # a multiset, pinned by its adjacent letter at rank 3 only
        return Counter(seg), beside if report.rank == 3 else None
    count = occ_before if w["side"] == "left" else occ_after
    pivot = v(w["pivot"])
    if report.violated == "IV":
        return sum(count(pivot, IVar(w["base"], starred), u) for starred in (False, True))
    return count(pivot, v(w["letter"]), u)  # V and OccLR


def test_no_reports_name_a_statistic_that_differs():
    checked = Counter()
    for idn, plain in corpus():
        runs = [(n, "involution") for n in (1, 2, 3, 4, 5)]
        if plain:
            runs += [(1, "plain"), (2, "plain")]
        for n, mode in runs:
            report = check(idn, n, mode)
            if report.verdict:
                continue
            w = report.witness
            if report.violated == "Balanced":
                # rank 1 counts a base, star-blind; other ranks a letter
                if report.rank == 1:
                    lhs, rhs = ([x.base for x in side].count(w["letter"])
                                for side in (idn.lhs, idn.rhs))
                else:
                    lhs, rhs = (side.count(v(w["letter"]))
                                for side in (idn.lhs, idn.rhs))
                assert lhs != rhs, (str(idn), n, mode)
                assert (w["lhs"], w["rhs"]) == (lhs, rhs), (str(idn), n, mode)
            else:
                lhs, rhs = (named_statistic(side, report) for side in (idn.lhs, idn.rhs))
                assert lhs != rhs, (str(idn), n, mode, w)
            checked[n, mode, report.violated, w.get("check")] += 1
    for key in [(1, "involution", "Balanced", None), (2, "involution", "I", "pre"),
                (2, "involution", "II", "suf"), (2, "involution", "III", "pren"),
                (3, "involution", "III", "sufn"), (3, "involution", "IV", None),
                (3, "involution", "V", None), (4, "involution", "OccLR", None),
                (2, "plain", "OccLR", None)]:
        assert checked[key], key


ivars = st.builds(IVar, st.sampled_from(["a", "b", "c", "d", "x1"]), st.booleans())


@st.composite
def shuffled_identities(draw):
    u = draw(st.lists(ivars, min_size=1, max_size=14))
    w = list(draw(st.permutations(u)))
    if draw(st.booleans()) and len(w) > 1:
        i = draw(st.integers(0, len(w) - 2))
        w[i], w[i + 1] = w[i + 1], w[i]
    return Identity(tuple(u), tuple(w))


@settings(max_examples=300)
@given(shuffled_identities(), st.sampled_from([2, 3, 4, 7]))
def test_generated_reports_match_the_reference_routes(idn, n):
    assert check(idn, n) == reference_check(idn, n)


@settings(max_examples=300)
@given(shuffled_identities(), st.sampled_from([1, 2, 3, 4]))
def test_verdicts_without_witness(idn, n):
    report = check(idn, n)
    assert check(idn, n, witness=False) == CheckReport(report.verdict, n, "involution")


def test_rank2_leaves_the_order_of_second_letters_free():
    # x* and y* first occur in a different order from the right (x before
    # y on the left side, y before x on the right one) with no x* or y*
    # between them: rank 2 accepts, rank 3 pins that order
    idn = parse_identity("y x y y x x* y* ~= y x y x y x* y*")
    assert check(idn, 2).verdict
    for n in (2, 3, 4):
        assert check(idn, n) == reference_check(idn, n)


def test_wide_checks_take_memory_linear_in_the_input():
    # 3000 letters: tables indexed by pairs of letters would take 4 * 3000^2
    # entries, hundreds of MB
    rng = random.Random(3)
    pool = [IVar(f"v{i:04}", s) for i in range(1500) for s in (False, True)]
    u = (pool[0], pool[2]) + tuple(rng.choices(pool, k=6000)) + tuple(pool)
    swapped = (u[1], u[0]) + u[2:]  # a NO whose witness comes first in order
    tracemalloc.start()
    try:
        for n in (2, 3, 4):
            assert check(Identity(u, u), n).verdict
            assert not check(Identity(u, swapped), n).verdict
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# NO witnesses: only the subsets and pivots that hold a misaligned letter
# ---------------------------------------------------------------------------

def _letter_pool(k, stars):
    names = [f"v{i:04}" for i in range(k)]
    return [IVar(b, s) for b in names for s in ((False, True) if stars else (False,))]


def swapped_first(rng, k, stars):
    """A NO whose first two letters, of the two bases that sort last, are
    swapped over a shared body of 10 k letters: the window holds only those
    two bases, and with no common prefix no base is settled."""
    body = tuple(rng.choices(_letter_pool(k, stars), k=10 * k))
    a, b = IVar(f"v{k - 2:04}"), IVar(f"v{k - 1:04}")
    return Identity((a, b) + body, (b, a) + body)


def false_core(rng, k, stars):
    """check-wide's NO shape: the false core x y ~= y x among k fresh
    variables, the core's names in the middle of the sorted order, entered
    after the first third of each side.  Each of the three fresh pieces
    holds every fresh letter (check-wide's pieces hold each ~10 times), so
    the window reaches almost every base and only the core is unsettled."""
    pool = _letter_pool(k + 2, stars)
    x, y = (IVar(f"v{k // 2 + i:04}") for i in (0, 1))
    fresh = [t for t in pool if t.base not in (x.base, y.base)]
    pieces = []
    for _ in range(3):
        piece = fresh + rng.choices(fresh, k=len(fresh))
        rng.shuffle(piece)
        pieces.append(tuple(piece))
    p0, p1, p2 = pieces
    return Identity(p0 + (x,) + p1 + (y,) + p2, p0 + (y,) + p1 + (x,) + p2)


def far_apart(rng, k, stars):
    """A random side with its first two and its last two letters, each
    pair of two bases, swapped: the window spans the side and nothing is
    settled, so the witness search scans every subset and pivot."""
    a, b, c, d = (IVar(f"v{i:04}", stars and rng.random() < 0.5)
                  for i in rng.sample(range(k), 2) + rng.sample(range(k), 2))
    body = tuple(rng.choices(_letter_pool(k, stars), k=10 * k))
    return Identity((a, b) + body + (c, d), (b, a) + body + (d, c))


WITNESS_SHAPES = (swapped_first, false_core, far_apart)
WITNESS_RUNS = ((2, "involution"), (3, "involution"), (4, "involution"),
                (5, "involution"), (2, "plain"))


@pytest.mark.parametrize("shape", WITNESS_SHAPES)
def test_no_witness_shapes_match_the_reference_routes(shape):
    rng = random.Random(18)
    for k in (3, 3, 4, 12, 12, 40, 120):
        for n, mode in WITNESS_RUNS:
            idn = shape(rng, k, mode == "involution")
            report = check(idn, n, mode)
            assert not report.verdict, (shape.__name__, k, n, mode)
            assert report.to_json() == reference_check(idn, n, mode).to_json(), (
                shape.__name__, k, n, mode)


def test_reports_match_the_reference_routes_when_a_span_is_shuffled():
    # a common prefix and suffix of every length around the difference,
    # over few bases, so that bases outside the window, settled ones and
    # ones reached on one count only meet in the first differing subset
    rng = random.Random(18)
    nos = 0
    for _ in range(1500):
        k = rng.randint(1, 6)
        n, mode = rng.choice(WITNESS_RUNS)
        u = rng.choices(_letter_pool(k, mode == "involution"), k=rng.randint(2, 40))
        a = rng.randrange(len(u) - 1)
        b = rng.randint(a + 2, len(u))
        middle = u[a:b]
        rng.shuffle(middle)
        idn = Identity(tuple(u), tuple(u[:a] + middle + u[b:]))
        report = check(idn, n, mode)
        assert report.to_json() == reference_check(idn, n, mode).to_json(), (
            str(idn), n, mode)
        nos += not report.verdict
    assert nos >= 500, nos


def _differing_pivots(u, v, pu, pv):
    """The letters of balanced sides u, v that see a different count of
    some other letter before their first occurrence, or after their last,
    letter by letter."""
    return {x for x in set(u) for y in set(u) if y != x and (
        bisect_left(pu[y], pu[x][0]) != bisect_left(pv[y], pv[x][0])
        or len(pu[y]) - bisect_right(pu[y], pu[x][-1])
        != len(pv[y]) - bisect_right(pv[y], pv[x][-1]))}


def _defined_differences(idn, names, x):
    """Per letter whose counts differ, its count on the left side less that
    on the right before the first pivot x, and after the last, by
    `occ_before` and `occ_after`."""
    pivot = id_letter(names, x)
    out = []
    for count in (occ_before, occ_after):
        diffs = {y: count(pivot, id_letter(names, y), idn.lhs)
                 - count(pivot, id_letter(names, y), idn.rhs)
                 for y in range(2 * len(names))}
        out.append({y: d for y, d in diffs.items() if d})
    return tuple(out)


def test_misaligned_letters_are_the_pivots_whose_counts_differ():
    # the rule behind both witness searches: a pivot's counts differ
    # exactly when it is misaligned, and a base subset whose statistics
    # differ holds a misaligned letter
    rng = random.Random(27)
    shuffled = []
    for _ in range(3000):
        u = rng.choices(_letter_pool(rng.randint(1, 8), True), k=rng.randint(2, 30))
        w = u.copy()
        i, j = sorted(rng.sample(range(len(u)), 2))
        part = w[i:j + 1]
        rng.shuffle(part)
        w[i:j + 1] = part
        shuffled.append(Identity(tuple(u), tuple(w)))
    seen = Counter()
    cases = shuffled + [idn for idn, _ in window_pairs(random.Random(19), 2000)]
    for number, idn in enumerate(cases):
        names, u, v = letter_ids(idn)
        if u == v or sorted(u) != sorted(v):
            continue
        size = 2 * len(names)
        p, s = common_ends(u, v)
        pu, pv = checker._positions(u, size), checker._positions(v, size)
        bad = checker._misaligned(u, v, pu, pv, p, len(u) - s)
        assert bad == _differing_pivots(u, v, pu, pv), str(idn)
        seen["misaligned"] += bool(bad)
        if number < 500:
            # the count differences of every pivot, from the definitions,
            # which take O(k^2 |u|) per identity
            for x in set(u):
                if x not in bad:
                    with pytest.raises(AssertionError):
                        checker._differences(pu, pv, x)
                    continue
                assert checker._differences(pu, pv, x) == _defined_differences(
                    idn, names, x), (str(idn), x)
                seen["differences"] += 1
        views = [checker._View(w, size) for w in (u, v, u[::-1], v[::-1])]
        for i in range(len(names)):
            for j in range(i, len(names)):
                if j == i and views[0].two[i] is None:
                    continue
                for strict in (False, True):
                    fu, fv, bu, bv = (w.stats(i, j, strict) for w in views)
                    if fu != fv or bu != bv:
                        assert {i, j} & {x >> 1 for x in bad}, (str(idn), i, j)
                        seen["differing subsets"] += 1
    assert seen["misaligned"] >= 2500 and seen["differing subsets"] >= 20000, seen
    assert seen["differences"] >= 1000, seen


@pytest.mark.parametrize("shape", [swapped_first, false_core])
def test_no_witness_work_is_linear_in_the_variables(monkeypatch, shape):
    # a scan over every subset or pivot makes 80k-2.5M bisections on these
    # shapes, 16-260 times the bound; the subsets and pivots that hold a
    # misaligned letter, at most 20 k
    calls = Counter()
    for name in ("bisect_left", "bisect_right"):
        def counted(*args, real=getattr(checker, name)):
            calls["bisect"] += 1
            return real(*args)
        monkeypatch.setattr(checker, name, counted)
    rng = random.Random(18)
    for k in (200, 400):
        for n, mode in WITNESS_RUNS:
            idn = shape(rng, k, mode == "involution")
            calls.clear()
            assert not check(idn, n, mode).verdict
            assert calls["bisect"] <= 24 * k, (k, n, mode, calls)


# ---------------------------------------------------------------------------
# Verdicts over the window between the common prefix and suffix
# ---------------------------------------------------------------------------

def window_pairs(rng, size):
    """(identity, star-free?) pairs: a shared random prefix and suffix of
    0-20 letters, over k = 1..12 variables, around a middle of 1-20
    letters that the other side keeps, swaps once, swaps twice far apart,
    shuffles in a sub-range or shuffles whole, or changes in one letter
    (a one-letter window) or drops one letter from, or a (V) shape; and
    the empty sides."""
    out = [(Identity((), ()), True)]
    for _ in range(size):
        plain = rng.random() < 0.25
        pool = _letter_pool(rng.randint(1, 12), not plain)
        head, mid, tail = (rng.choices(pool, k=rng.randint(lo, 20))
                           for lo in (0, 1, 0))
        other, shape = mid.copy(), rng.randrange(8)
        i, j = sorted(rng.sample(range(len(mid)), 2)) if len(mid) > 1 else (0, 0)
        if shape == 1:
            # half the time with a letter of the same base, which keeps
            # every star-blind count
            partners = [t for t, x in enumerate(mid) if x == mid[i].star()]
            if partners and rng.random() < 0.5:
                j = rng.choice(partners)
            other[i], other[j] = other[j], other[i]
        elif shape == 2:
            h = len(mid) // 2
            for a, b in ((0, h), (h, len(mid))):
                if b - a > 1:
                    x, y = rng.sample(range(a, b), 2)
                    other[x], other[y] = other[y], other[x]
        elif shape == 3:
            part = other[i:j + 1]
            rng.shuffle(part)
            other[i:j + 1] = part
        elif shape == 4:
            rng.shuffle(other)
        elif shape == 5:
            other[i] = rng.choice(pool)
        elif shape == 6:
            del other[i]
        elif not plain:
            # x and x* swapped around a letter new to the side, with both
            # before and after them: the counts before that pivot differ
            # only in x against x*, a (V) shape
            x, y = rng.sample(pool, 2)
            head = [t for t in head if t.base != y.base] + [x, x.star()]
            tail += [x, x.star()]
            mid, other = [x, y, x.star()], [x.star(), y, x]
        out.append((Identity(tuple(head + mid + tail), tuple(head + other + tail)),
                    plain))
    return out


def test_window_reports_match_the_full_side_sweep():
    # the sweeps compare only the pieces that meet the window; the
    # reference cuts, compares and sweeps both whole sides
    kinds = Counter()
    for idn, plain in window_pairs(random.Random(19), 4000):
        runs = [(n, "involution") for n in (2, 3, 4, 5)]
        if plain:
            runs += [(2, "plain"), (5, "plain")]
        for n, mode in runs:
            report = check(idn, n, mode)
            assert report.to_json() == ref.full_sweep_check(idn, n, mode).to_json(), (
                str(idn), n, mode)
            kinds[report.violated] += 1
        if len(idn.lhs) != len(idn.rhs):
            kinds["unequal lengths"] += 1
        elif idn.lhs == idn.rhs:
            kinds["equal"] += 1
        else:
            p, e = ref._full_window(idn.lhs, idn.rhs)
            kinds["window at the start"] += p == 0
            kinds["window at the end"] += e == len(idn.lhs)
            kinds["one-letter window"] += e - p == 1
    for kind in (None, "Balanced", "I", "II", "III", "IV", "V", "OccLR", "equal",
                 "unequal lengths", "window at the start", "window at the end",
                 "one-letter window"):
        assert kinds[kind] >= 20, (kind, kinds)


# ---------------------------------------------------------------------------
# The rank-2 merge and the rank-3 pivot sweep against their reference loops
# ---------------------------------------------------------------------------

def test_open_segments_match_the_reference_merge():
    # random whole sides as letter ids; a side of few bases holds long
    # runs of second letters, which merge into groups of many pieces
    rng = random.Random(26)
    groups = Counter()
    for _ in range(3000):
        size = 2 * rng.randint(1, 8)
        u = rng.choices(range(size), k=rng.randint(1, 40))
        cut = ref._full_pieces(u)
        assert checker._pieces(u) == cut == checker._pieces(tuple(u)), u
        for strict in (False, True):
            out = checker._open_segments(u, *cut, strict)
            assert [(tuple(g), o) for g, o in out] == ref._full_open_segments(
                u, cut, size, strict), (u, strict)
            groups[strict, min(max(len(g) for g, _ in out), 3)] += 1
    assert groups[False, 3] >= 200 and groups[True, 1] == 3000, groups


def test_long_sides_are_cut_as_the_reference_cuts():
    # sides of 2,000-10,000 letters over 25-5,000 bases: random ones, ones
    # whose letters are almost all distinct, and ones whose letters first
    # occur after a long run of one letter, where each cut's search starts
    # far from position 0
    rng = random.Random(29)
    for i in range(200):
        bases, length = rng.randint(25, 5000), rng.randint(2000, 10000)
        pool = range(2 * bases)
        if i % 3 == 0:
            u = rng.choices(pool, k=length)
        elif i % 3 == 1:
            u = rng.sample(range(2 * max(bases, length)), length)
            for j in rng.sample(range(length), 20):
                u[j] = rng.choice(u)
        else:
            head = rng.randint(length // 2, length - 1)
            u = [rng.choice(pool)] * head + rng.choices(pool, k=length - head)
        assert checker._pieces(u) == ref._full_pieces(u) == checker._pieces(tuple(u)), i


def iv_family(k):
    """H z1 f1 ... zk fk H ~= H z1 ... zk f1 ... fk H with H = f1 f1* ...
    fk fk*: the segments agree, and from z2 on every pivot fails (IV) and
    (V), before more letters and bases each time."""
    fs, zs = [f"f{i:03}" for i in range(k)], [f"z{i:03}" for i in range(k)]
    head = " ".join(f"{f} {f}*" for f in fs)
    lhs = " ".join(f"{z} {f}" for z, f in zip(zs, fs))
    return parse_identity(f"{head} {lhs} {head} ~= {head} {' '.join(zs + fs)} {head}")


def _pivot_sweeps(idn):
    """Per reading of a balanced identity with unequal sides whose rank-3
    segments agree over every piece: the pivot sweep over the span that
    `checker._sweep_check` reads, and the reference sweep over every
    piece from empty counts."""
    names, u, v = letter_ids(idn)
    if u == v or sorted(u) != sorted(v):
        return
    size = 2 * len(names)
    p, s = common_ends(u, v)
    e = len(u) - s
    for a, b, lo, hi in ((u, v, p, e), (u[::-1], v[::-1], len(u) - e, len(u) - p)):
        ca, cb = ref._full_pieces(a), ref._full_pieces(b)
        if (ref._full_open_segments(a, ca, size, True)
                != ref._full_open_segments(b, cb, size, True)):
            continue
        pa, pb = ca[1], cb[1]
        i, j = max(bisect_left(pa, (lo,)) - 1, 0), bisect_left(pa, (hi,))
        yield (checker._pivot_sweep(a, b, pa[i:j], pb[i:j], ca[0], size),
               ref._full_pivot_sweep(a, b, pa, pb, size))


def test_pivot_sweep_matches_the_full_sweep():
    rng = random.Random(26)
    rank3 = []
    for _ in range(3000):
        u = rng.choices(_letter_pool(rng.randint(1, 8), True), k=rng.randint(2, 30))
        w = u.copy()
        i, j = sorted(rng.sample(range(len(u)), 2))
        part = w[i:j + 1]
        rng.shuffle(part)
        w[i:j + 1] = part
        rank3.append(Identity(tuple(u), tuple(w)))
    failing = Counter()
    for idn in [idn for idn, _ in window_pairs(random.Random(19), 2000)] + rank3:
        for fast, full in _pivot_sweeps(idn):
            assert fast == tuple(map(set, full)), str(idn)
            failing["IV"] += len(fast[0])
            failing["V"] += len(fast[1])
    assert failing["IV"] >= 400 and failing["V"] >= 400, failing
    for k in (2, 3, 7, 20, 50):
        sweeps = list(_pivot_sweeps(iv_family(k)))
        assert len(sweeps) == 2, k
        for fast, full in sweeps:
            assert fast == tuple(map(set, full)), k
            assert len(fast[0]) == len(fast[1]) == k - 1, k
        assert check(iv_family(k), 3).violated == "IV"
    # the witness of the least failing pivot, named from its count
    # differences, against the reference's witnesses of every failing pivot
    # ((V) witnesses are pinned by the window pairs' own test)
    witnesses = Counter()
    for idn in [iv_family(k) for k in (2, 3, 7, 20, 50)] + rank3:
        report = check(idn, 3)
        assert report.to_json() == ref.full_sweep_check(idn, 3).to_json(), str(idn)
        witnesses[report.violated] += 1
    assert witnesses["IV"] >= 50, witnesses


# ---------------------------------------------------------------------------
# Time linear in the number of variables
# ---------------------------------------------------------------------------

def _best_times(idns, n, mode, witness):
    """The least time of `check` on each identity over 5 rounds, one
    call on each per round, so a burst of load on the machine slows a
    call on every identity, not all the calls on one.  The collector is
    off, as timeit times: a full collection walks every live object of the
    session, whatever the size of the check."""
    best = [float("inf")] * len(idns)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for i, idn in enumerate(idns):
                start = time.perf_counter()
                check(idn, n, mode, witness)
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _far_apart(mode):
    return lambda k: far_apart(random.Random(26), k, mode == "involution")


def _changed_side(change, stars):
    """A random side of 10 k letters against a copy of it that change
    rearranges in place."""
    def family(k):
        rng = random.Random(26)
        u = rng.choices(_letter_pool(k, stars), k=10 * k)
        w = u.copy()
        change(rng, w)
        return Identity(tuple(u), tuple(w))
    return family


def _swap_tail(rng, w):
    w[-3], w[-2] = w[-2], w[-3]


def basis4_instance(k):
    """The basis row x h y k x y s x t y ~= x h y k y x s x t y with a
    random image of 2 k letters over k variables for each of its
    variables: a YES at every rank, with a window of at most 4 k letters."""
    rng, row = random.Random(26), basis4()[0]
    images = {b: rng.choices(_letter_pool(k, True), k=2 * k) for b in "hkstxy"}
    return Identity(*(tuple(t for x in side for t in images[x.base])
                      for side in (row.lhs, row.rhs)))


def late_letters(k):
    """z^{2k} v1 ... vk z ~= z^{2k} vk ... v1 z: a NO whose k fresh letters
    first occur after a head of 2 k copies of z, so a search for each cut
    from position 0 would take time quadratic in k."""
    head, vs = (IVar("z"),) * (2 * k), [IVar(f"v{i:06}") for i in range(k)]
    return Identity(head + tuple(vs) + head[:1], head + tuple(vs[::-1]) + head[:1])


# each row names the docstring whose bound it holds the checker to
K_SCALING = [
    pytest.param(pk_qk, 2, "involution", True, id="pk_qk-n2-_open_segments"),
    pytest.param(pk_qk, 3, "involution", True, id="pk_qk-n3-_pivot_sweep"),
    pytest.param(lambda k: swapped_first(random.Random(26), k, True), 3, "involution",
                 True, id="swapped_first-n3-_subset_violation"),
    pytest.param(_far_apart("involution"), 1, "involution", True,
                 id="far_apart-n1-check_baxt1"),
] + [
    pytest.param(_far_apart("involution"), n, "involution", False,
                 id=f"far_apart-n{n}-no_witness-checker")
    for n in (2, 3, 4)
] + [
    pytest.param(_far_apart(mode), n, mode, True, id=f"far_apart-n{n}-{mode}-{search}")
    for n, mode, search in ((2, "involution", "_subset_violation"),
                            (3, "involution", "_subset_violation"),
                            (4, "involution", "_differences"),
                            (5, "involution", "_differences"),
                            (2, "plain", "_differences"))
] + [
    pytest.param(_changed_side(random.Random.shuffle, True), 2, "involution", True,
                 id="shuffled-n2-_subset_violation"),
    pytest.param(_changed_side(random.Random.shuffle, True), 4, "involution", True,
                 id="shuffled-n4-_differences"),
    pytest.param(_changed_side(_swap_tail, True), 3, "involution", True,
                 id="tail_swap-n3-_subset_violation"),
    pytest.param(_changed_side(_swap_tail, False), 2, "plain", True,
                 id="tail_swap-n2-plain-_differences"),
    pytest.param(basis4_instance, 3, "involution", True, id="basis4-n3-yes-_sweep_check"),
    pytest.param(basis4_instance, 4, "involution", True, id="basis4-n4-yes-_sweep_check"),
    pytest.param(iv_family, 3, "involution", False,
                 id="iv_family-n3-no_witness-_pivot_sweep"),
    pytest.param(iv_family, 3, "involution", True, id="iv_family-n3-_differences"),
] + [
    pytest.param(late_letters, n, "involution", True, id=f"late_letters-n{n}-_pieces")
    for n in (2, 4)
]


@pytest.mark.parametrize("family, n, mode, witness", K_SCALING)
def test_check_time_is_linear_in_the_variables(family, n, mode, witness):
    # 4 times the variables: about 4 times the time if linear, 16 if
    # quadratic
    small, large = _best_times([family(1000), family(4000)], n, mode, witness)
    assert large < 8 * small, (small, large)


def _best_image_times(phi, words):
    """The least time of phi on each word over 3 rounds, one timing of each
    per round, the collector off.  phi1 takes about a microsecond whatever
    the word, so each timing repeats its call, doubling the count until the
    first word's takes 5 ms, and the timer's resolution does not decide the
    ratio."""
    timers = [timeit.Timer(partial(phi, w)) for w in words]
    number = 1
    while timers[0].timeit(number) < 0.005:
        number *= 2
    best = [float("inf")] * len(timers)
    for _ in range(3):
        for i, t in enumerate(timers):
            best[i] = min(best[i], t.timeit(number))
    return best


@pytest.mark.parametrize("phi, n", [(phi1, 1), (phi2, 2), (phi3, 3)],
                         ids=["phi1", "phi2", "phi3"])
def test_image_time_is_linear_in_the_word(phi, n):
    # 4 times the letters: at most 4 times the time, the bound each image's
    # docstring states
    rng = random.Random(n)
    words = [AWord(tuple(rng.choices(range(1, n + 1), k=k)), n)
             for k in (50_000, 200_000)]
    small, large = _best_image_times(phi, words)
    assert large < 8 * small, (small, large)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

TERM_TEXT = st.lists(
    st.sampled_from(list("xyz_()* \t\n\u00a0²é٣-") + ["x1", "y*", "ab"]),
    max_size=30).map("".join)


def _parse(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


@settings(max_examples=500)
@given(TERM_TEXT)
def test_parser_matches_the_reference(text):
    assert _parse(parse_term, text) == _parse(ref.parse_term, text)


@settings(max_examples=300)
@given(st.text(max_size=20))
def test_parser_matches_the_reference_on_any_text(text):
    assert _parse(parse_term, text) == _parse(ref.parse_term, text)


@pytest.mark.parametrize("text", [
    "x y* ~= y* x", "x(x x(y x*)*)* z y* ≈ x", "( x ) * * ~= x", "x * ~= x*",
    "(x y)* z ~= z*", "é1 ~= é1", "a ~= ²", "x ~= (y", "x ~= y)", "x ~= *",
    "x* y ~= y x*", "x *y ~= x", "x*y ~= y x*", "x y ~= y x",
    "x** y*** ~= y* x", "x²* ~= x²",
])
def test_identity_parse_matches_the_reference(text):
    assert _parse(parse_identity, text) == _parse(ref.parse_identity, text)


# sides of letters only: identifiers with 0-3 stars attached, separated
# by whitespace of any kind, so each is read by the split route
PLAIN_SIDE = st.lists(
    st.tuples(st.sampled_from(["x", "y", "_z", "é1", "x²", "ab"]),
              st.integers(0, 3), st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"])),
    max_size=8).map(lambda toks: "".join(b + "*" * k + gap for b, k, gap in toks))
SIDE = st.one_of(TERM_TEXT, PLAIN_SIDE, st.text(max_size=20))


@settings(max_examples=2000)
@given(SIDE, st.sampled_from(["~=", " ~= ", "≈"]), SIDE)
def test_identities_parse_as_the_reference(lhs, sep, rhs):
    text = lhs + sep + rhs
    assert _parse(parse_identity, text) == _parse(ref.parse_identity, text)


LETTERS = st.builds(IVar, st.sampled_from(["x", "y", "_z", "é1", "ab"]), st.booleans())
IWORDS = st.lists(LETTERS, min_size=1, max_size=12).map(tuple)


@given(PLAIN_SIDE)
def test_letters_and_words_read_tokens_as_the_parser(text):
    # the shorthands `v`, `iword` and `ident` read a token as `parse_side`
    # does: x** is x, and x*** is x*
    word = parse_side(text) if text.split() else ()
    assert iword(text) == tuple(map(v, text.split())) == word
    assert ident(text, "x**") == Identity(word, (IVar("x"),))


def test_letters_that_the_parser_refuses_are_refused():
    for tok in ("1", "(", "*", "", "x)", "x y"):
        with pytest.raises(ParseError):
            v(tok)
    with pytest.raises(ParseError):
        iword("1 ( *")
    assert iword("(x y)*") == parse_side("y* x*")
    assert check(ident("x**", "x"), 2).verdict
    assert ident("x**", "x") == parse_identity("x** ~= x")


@given(IWORDS, IWORDS)
def test_printed_identities_parse_back(u, w):
    assert parse_identity(f"{format_iword(u)} ~= {format_iword(w)}") == Identity(u, w)


def _typed(word, doubled):
    """The word as typed, with two more stars on the letters flagged in
    doubled (x** reads as x, x*** as x*)."""
    return " ".join(str(x) + "**" * d for x, d in zip(word, doubled))


def _agree(a, b):
    assert a == b and hash(a) == hash(b)
    assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
    assert str(a) == str(b) and repr(a) == repr(b)
    assert letter_ids(a) == letter_ids(b)


@given(IWORDS, IWORDS, st.lists(st.booleans(), min_size=24, max_size=24))
def test_encoded_identities_agree_with_ones_built_from_letters(u, w, doubled):
    left, right = _typed(u, doubled[:12]), _typed(w, doubled[12:])
    assert (parse_side(left), parse_side(right)) == (u, w)

    def forms():
        # fresh each time, since comparing them derives their other form:
        # as parsed (letter ids only), built from letters (letters only),
        # and built from letters holding its letter ids too
        both = Identity(u, w)
        letter_ids(both)
        return (parse_identity(f"{left} ~= {right}"),
                Identity(parse_side(left), parse_side(right)), both)

    # each map beside the letter-id arithmetic it applies; the oracle's
    # process pool may carry identities
    same = lambda ids: ids
    for op, on_ids in ((lambda i: i, same),
                       (Identity.reversed, ref.reversed_ids),
                       (Identity.starred, ref.starred_ids),
                       (lambda i: i.starred().reversed(),
                        lambda ids: ref.reversed_ids(ref.starred_ids(ids))),
                       (lambda i: pickle.loads(pickle.dumps(i)), same)):
        want = on_ids(letter_ids(Identity(u, w)))
        encoded, built, both = map(op, forms())
        _agree(encoded, built)
        _agree(encoded, both)
        assert [letter_ids(i) for i in (encoded, built, both)] == [want] * 3
    encoded = forms()[0]
    assert encoded != Identity(w, u) or u == w
    assert encoded != Identity(u + u, w)


@given(IWORDS, IWORDS, st.booleans())
def test_identities_with_a_term_side_agree_with_the_reference(u, w, wrap_left):
    # one side a term, the other plain letters: read by the term route
    left, right = format_iword(u), format_iword(w)
    text = f"({left}) ~= {right}" if wrap_left else f"{left} ~= ({right})"
    mixed = parse_identity(text)
    _agree(mixed, Identity(u, w))
    _agree(mixed, parse_identity(f"{left} ~= {right}"))
    assert _parse(ref.parse_identity, text) == mixed


def test_checks_of_parsed_letters_build_no_letter_view(monkeypatch):
    # an identity parsed from plain letters carries only its letter ids,
    # and `check` reads nothing else, at any rank and in plain mode, for
    # YES and NO, with and without a witness
    texts = [format_iword(idn.lhs) + " ~= " + format_iword(idn.rhs)
             for idn in basis4() + [pk_qk(3), basis2()[5]]]
    texts += ["x y ~= y x", "x y* x ~= x y* x", "x y ~= x", "x* y ~= y x*"]
    built = []
    view = Identity._view
    monkeypatch.setattr(Identity, "_view", lambda idn: built.append(idn) or view(idn))
    verdicts = set()
    for text in texts:
        for n, mode in ((1, "involution"), (2, "involution"), (3, "involution"),
                        (4, "involution"), (2, "plain"), (5, "plain")):
            for witness in (True, False):
                idn = parse_identity(text)
                try:
                    verdicts.add(check(idn, n, mode, witness).verdict)
                except checker.PlainModeError:
                    continue
    assert built == [] and verdicts == {True, False}


def test_split_and_the_lexer_agree_on_whitespace():
    # a plain side is split by str.split, a term side is lexed with \s: both
    # must take the same characters for whitespace
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_deep_nesting_parses_without_recursion():
    depth = 3000
    text = "(" * depth + "x y*" + ")*" * depth
    idn = parse_identity(f"{text} ~= y x*")
    assert idn == parse_identity("x y* ~= y x*")  # an even number of stars

"""Rank-stratified decision procedure for word identities of the Baxter
monoids with involution, plus the plain (star-free) variant.

The primary route is the polynomial-time procedure: compare, between the two
sides and for every restriction to one or two variable bases, the single-
variable prefix/suffix (with the adjacent variable), and the longest prefix/
suffix free of a mixed pair {x, x*} (content and multiplicities, plus the
adjacent variable at rank 3); rank 3 adds directional occurrence-count sums
around first/last occurrences, and rank >= 4 collapses to exact directional
counts for every ordered letter pair.

One sweep driver, `_sweep_check`, decides every rank >= 2 and the plain
variant: balance, then the pieces of each side cut at first occurrences,
read forward and reversed (sorted at rank >= 4 and in plain mode, first and
open letters at ranks 2 and 3), then at rank 3 the pivot sweep over the
same pieces.  It compares and sweeps only the pieces that meet the window
between the sides' common prefix and common suffix, and decides equal
sides before it builds anything.  For sides of |u| letters over k variables
that takes O(|u|) C-level passes, in which the cuts of each side come in
order from one first-occurrence pass and one chained scan, O(|u|) C-level
work plus O(k) steps, plus O(L log L) Python work over the L letters of
the window's pieces (sorts of pieces, of open letters and, once each, of
rank-2 groups), plus at rank 3 O(1) per pivot in the window, and
O(|u| + k) memory.  Only a NO names its witness: a subset witness (ranks 2
and 3) from the subsets with a base that holds a misaligned letter
(`_misaligned`), in O(|u| + k |M|) bisections for the M such bases; a
pivot witness ((IV), (V) and OccLR) from one tail, which reads the count
differences of one pivot (`_differences`) and names the least (letter or
base, side) that differs, the left side on a tie, in O(|u| + k log |u|).

A second, independent route (`conditions_baxt2` / `conditions_baxt3`)
evaluates the rank-2/3 pattern conditions literally on restrictions built
by `words.restrict`, with the directional counts `words.occ_before` /
`words.occ_after`; the test suite asserts both routes agree.

The pattern conditions are evaluated for ordered role pairs over all letters,
starred included, and also for the two orientations of each mixed base pair
{x, x*}; restrictions to a single base are checked alongside two-base ones.
Without the single-base checks, one-variable identities such as
x x* ~ x* x would be accepted, yet substituting any element with a
non-self-dual image refutes them at every rank.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .words import (IVar, IWord, Identity, _int_at_least, common_ends, id_letter,
                    letter_ids, occ_after, occ_before, restrict)


class PlainModeError(ValueError):
    """A starred letter reached the plain (involution-free) checker."""


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    rank: int
    mode: str
    violated: Optional[str] = None   # Balanced | I | II | III | IV | V | OccLR
    witness: Optional[dict] = None

    def __bool__(self):
        return self.verdict

    def to_json_obj(self) -> dict:
        return {
            "verdict": "YES" if self.verdict else "NO",
            "n": self.rank,
            "mode": self.mode,
            "violated": self.violated,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _no(n, violated, witness, mode="involution"):
    return CheckReport(False, n, mode, violated, witness)


# ---------------------------------------------------------------------------
# Sides as letter ids, the encoding an `Identity` carries (`words.letter_ids`)
# ---------------------------------------------------------------------------

def _pieces(u: list):
    """The first position of every letter of u, and the (start, end) of the
    pieces of u cut just before each of them.  The last piece ends after
    its first letter: sides that are balanced and agree on every earlier
    piece agree on the rest.

    `dict.fromkeys` gives the letters in order of first occurrence, and
    each cut is found by a search that starts at the one before it, so the
    cuts come in order from one more pass over u in C: O(|u|) C-level work
    plus O(k) steps for the k letters of u."""
    first, t = dict.fromkeys(u), 0
    for x in first:
        first[x] = t = u.index(x, t)
    cuts = list(first.values())
    return first, list(zip(cuts, cuts[1:] + [cuts[-1] + 1]))


def _positions(ids, size: int) -> list:
    """Per letter id, its positions in ids."""
    pos = [[] for _ in range(size)]
    for i, a in enumerate(ids):
        pos[a].append(i)
    return pos


def _misaligned(u, v, pu: list, pv: list, p: int, e: int) -> set:
    """The misaligned letters of two balanced sides u, v with per-letter
    positions pu, pv and the window (p, e) between their common ends
    (`words.common_ends`).  A length L is even when u[:L] and v[:L] hold
    the same letters: every L <= p and, by balance, every L >= e, and
    inside the window the ones that one pass over it finds.  A letter is
    aligned when its first occurrence t is at the same position on both
    sides with L = t even, and its last occurrence t' likewise with
    L = t' + 1 even; a letter with no occurrence in the window is.

    An aligned letter sees the same count of every other letter before its
    first occurrence on both sides, and, by balance, after its last one.  A
    misaligned one does not: the letters before its first occurrence (or,
    by balance, after its last) differ in number or as multisets, and it
    is not among them."""
    diff, nonzero, same = [0] * len(pu), 0, [True]
    for x, y in zip(u[p:e], v[p:e]):
        if x != y:
            diff[x] += 1
            diff[y] -= 1
            nonzero += ((diff[x] == 1) - (diff[x] == 0)
                        + (diff[y] == -1) - (diff[y] == 0))
        same.append(not nonzero)

    def even(t):
        return not p < t < e or same[t - p]

    return {x for x in set(u[p:e])
            if not (pu[x][0] == pv[x][0] and even(pu[x][0])
                    and pu[x][-1] == pv[x][-1] and even(pu[x][-1] + 1))}


# ---------------------------------------------------------------------------
# Rank 1 and balance
# ---------------------------------------------------------------------------

def is_balanced(ident: Identity) -> bool:
    """Same content and, letter by letter (star-sensitive), same counts."""
    _, u, v = letter_ids(ident)
    return Counter(u) == Counter(v)


def _balance_witness(cu: Counter, cv: Counter, name) -> dict:
    """The first key, in sorted order, whose counts in the two sides'
    Counters differ: its name (a letter or a base name) and both counts."""
    x = min(x for x in cu.keys() | cv.keys() if cu[x] != cv[x])
    return {"letter": name(x), "lhs": cu[x], "rhs": cv[x]}


def check_baxt1(ident: Identity, witness: bool = True) -> CheckReport:
    """Rank 1 is the free monogenic monoid with trivial star: only the
    per-base counts matter, O(|u|) (the witness names the base, as a bare
    letter prints)."""
    names, u, v = letter_ids(ident)
    cu, cv = (Counter([a >> 1 for a in w]) for w in (u, v))
    if cu == cv:
        return CheckReport(True, 1, "involution")
    if not witness:
        return CheckReport(False, 1, "involution")
    return _no(1, "Balanced", _balance_witness(cu, cv, names.__getitem__))


# ---------------------------------------------------------------------------
# Ranks 2 and 3: open-letter pieces, pivot sweep, restriction witnesses
# ---------------------------------------------------------------------------

class _View:
    """One side of an identity as letter ids, read left to right (or, for
    the suffix statistics, right to left): per letter id, its positions and
    its first position (the side's length when it does not occur); per
    base, its letters in order of first occurrence (the second one is None
    when only one of x, x* occurs) and the count of the first one before
    the second one."""

    __slots__ = ("pos", "at", "one", "two", "two_at", "own")

    def __init__(self, ids, size: int):
        self.pos = _positions(ids, size)
        end = len(ids)
        self.at = at = [p[0] if p else end for p in self.pos]
        self.one = [x if at[x] < at[x + 1] else x + 1 for x in range(0, size, 2)]
        self.two_at = [at[x ^ 1] for x in self.one]
        self.two = [x ^ 1 if t < end else None
                    for x, t in zip(self.one, self.two_at)]
        self.own = list(map(bisect_left, map(self.pos.__getitem__, self.one),
                            self.two_at))

    def stats(self, i: int, j: int, strict: bool) -> tuple:
        """Statistics of the restriction to bases i and j (i == j: one base
        with both letters).  pre: leading letter, its run length, the letter
        that ends the run.  pren: the longest prefix free of a mixed pair
        {x, x*} holds no second letter of i or j, so it is given by the
        counts of their first letters (each with the letter when nonzero)
        and, when strict, the letter just after it; all None when neither
        base has both letters."""
        at, one, a, f = self.at, self.one, self.one[i], self.two[i]
        if j != i:
            b = one[j]
            if at[b] < at[a]:
                a, b, f = b, a, self.two[j]
            if f is None or at[b] < at[f]:
                f = b
        run = self.own[a >> 1] if f == a ^ 1 else bisect_left(self.pos[a], at[f])
        s = self.two[i] if self.two_at[i] <= self.two_at[j] else self.two[j]
        if s is None:
            return a, run, f, None, None, None, None, None
        p, c = at[s], s >> 1
        ci = self.own[i] if c == i else bisect_left(self.pos[one[i]], p)
        cj = self.own[j] if c == j else bisect_left(self.pos[one[j]], p)
        return (a, run, f, one[i] if ci else None, ci, one[j] if cj else None, cj,
                s if strict else None)


def _open_segments(u: list, first: dict, pieces: list, strict: bool) -> list:
    """Per piece (start, end) of u, whose letters first occur at first: its
    first letter, and its sorted letters whose star partner has not
    occurred yet.  Unless strict, first occurrences of second letters (x
    after x*, or x* after x) with no such letter between them form one
    group, as rank 2 does not fix their order; a group is a list that
    each joining piece appends to, sorted once at the end."""
    end, out = len(u), []
    for a, b in pieces:
        x, open_letters = u[a], sorted([y for y in u[a:b] if first.get(y ^ 1, end) > a])
        if not strict and first.get(x ^ 1, end) < a and out and not out[-1][1]:
            out[-1][0].append(x)
            out[-1][1] = open_letters
        else:
            out.append([[x], open_letters])
    for group, _ in out:
        group.sort()
    return out


def _pivot_sweep(u: list, v: list, pu: list, pv: list, first: dict, size: int):
    """Both sides, with the same order of first occurrences, read by their
    pieces pu, pv that meet the window; the sides agree before them.  The
    pivots y that fail (IV), where a base's star-blind counts before y
    differ, and those that fail (V), where y's star partner has not occurred
    in u (its first position in first is after y's) and a letter's counts
    differ: two sets.  It keeps each letter's count in u less its count in
    v, and the letters and bases whose differences are nonzero, so a pivot
    costs O(1).  As the segments agree, no letter of y's own base differs
    before y: y first occurs in the same piece on both sides, and every y*
    before it is open in an earlier one."""
    end, diff = len(u), [0] * size
    letters, bases, bad_iv, bad_v = set(), set(), set(), set()
    for (a, b), (c, d) in zip(pu, pv):
        y = u[a]
        if bases:
            bad_iv.add(y)
        if letters and first.get(y ^ 1, end) > a:
            bad_v.add(y)
        piece, other = u[a:b], v[c:d]
        for x in piece:
            diff[x] += 1
        for x in other:
            diff[x] -= 1
        for x in {*piece, *other}:
            (letters.add if diff[x] else letters.discard)(x)
            (bases.add if diff[x] + diff[x ^ 1] else bases.discard)(x >> 1)
    return bad_iv, bad_v


_CHECKS = (("left", "pre", "pren"), ("right", "suf", "sufn"))


def _subset_violation(names, u, v, ru, rv, strict: bool, p: int, e: int):
    """The pattern and witness of the first base subset, in sorted order
    (each base, then its pairs with every later base), whose statistics
    differ, in the order pre, pren, suf, sufn; ru and rv are u and v
    reversed, and (p, e) is their window (`words.common_ends`).

    Only a subset with a base that holds a misaligned letter
    (`_misaligned`) is tested.  `_View.stats` reads first occurrences of
    the subset's letters and counts of its letters before them, or in all
    of the side (a letter that does not occur), and on the reversed sides
    last occurrences; so a subset whose letters are all aligned has equal
    statistics, and the first one that differs is the same."""
    k = len(names)
    fu, fv, bu, bv = (_View(w, 2 * k) for w in (u, v, ru, rv))
    bad = {x >> 1 for x in _misaligned(u, v, fu.pos, fv.pos, p, e)}
    order = sorted(bad)
    for i in range(k):
        partners = range(i, k) if i in bad else order[bisect_right(order, i):]
        for j in partners:
            if j == i and fu.two[i] is None:
                continue  # one letter alone has no statistics
            left = fu.stats(i, j, strict), fv.stats(i, j, strict)
            right = bu.stats(i, j, strict), bv.stats(i, j, strict)
            if left[0] == left[1] and right[0] == right[1]:
                continue
            pair = [names[i]] if i == j else [names[i], names[j]]
            for (su, sv), (side, run, mixed) in zip((left, right), _CHECKS):
                if su[:3] != sv[:3]:
                    # a run broken by the star partner is an (I) pattern,
                    # else (II)
                    tag = "I" if su[2] == su[0] ^ 1 else "II"
                    return tag, {"pair": pair, "side": side, "check": run}
                if su[3:] != sv[3:]:
                    return "III", {"pair": pair, "side": side, "check": mixed}
    raise AssertionError("segment sweep and subset statistics disagree")


# ---------------------------------------------------------------------------
# Pivot witnesses: the count differences around one pivot
# ---------------------------------------------------------------------------

def _differences(pu: list, pv: list, x: int):
    """Per letter whose counts differ on balanced sides with positions pu,
    pv: its count in u less that in v before the first x, and after the
    last x.  Two dicts, in O(k log |u|) time, not both empty: with the
    positions built once, the tail of `_sweep_check` that names a pivot
    witness from them takes O(|u| + k log |u|)."""
    fu, fv, lu, lv = pu[x][0], pv[x][0], pu[x][-1], pv[x][-1]
    before, after = {}, {}
    for y, (ou, ov) in enumerate(zip(pu, pv)):
        if d := bisect_left(ou, fu) - bisect_left(ov, fv):
            before[y] = d
        if d := bisect_right(ov, lv) - bisect_right(ou, lu):  # same lengths
            after[y] = d
    if not (before or after):
        raise AssertionError("segment sweep and pivot counts disagree")
    return before, after


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------

def _sweep_check(ident: Identity, n: int, mode: str, witness: bool) -> CheckReport:
    """Every rank >= 2 and the plain variant.  Rank >= 4 and plain: every
    pivot x sees the same count of every other letter before its first
    occurrence, and after its last, on both sides; these counts agree
    exactly when the first occurrences come in the same order and the
    pieces between consecutive ones are equal as multisets.  Ranks 2 and 3:
    equal statistics on every restriction to one or two bases fix the order
    of first occurrences (at rank 2 up to the order of second letters of
    bases, x after x* or x* after x, with no letter between them whose
    partner has not occurred) and, at every first occurrence, the count of
    the first letter of every base whose second letter has not occurred.
    With the order fixed, these counts agree exactly when the pieces agree
    on their first letter and on the letters whose partner has not
    occurred.  Mirrored for last occurrences.  Only on a NO does a
    witness search run.

    Only the pieces that meet the window are read.  With u[:p] and u[e:]
    the sides' common prefix and suffix (`words.common_ends`), the sides are
    balanced exactly when they have one length and their windows u[p:e]
    and v[p:e] hold the same letters.  Equal sides agree at once, by one
    comparison of their letter ids, so the window is never empty.  The
    span runs from the piece that holds p - 1 (the first piece when
    p == 0) through the last piece that starts before e.  The reversed
    sides have the window [|u| - e, |u| - p).  Three facts show that the
    span decides as all the pieces do.

    (a) Pieces inside the common prefix have the same cuts, contents and
    open letters on both sides, and the piece that holds p - 1 starts at
    the same cut.  Cuts before p are first occurrences inside u[:p].  A
    letter y of a piece that starts at a < p is open when its partner
    first occurs after a, and the partner first occurs either at the same
    position of the prefix on both sides, or at or after p on both.

    (b) Pieces that start at or after e have the same cuts and contents.
    A letter that first occurs in the suffix has no occurrence before e on
    either side, because the prefixes are equal and the two windows hold
    the same multiset; so the same letters first occur before e, the cuts
    at or after e are the same, and the span has the same piece indices
    on both sides.  Such a piece lies in u[e:], and its open letters agree
    too: a partner first occurs before e on both sides or at the same
    place after it.  At rank >= 4 and in plain mode the lists of segments
    are thus P + S_u + Q and P + S_v + Q, equal exactly when S_u == S_v.

    (c) The rank-2 merge of second-letter groups needs no piece outside
    the span.  A piece joins the group before it when its first letter is
    a second letter and the piece before it has no open letters, a rule
    that reads two adjacent pieces; a group is sorted and keeps the open
    letters of its last piece.  Whether the span's first piece joins the
    last group of P is decided alike on both sides by (a), and adds the
    same letters to the span's first group on both.  Whether the first
    piece of Q joins the span's last group depends on that group's open
    letters.  If the span's segments agree, that join is decided alike and
    adds the same letters, so all the segments agree.  If they differ and
    the joins are decided alike, the groups that differ or the count of
    groups still differ after the same letters are added.  If the joins
    differ, then counted from the end the joining side holds the letters
    of Q's first group together with at least one more letter where the
    other side holds them alone.

    At rank 3 the pivot sweep reads whether a pivot's partner has occurred
    from the side's first occurrences, starts with zero differences, as the
    prefix is the same on both sides, and visits only the span's pivots.  A
    pivot outside the span sees equal counts before it on both sides: in
    the prefix, the prefix fixes them; at a >= e, the count of a letter
    before a is its total, the same by balance, less its count in u[a:],
    which the suffix fixes.
    So no pivot outside the span fails, and the failing-pivot sets are
    those of a sweep over every piece, at O(1) per pivot.

    Ranks 2 and 3 name a subset witness when the segments differ
    (`_subset_violation`).  Every other NO goes through one tail: one pivot
    y, the least misaligned letter at rank >= 4 and in plain mode, or the
    least failing pivot at rank 3; its count differences
    (`_differences`); and the least (letter or base, side) over the left
    side (before y) and the right one (after y), so the left side wins a
    tie.  (IV) reads the bases whose star-blind sums differ; (V) reads only
    the side of the reading that fails."""
    names, u, v = letter_ids(ident)
    if u == v:
        return CheckReport(True, n, mode)
    p, s = common_ends(u, v)
    e = len(u) - s
    if len(u) != len(v) or sorted(u[p:e]) != sorted(v[p:e]):
        if not witness:
            return CheckReport(False, n, mode)
        return _no(n, "Balanced", _balance_witness(
            Counter(u), Counter(v), lambda a: str(id_letter(names, a))), mode)
    size, ru, rv = 2 * len(names), u[::-1], v[::-1]
    occ_lr = n >= 4 or mode == "plain"
    strict = n >= 3  # rank 3 also pins the variable adjacent to pren/sufn

    def segments(w, first, pieces):
        return ([sorted(w[a:b]) for a, b in pieces] if occ_lr
                else _open_segments(w, first, pieces, strict))

    # each side is cut once, and only its pieces that meet the window are
    # compared; the reversed sides only if the forward pieces agree
    agreed = []  # per reading that agrees: both sides, their span, first of a
    for a, b, lo, hi in ((u, v, p, e), (ru, rv, len(u) - e, len(u) - p)):
        (fa, pa), (fb, pb) = _pieces(a), _pieces(b)
        # the span: from the piece that holds lo - 1 (the first piece when
        # lo == 0) through the last piece that starts before hi, at the same
        # piece indices on both sides
        i, j = max(bisect_left(pa, (lo,)) - 1, 0), bisect_left(pa, (hi,))
        pa, pb = pa[i:j], pb[i:j]
        if segments(a, fa, pa) != segments(b, fb, pb):
            break
        agreed.append((a, b, pa, pb, fa))
    same = len(agreed) == 2
    # rank 3: the pivots that fail the directional sums per base (IV), and
    # the exact counts where the star partner has not occurred (V)
    (left_iv, left_v), (right_iv, right_v) = (
        [_pivot_sweep(*reading, size) for reading in agreed]
        if same and n == 3 and not occ_lr else ((set(), set()), (set(), set())))
    if same and not (left_iv or right_iv or left_v or right_v):
        return CheckReport(True, n, mode)
    if not witness:
        return CheckReport(False, n, mode)
    if not (same or occ_lr):
        return _no(n, *_subset_violation(names, u, v, ru, rv, strict, p, e))
    # the pivot: the least misaligned letter (OccLR), or the least failing
    # one, every (IV) one before every (V) one; the reversed reading's
    # counts before it are the counts after it
    pu, pv, iv = _positions(u, size), _positions(v, size), left_iv | right_iv
    y = (min(_misaligned(u, v, pu, pv, p, e)) if occ_lr
         else min(iv or left_v | right_v))
    before, after = _differences(pu, pv, y)
    sides = (("left", before), ("right", after))
    if iv:
        # per side, the bases whose star-blind sums differ
        sides = [(side, {x >> 1 for x in c if c.get(x & ~1, 0) + c.get(x | 1, 0)})
                 for side, c in sides]
    elif not occ_lr:
        # (V): the side of the reading that fails
        sides = sides[:1] if y in left_v else sides[1:]
    # the least (letter or base, side) that differs, the left side on a tie
    d, side = min((d, side) for side, ds in sides for d in ds)
    pivot = str(id_letter(names, y))
    if iv:
        return _no(3, "IV", {"pivot": pivot, "base": names[d], "side": side})
    return _no(n, "OccLR" if occ_lr else "V", {
        "pivot": pivot, "letter": str(id_letter(names, d)), "side": side}, mode)


def check_baxt2(ident: Identity, witness: bool = True) -> CheckReport:
    return _sweep_check(ident, 2, "involution", witness)


def check_baxt3(ident: Identity, witness: bool = True) -> CheckReport:
    return _sweep_check(ident, 3, "involution", witness)


def check_baxt4plus(ident: Identity, n: int = 4, witness: bool = True) -> CheckReport:
    """Rank >= 4: balanced plus equal directional counts for every ordered
    letter pair; the verdict does not depend on n beyond 4."""
    return _sweep_check(ident, _int_at_least(n, 4, "rank"), "involution", witness)


def check_plain(ident: Identity, n: int = 2, witness: bool = True) -> CheckReport:
    """Plain monoids of rank >= 2 all satisfy the same identities: balanced
    plus equal directional counts."""
    _int_at_least(n, 1, "rank")
    _, u, v = letter_ids(ident)
    if any(a & 1 for a in {*u, *v}):
        raise PlainModeError("starred letter present; use the involution checker")
    if n < 2:
        r = check_baxt1(ident, witness)
        return CheckReport(r.verdict, 1, "plain", r.violated, r.witness)
    return _sweep_check(ident, n, "plain", witness)


def check(ident: Identity, n: int, mode: str = "involution",
          witness: bool = True) -> CheckReport:
    """Dispatch on rank (involution mode) or to the plain checker.  With
    witness=False a NO report names no violated pattern and no witness,
    which saves the search for them."""
    if mode == "plain":
        return check_plain(ident, n, witness)
    if mode != "involution":
        raise ValueError(f"unknown mode {mode!r}")
    _int_at_least(n, 1, "rank")
    if n == 1:
        return check_baxt1(ident, witness)
    if n == 2:
        return check_baxt2(ident, witness)
    if n == 3:
        return check_baxt3(ident, witness)
    return check_baxt4plus(ident, n, witness)


# ---------------------------------------------------------------------------
# Independent route: the pattern conditions, evaluated literally
# ---------------------------------------------------------------------------

def _leading_run_then(r: IWord, run_letter: IVar, next_letter: IVar):
    """Length of the leading run_letter-run when followed by next_letter."""
    i = 0
    while i < len(r) and r[i] == run_letter:
        i += 1
    if i >= 1 and i < len(r) and r[i] == next_letter:
        return i
    return None


def _mixed_prefix_then(r: IWord, allowed: frozenset, next_letter: IVar):
    """Multiset of the maximal prefix over `allowed` when it contains every
    allowed letter and is followed by next_letter; None otherwise."""
    i = 0
    while i < len(r) and r[i] in allowed:
        i += 1
    a = r[:i]
    if set(a) == set(allowed) and i < len(r) and r[i] == next_letter:
        return Counter(a)
    return None


def _mixed_prefix_matches(r: IWord, allowed: frozenset, multiset, nexts) -> bool:
    i = 0
    while i < len(r) and r[i] in allowed:
        i += 1
    return Counter(r[:i]) == multiset and i < len(r) and r[i] in nexts


def _conditions(ident: Identity, n: int) -> bool:
    """Literal evaluation of the rank-2 (n=2) or rank-3 (n=3) conditions."""
    if not is_balanced(ident):
        return False
    u, v = ident.lhs, ident.rhs
    letters = sorted(set(u))
    role_pairs = [(x, y) for x in letters for y in letters if y.base != x.base]
    same_base = [(x, x.star()) for x in letters if x.star() in set(letters)]
    # (III) needs x and y* to occur but not y: there y ranges over both
    # letters of every other base
    alphabet = sorted({z for x in letters for z in (x, x.star())})
    starred_pairs = [(x, y) for x in letters for y in alphabet if y.base != x.base]

    for x, y in role_pairs + same_base:
        ru = restrict(u, (x.base, y.base))
        rv = restrict(v, (x.base, y.base))
        # (I): x^a x* prefix / x* x^a suffix transfer with the same a
        for r, s in ((ru, rv), (ru[::-1], rv[::-1])):
            a = _leading_run_then(r, x, x.star())
            if a is not None and _leading_run_then(s, x, x.star()) != a:
                return False
            # (II): y^a x prefix / x y^a suffix transfer with the same a
            a = _leading_run_then(r, y, x)
            if a is not None and _leading_run_then(s, y, x) != a:
                return False

    for x, y in starred_pairs:
        ru = restrict(u, (x.base, y.base))
        rv = restrict(v, (x.base, y.base))
        # (III): starred-prefix block before the first plain letter
        starred = frozenset((x.star(), y.star()))
        nexts = (x,) if n == 3 else (x, y)
        for r, s in ((ru, rv), (ru[::-1], rv[::-1])):
            m = _mixed_prefix_then(r, starred, x)
            if m is not None and not _mixed_prefix_matches(s, starred, m, nexts):
                return False
        if n == 3:
            # (V): mixed base-pair block before the first y
            mixed = frozenset((x, x.star()))
            for r, s in ((ru, rv), (ru[::-1], rv[::-1])):
                m = _mixed_prefix_then(r, mixed, y)
                if m is not None and not _mixed_prefix_matches(s, mixed, m, (y,)):
                    return False

    if n == 3:
        # (IV): directional occurrence sums
        for x, y in role_pairs:
            for count in (occ_before, occ_after):
                if (count(y, x, u) + count(y, x.star(), u)
                        != count(y, x, v) + count(y, x.star(), v)):
                    return False
    return True


def conditions_baxt2(ident: Identity) -> bool:
    return _conditions(ident, 2)


def conditions_baxt3(ident: Identity) -> bool:
    return _conditions(ident, 3)

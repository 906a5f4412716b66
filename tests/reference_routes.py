"""Reference routes kept for differential tests.

These are the straightforward implementations that the library's fast paths
replaced: the rank-2/3 restriction procedure and the rank >= 4 / plain
occurrence check built on per-letter position lists and bisection (O(k^2)
pair loops), the sweeps over every piece of both whole sides rather than
over the pieces that meet the window between their common prefix and
suffix, the recursive term parser with its character-by-character lexer,
an identity's reverse and star done in arithmetic on its letter ids,
the rank >= 4 component letter maps written out as four families,
the monoid invariant key with quadratic lpi/rpi scans, and the isoterm
search that checks every rearrangement of a word, enumerated recursively,
the twin trees as nested nodes built by recursive persistent insertion,
with their DOT writer, the oracle's evaluation loop that compares the
keys of both sides on every assignment, equal image words included, its
full scan with every assignment of the grid put to the library's own
refutation test, with no block, rule or record passing over any, its
common prefix and suffix found by index loops, and the generator fold that
the representation defines, block by block through `mat_mul` and as a
product of dense rows.  The tests assert that the library returns the
same reports, words, errors, letter ids, letter maps, keys, isoterm
partners, trees, witnesses, common ends, evaluation counts and matrices.
The rank-2 class key reads the procedure's statistics off one word, so a test
can group words into classes without checking every pair.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product
from operator import add
from typing import Optional

from baxt import oracle
from baxt.checker import (CheckReport, _balance_witness, _no, _subset_violation,
                          check, is_balanced)
from baxt.monoid import key_of as fast_key_of, sharp_word
from baxt.oracle import enumerate_classes
from baxt.represent import generator_images
from baxt.semiring import NEG_INF, UTMatrix, mat_mul
from baxt.trees import BST
from baxt.words import (AWord, Atom, Concat, Identity, IVar, IWord, ParseError,
                        Star, Term, common_ends, id_letter, letter_ids)
from definitions import from_json_obj


# ---------------------------------------------------------------------------
# Checker: position index and per-restriction statistics
# ---------------------------------------------------------------------------

class _WordIndex:
    __slots__ = ("word", "positions", "first", "last", "base_letters")

    def __init__(self, u: IWord):
        positions: dict[IVar, list[int]] = {}
        for i, x in enumerate(u):
            positions.setdefault(x, []).append(i)
        self.word = u
        self.positions = positions
        self.first = {x: p[0] for x, p in positions.items()}
        self.last = {x: p[-1] for x, p in positions.items()}
        base_letters: dict[str, list[IVar]] = {}
        for x in positions:
            base_letters.setdefault(x.base, []).append(x)
        for group in base_letters.values():
            group.sort()
        self.base_letters = base_letters

    def count_before(self, x: IVar, pos: int) -> int:
        p = self.positions.get(x)
        return bisect_left(p, pos) if p else 0

    def count_after(self, x: IVar, pos: int) -> int:
        p = self.positions.get(x)
        return len(p) - bisect_right(p, pos) if p else 0


def _pre_stat(idx: _WordIndex, letters):
    """(leading letter, run length, following letter) of the restriction."""
    lead = min(letters, key=idx.first.__getitem__)
    m1 = min(idx.first[t] for t in letters if t != lead)
    follower = next(t for t in letters if t != lead and idx.first[t] == m1)
    return lead, idx.count_before(lead, m1), follower


def _suf_stat(idx: _WordIndex, letters):
    tail = max(letters, key=idx.last.__getitem__)
    m1 = max(idx.last[t] for t in letters if t != tail)
    preceder = next(t for t in letters if t != tail and idx.last[t] == m1)
    return tail, idx.count_after(tail, m1), preceder


def _pren_stat(idx: _WordIndex, base_names, letters):
    """Occurrence counts inside the mixed-pair-free prefix of the
    restriction, plus the letter just after it; None when the restriction
    has no mixed pair at all (then balance settles everything)."""
    stop = None
    for b in base_names:
        group = idx.base_letters.get(b)
        if group and len(group) == 2:
            c = max(idx.first[group[0]], idx.first[group[1]])
            if stop is None or c < stop:
                stop = c
    if stop is None:
        return None
    counts = tuple(idx.count_before(t, stop) for t in letters)
    return counts, idx.word[stop]


def _sufn_stat(idx: _WordIndex, base_names, letters):
    start = None
    for b in base_names:
        group = idx.base_letters.get(b)
        if group and len(group) == 2:
            c = min(idx.last[group[0]], idx.last[group[1]])
            if start is None or c > start:
                start = c
    if start is None:
        return None
    counts = tuple(idx.count_after(t, start) for t in letters)
    return counts, idx.word[start]


# ---------------------------------------------------------------------------
# Checker: rank 1, ranks 2 and 3, rank >= 4 and plain
# ---------------------------------------------------------------------------

def check_rank1(ident: Identity, mode: str = "involution") -> CheckReport:
    """Rank 1: the per-base counts, blind to stars, agree."""
    cu = Counter(x.base for x in ident.lhs)
    cv = Counter(x.base for x in ident.rhs)
    for b in sorted(set(cu) | set(cv)):
        if cu[b] != cv[b]:
            return CheckReport(False, 1, mode, "Balanced",
                               {"letter": b, "lhs": cu[b], "rhs": cv[b]})
    return CheckReport(True, 1, mode)


def _base_subsets(iu: _WordIndex):
    names = sorted(iu.base_letters)
    subsets = [(b,) for b in names]
    subsets += [(names[i], names[j])
                for i in range(len(names)) for j in range(i + 1, len(names))]
    subsets.sort()
    return subsets


def _procedure_check(ident: Identity, n: int) -> CheckReport:
    if not is_balanced(ident):
        return _no(n, "Balanced",
                   _balance_witness(Counter(ident.lhs), Counter(ident.rhs), str))
    iu, iv = _WordIndex(ident.lhs), _WordIndex(ident.rhs)
    strict = n >= 3  # rank 3 also pins the variable adjacent to pren/sufn

    def differ(stat_u, stat_v):
        # rank 2 compares the counts only; rank 3 also the adjacent letter
        if stat_u is None or stat_v is None:
            return stat_u is not stat_v
        return stat_u != stat_v if strict else stat_u[0] != stat_v[0]

    def run_tag(stat):
        # a run broken by the star partner is an (I) pattern, else a (II) one
        return "I" if stat[2] == stat[0].star() else "II"

    for B in _base_subsets(iu):
        letters = sorted(t for b in B for t in iu.base_letters.get(b, ()))
        if len(letters) <= 1:
            continue
        pair = [str(b) for b in B]
        pu = _pre_stat(iu, letters)
        if pu != _pre_stat(iv, letters):
            return _no(n, run_tag(pu), {"pair": pair, "side": "left",
                                        "check": "pre"})
        if differ(_pren_stat(iu, B, letters), _pren_stat(iv, B, letters)):
            return _no(n, "III", {"pair": pair, "side": "left", "check": "pren"})
        su = _suf_stat(iu, letters)
        if su != _suf_stat(iv, letters):
            return _no(n, run_tag(su), {"pair": pair, "side": "right",
                                        "check": "suf"})
        if differ(_sufn_stat(iu, B, letters), _sufn_stat(iv, B, letters)):
            return _no(n, "III", {"pair": pair, "side": "right", "check": "sufn"})

    if n == 2:
        return CheckReport(True, n, "involution")

    # rank 3: directional occurrence sums per (base, pivot letter) ...
    pivots = sorted(iu.positions)
    names = sorted(iu.base_letters)
    for y in pivots:
        fu, fv = iu.first[y], iv.first[y]
        lu, lv = iu.last[y], iv.last[y]
        for b in names:
            if b == y.base:
                continue
            xs = iu.base_letters[b]
            if sum(iu.count_before(x, fu) for x in xs) != \
                    sum(iv.count_before(x, fv) for x in xs):
                return _no(3, "IV", {"pivot": str(y), "base": b, "side": "left"})
            if sum(iu.count_after(x, lu) for x in xs) != \
                    sum(iv.count_after(x, lv) for x in xs):
                return _no(3, "IV", {"pivot": str(y), "base": b, "side": "right"})

    # ... and exact directional counts for pivots whose star partner does not
    # occur on the relevant side of them
    for y in pivots:
        ystar = y.star()
        fu, fv = iu.first[y], iv.first[y]
        lu, lv = iu.last[y], iv.last[y]
        if iu.count_before(ystar, fu) == 0:
            for x in pivots:
                if x.base == y.base:
                    continue
                if iu.count_before(x, fu) != iv.count_before(x, fv):
                    return _no(3, "V", {"pivot": str(y), "letter": str(x),
                                        "side": "left"})
        if iu.count_after(ystar, lu) == 0:
            for x in pivots:
                if x.base == y.base:
                    continue
                if iu.count_after(x, lu) != iv.count_after(x, lv):
                    return _no(3, "V", {"pivot": str(y), "letter": str(x),
                                        "side": "right"})
    return CheckReport(True, n, "involution")


def rank2_class_key(u: IWord) -> tuple:
    """The statistics that the rank-2 procedure compares, read off one word:
    its letter counts and, per restriction to one or two bases, pre, suf
    and the counts of pren and sufn.  Two words are congruent at rank 2
    exactly when their keys are equal."""
    idx = _WordIndex(u)
    stats = []
    for B in _base_subsets(idx):
        letters = sorted(t for b in B for t in idx.base_letters.get(b, ()))
        if len(letters) <= 1:
            continue
        pren, sufn = _pren_stat(idx, B, letters), _sufn_stat(idx, B, letters)
        stats.append((_pre_stat(idx, letters), pren and pren[0],
                      _suf_stat(idx, letters), sufn and sufn[0]))
    return tuple(sorted(Counter(u).items())), tuple(stats)


def _occ_lr_check(ident: Identity, n: int, mode: str) -> CheckReport:
    if not is_balanced(ident):
        return _no(n, "Balanced",
                   _balance_witness(Counter(ident.lhs), Counter(ident.rhs), str), mode)
    iu, iv = _WordIndex(ident.lhs), _WordIndex(ident.rhs)
    pivots = sorted(iu.positions)
    for x in pivots:
        fu, fv = iu.first[x], iv.first[x]
        lu, lv = iu.last[x], iv.last[x]
        for y in pivots:
            if y == x:
                continue
            if iu.count_before(y, fu) != iv.count_before(y, fv):
                return _no(n, "OccLR", {"pivot": str(x), "letter": str(y),
                                        "side": "left"}, mode)
            if iu.count_after(y, lu) != iv.count_after(y, lv):
                return _no(n, "OccLR", {"pivot": str(x), "letter": str(y),
                                        "side": "right"}, mode)
    return CheckReport(True, n, mode)


# ---------------------------------------------------------------------------
# Checker: the sweeps over every piece of both whole sides
# ---------------------------------------------------------------------------

def _full_pieces(u: list):
    """The first position of every letter of u, and the (start, end) of
    every piece of u, cut just before each of them; the last piece ends
    after its first letter."""
    if not u:
        return {}, []
    first = dict(zip(reversed(u), range(len(u) - 1, -1, -1)))
    cuts = sorted(first.values())
    return first, list(zip(cuts, cuts[1:] + [cuts[-1] + 1]))


def _full_open_segments(u: list, cut, size: int, strict: bool) -> list:
    """Per piece: its first letter and its sorted letters whose partner has
    not occurred yet; unless strict, second letters with no such letter
    between them form one sorted group."""
    first, pieces = cut
    late = [first.get(x ^ 1, len(u)) for x in range(size)]
    out = []
    for a, b in pieces:
        x, open_letters = u[a], sorted([y for y in u[a:b] if late[y] > a])
        if not strict and late[x] < a and out and not out[-1][1]:
            out[-1] = (tuple(sorted(out[-1][0] + (x,))), open_letters)
        else:
            out.append(((x,), open_letters))
    return out


def _full_first_diff(p, q, lo: int, hi: int):
    """First index outside lo..hi-1 at which p and q differ, or None."""
    if p[:lo] == q[:lo] and p[hi:] == q[hi:]:
        return None
    for i, (a, b) in enumerate(zip(p, q)):
        if a != b and not lo <= i < hi:
            return i
    return None


def _full_base_sums(p: list) -> list:
    """Per-letter counts summed per base (star-blind)."""
    return list(map(add, p[::2], p[1::2]))


def _full_pivot_sweep(u: list, v: list, pu: list, pv: list, size: int):
    """From empty counts, at the first occurrence of every letter y: the
    first base outside y's own whose star-blind counts before it differ
    (IV), and, when y's partner has not occurred, the first letter outside
    y's base whose counts differ (V)."""
    cu, cv = [0] * size, [0] * size
    bad_iv, bad_v = {}, {}
    for (a, b), (c, d) in zip(pu, pv):
        y = u[a]
        z = y & ~1
        if cu[:z] != cv[:z] or cu[z + 2:] != cv[z + 2:]:
            w = _full_first_diff(_full_base_sums(cu), _full_base_sums(cv),
                                 z >> 1, (z >> 1) + 1)
            if w is not None:
                bad_iv[y] = w
            if cu[y ^ 1] == 0:
                bad_v[y] = _full_first_diff(cu, cv, z, z + 2)
        for x in u[a:b]:
            cu[x] += 1
        for x in v[c:d]:
            cv[x] += 1
    return bad_iv, bad_v


def _full_window(u: list, v: list):
    """The lengths of the common prefix, and the length less that of the
    common suffix, of two balanced sides that differ, index by index."""
    p = next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)
    q = next(i for i, (a, b) in enumerate(zip(u[::-1], v[::-1])) if a != b)
    return p, len(u) - q


def common_ends_loops(u, v):
    """The lengths p of the longest common prefix of two sides and s of the
    longest common suffix of the rest, by index loops over any lengths."""
    short = min(len(u), len(v))
    p = 0
    while p < short and u[p] == v[p]:
        p += 1
    s = 0
    while s < short - p and u[-1 - s] == v[-1 - s]:
        s += 1
    return p, s


def full_sweep_check(ident: Identity, n: int, mode: str = "involution",
                     witness: bool = True) -> CheckReport:
    """Every rank >= 2 and the plain variant, by cutting, comparing and
    sweeping every piece of both whole sides, forward and reversed.  A NO
    names an OccLR witness by the definition route `_occ_lr_check`, a
    subset witness by the library's `_subset_violation`, and a pivot
    witness from the first differences that the full sweep records."""
    names, u, v = letter_ids(ident)
    size, ru, rv = 2 * len(names), u[::-1], v[::-1]
    occ_lr = n >= 4 or mode == "plain"
    strict = n >= 3

    def segments(w, cut):
        return ([sorted(w[a:b]) for a, b in cut[1]] if occ_lr
                else _full_open_segments(w, cut, size, strict))

    balanced = sorted(u) == sorted(v)
    agreed = []
    for a, b in ((u, v), (ru, rv)) if balanced else ():
        ca, cb = _full_pieces(a), _full_pieces(b)
        if segments(a, ca) != segments(b, cb):
            break
        agreed.append((a, b, ca[1], cb[1]))
    same = len(agreed) == 2
    (left_iv, left_v), (right_iv, right_v) = (
        [_full_pivot_sweep(*reading, size) for reading in agreed]
        if same and n == 3 and not occ_lr else (({}, {}), ({}, {})))
    if same and not (left_iv or right_iv or left_v or right_v):
        return CheckReport(True, n, mode)
    if not witness:
        return CheckReport(False, n, mode)
    if not balanced:
        return _no(n, "Balanced", _balance_witness(Counter(ident.lhs),
                                                   Counter(ident.rhs), str), mode)
    if occ_lr:
        return _occ_lr_check(ident, n, mode)
    if not same:
        return _no(n, *_subset_violation(names, u, v, ru, rv, strict,
                                         *_full_window(u, v)))
    if left_iv or right_iv:
        y = min(left_iv.keys() | right_iv.keys())
        # the lesser base, the left side on a tie
        d, side = min((c[y], side) for side, c in (("left", left_iv),
                                                   ("right", right_iv)) if y in c)
        return _no(3, "IV", {"pivot": str(id_letter(names, y)),
                             "base": names[d], "side": side})
    y = min(left_v.keys() | right_v.keys())
    side, d = ("left", left_v[y]) if y in left_v else ("right", right_v[y])
    return _no(3, "V", {"pivot": str(id_letter(names, y)),
                        "letter": str(id_letter(names, d)), "side": side})


# ---------------------------------------------------------------------------
# Terms: recursive parser, character-loop lexer
# ---------------------------------------------------------------------------

def flatten(t: Term) -> IWord:
    """Convert a term to its unique word form: stars distribute by reversing
    factor order and toggling letter flags; double stars cancel."""
    out = []

    def walk(node, starred: bool):
        if isinstance(node, Atom):
            out.append(node.var.star() if starred else node.var)
        elif isinstance(node, Star):
            walk(node.inner, not starred)
        else:
            parts = reversed(node.parts) if starred else node.parts
            for p in parts:
                walk(p, starred)

    walk(t, False)
    return tuple(out)


def parse_term(text: str) -> Term:
    """Parse the textual term grammar.

    Juxtaposition is concatenation, postfix ``*`` is star (binds tighter than
    concatenation), parentheses group, identifiers start with a letter or
    underscore.  Whitespace only separates tokens; bare digits are not
    variables.
    """
    tokens = _lex_term(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_concat():
        nonlocal pos
        parts = []
        while True:
            tok = peek()
            if tok is None or tok in (")",):
                break
            if tok == "*":
                raise ParseError("dangling star")
            if tok == "(":
                pos += 1
                inner = parse_concat()
                if peek() != ")":
                    raise ParseError("unbalanced parentheses")
                pos += 1
                node = inner
            else:
                pos += 1
                node = Atom(IVar(tok, False))
            while peek() == "*":
                pos += 1
                node = Star(node)
            parts.append(node)
        if not parts:
            raise ParseError("empty term")
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    term = parse_concat()
    if pos != len(tokens):
        raise ParseError(f"unexpected token {tokens[pos]!r}")
    return term


def _lex_term(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*":
            tokens.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"bad character {c!r} at position {i}")
    if not tokens:
        raise ParseError("empty term")
    return tokens


def parse_identity(text: str) -> Identity:
    """Each side parsed as a term of its own; the right side keeps its
    offset, with blanks for the text before it, so error positions index
    the whole text."""
    for sep in ("≈", "~="):
        if sep in text:
            left, right = text.split(sep, 1)
            blank = " " * (len(left) + len(sep))
            return Identity(flatten(parse_term(left)), flatten(parse_term(blank + right)))
    raise ParseError("identity needs a '≈' or '~=' separator")


def reversed_ids(ids: tuple) -> tuple:
    """The letter ids of an identity's reverse, from its `letter_ids`
    triple: each side read backwards."""
    names, u, v = ids
    return names, u[::-1], v[::-1]


def starred_ids(ids: tuple) -> tuple:
    """The letter ids of an identity's star, from its `letter_ids` triple:
    each side read backwards, x* having the id of x with its last bit
    flipped."""
    names, u, v = ids
    return (names, tuple([a ^ 1 for a in reversed(u)]),
            tuple([a ^ 1 for a in reversed(v)]))


# ---------------------------------------------------------------------------
# Rank >= 4 component maps: four families picked by the order of i, j, i#, j#
# ---------------------------------------------------------------------------

def _letter_pair_words(n: int, i: int, j: int) -> dict[int, tuple[tuple, tuple]]:
    """For each letter k of 1..n, the pair of rank-3 words it maps to under
    the (i, j) component map.  The family is selected by the relative order
    of i, j and their complements i# = n+1-i, j# = n+1-j."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    isharp, jsharp = n + 1 - i, n + 1 - j

    def lam(k):
        if k == i:
            return (1,)
        if k == j:
            return (3,)
        if i < k < j:
            return (3, 1)
        return ()

    def low_map(i1, i2):
        # 1 on i1, 2 on i2, 21 strictly between
        def f(k):
            if k == i1:
                return (1,)
            if k == i2:
                return (2,)
            if i1 < k < i2:
                return (2, 1)
            return ()
        return f

    def high_map(i1, i2):
        # 2 on i1, 3 on i2, 32 strictly between
        def f(k):
            if k == i1:
                return (2,)
            if k == i2:
                return (3,)
            if i1 < k < i2:
                return (3, 2)
            return ()
        return f

    if isharp == j:
        first = second = lam
    elif i < j == jsharp < isharp or jsharp < i == isharp < j:
        if i < j == jsharp < isharp:
            i1, i2, i3 = i, j, isharp
        else:
            i1, i2, i3 = jsharp, i, j
        first, second = low_map(i1, i2), high_map(i2, i3)
    elif i < j < jsharp < isharp or jsharp < isharp < i < j:
        if i < j < jsharp < isharp:
            i1, i2, i3, i4 = i, j, jsharp, isharp
        else:
            i1, i2, i3, i4 = jsharp, isharp, i, j
        first, second = low_map(i1, i2), high_map(i3, i4)
    elif i < jsharp < j < isharp or jsharp < i < isharp < j:
        if i < jsharp < j < isharp:
            i1, i2, i3, i4 = i, jsharp, j, isharp
        else:
            i1, i2, i3, i4 = jsharp, i, isharp, j
        # the low map here spans i1..i3 (i2 falls in its middle range)
        first, second = low_map(i1, i3), high_map(i2, i4)
    else:
        raise AssertionError(f"index pair ({i},{j}) at n={n} matches no case")

    return {k: (first(k), second(k)) for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Monoid invariants: the quadratic precedence scans
# ---------------------------------------------------------------------------

def _positions(symbols) -> dict[int, list[int]]:
    pos: dict[int, list[int]] = {}
    for i, a in enumerate(symbols):
        pos.setdefault(a, []).append(i)
    return pos


def _rpi(pos: dict[int, list[int]]) -> frozenset:
    out = set()
    for a, pa in pos.items():
        last_a = pa[-1]
        b = None
        for c in pos:
            if c > a and pos[c][-1] > last_a and (b is None or c < b):
                b = c
        if b is not None:
            r = len(pos[b]) - bisect_right(pos[b], last_a)
            out.add((b, a, r))
    return frozenset(out)


def _lpi(pos: dict[int, list[int]]) -> frozenset:
    out = set()
    for b, pb in pos.items():
        first_b = pb[0]
        a = None
        for c in pos:
            if c < b and pos[c][0] < first_b and (a is None or c > a):
                a = c
        if a is not None:
            ell = bisect_left(pos[a], first_b)
            out.add((a, b, ell))
    return frozenset(out)


def key_of(symbols: tuple, n: int) -> tuple:
    """(ev, lpi, rpi) with, for each letter, a scan over the whole support
    for its nearest smaller (lpi) or larger (rpi) partner."""
    counts = [0] * n
    for a in symbols:
        counts[a - 1] += 1
    pos = _positions(symbols)
    return (tuple(counts), _lpi(pos), _rpi(pos))


# ---------------------------------------------------------------------------
# Families: isoterm partners by enumerating every rearrangement
# ---------------------------------------------------------------------------

def multiset_permutations(pool):
    """Distinct permutations of a multiset, in lexicographic order: each
    position takes, in sorted order, every letter with copies left."""
    pool = sorted(pool)
    n = len(pool)
    counts = Counter(pool)
    keys = sorted(counts)
    acc: list = []

    def rec():
        if len(acc) == n:
            yield tuple(acc)
            return
        for kx in keys:
            if counts[kx]:
                counts[kx] -= 1
                acc.append(kx)
                yield from rec()
                acc.pop()
                counts[kx] += 1

    yield from rec()


def isoterm_partners(u: IWord, n: int) -> list[IWord]:
    """Every rearrangement v != u of u's letters that the rank-n checker
    accepts as u ~ v, in sorted order."""
    return [v for v in multiset_permutations(u)
            if v != u and check(Identity(u, v), n, witness=False).verdict]


# ---------------------------------------------------------------------------
# Twin trees: nested nodes built by recursive insertion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    label: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None


def insert_right_strict(t: Optional[Node], a: int) -> Optional[Node]:
    """Insert into a right strict BST: go right iff a > node label."""
    if t is None:
        return Node(a)
    if a > t.label:
        return Node(t.label, t.left, insert_right_strict(t.right, a))
    return Node(t.label, insert_right_strict(t.left, a), t.right)


def insert_left_strict(t: Optional[Node], a: int) -> Optional[Node]:
    """Insert into a left strict BST: go left iff a < node label."""
    if t is None:
        return Node(a)
    if a < t.label:
        return Node(t.label, insert_left_strict(t.left, a), t.right)
    return Node(t.label, t.left, insert_left_strict(t.right, a))


def p_sylv(w: AWord) -> Optional[Node]:
    """Right strict insertion tree of w, reading right to left."""
    t = None
    for a in reversed(w.symbols):
        t = insert_right_strict(t, a)
    return t


def p_sylv_sharp(w: AWord) -> Optional[Node]:
    """Left strict insertion tree of w, reading left to right."""
    t = None
    for a in w.symbols:
        t = insert_left_strict(t, a)
    return t


def to_dot(t: Optional[Node], name: str = "bst") -> str:
    """DOT text of a nested tree: preorder node ids, left edge before right."""
    lines = [f"digraph {name} {{"]
    counter = [0]

    def walk(node):
        my_id = f"n{counter[0]}"
        counter[0] += 1
        lines.append(f'  {my_id} [label="{node.label}"];')
        for tag, child in (("L", node.left), ("R", node.right)):
            if child is not None:
                lines.append(f'  {my_id} -> n{counter[0]} [label="{tag}"];')
                walk(child)

    if t is not None:
        walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_nested(t: BST) -> Optional[Node]:
    """The nested form of a flat tree."""
    def build(i):
        if i < 0:
            return None
        return Node(t.labels[i], build(t.left[i]), build(t.right[i]))
    return build(t.root)


def from_nested(node: Optional[Node]) -> BST:
    """The flat form of a nested tree: its nodes numbered in in-order."""
    return from_json_obj(None if node is None else asdict(node))


# ---------------------------------------------------------------------------
# Oracle: both sides' keys on every assignment
# ---------------------------------------------------------------------------

def _oracle_evaluate(ident: Identity, n: int, max_len: int, assignments):
    """The first assignment (class indices, one per base in sorted order)
    whose two sides have different keys, as a base -> class map (None if
    there is none), and the number of assignments evaluated.  The keys are
    the library's, which the tests hold to key_of above."""
    classes = enumerate_classes(n, max_len)
    bases = sorted({x.base for x in ident.lhs + ident.rhs})
    plain = [e.representative.symbols for e in classes]
    starred = [sharp_word(e.representative).symbols for e in classes]

    def side_key(side, sub):
        out = []
        for x in side:
            out.extend((starred if x.starred else plain)[sub[x.base]])
        return fast_key_of(tuple(out), n)

    count = 0
    for count, idxs in enumerate(assignments, 1):
        sub = dict(zip(bases, idxs))
        if side_key(ident.lhs, sub) != side_key(ident.rhs, sub):
            return {b: classes[i] for b, i in sub.items()}, count
    return None, count


def oracle_scan(ident: Identity, n: int, max_len: int):
    """The full grid, row-major over the bases in sorted order."""
    m = len(enumerate_classes(n, max_len))
    nbases = len({x.base for x in ident.lhs + ident.rhs})
    return _oracle_evaluate(ident, n, max_len,
                            product(range(m), repeat=nbases))


def reference_scan(ident: Identity, n: int, max_len: int):
    """The full grid, row-major over the bases in sorted order, with no
    block, rule or record of `oracle._blocks` passing over any assignment:
    the first assignment that `oracle._refutes` accepts on its middles'
    images, as a base -> class map (None if there is none), and its place
    in the enumeration (the grid's size if there is none).  Equal middles
    give equal words, which `_refutes` never accepts, so they skip it."""
    classes = enumerate_classes(n, max_len)
    bases, u, v = letter_ids(ident)
    words = oracle._table_images(n, max_len)[0]
    ends = common_ends(u, v)
    middles = oracle._middle_images(u, v, ends, words)
    refutes = oracle._refutes(u, v, ends, words, n)
    grid = product(range(len(classes)), repeat=len(bases))
    for count, idxs in enumerate(grid, 1):
        x, y = middles(idxs)
        if x != y and refutes(idxs, x, y):
            return {b: classes[i] for b, i in zip(bases, idxs)}, count
    return None, len(classes) ** len(bases)


def oracle_sample(ident: Identity, n: int, max_len: int, samples: int,
                  seed: int = 0):
    """Seeded uniform draws from the grid, one base after another."""
    m = len(enumerate_classes(n, max_len))
    nbases = len({x.base for x in ident.lhs + ident.rhs})
    rng = random.Random(seed)
    draws = ([rng.randrange(m) for _ in range(nbases)] for _ in range(samples))
    return _oracle_evaluate(ident, n, max_len, draws)


# ---------------------------------------------------------------------------
# Representation: the generator fold, block by block and on dense rows
# ---------------------------------------------------------------------------

def _unit(n: int) -> UTMatrix:
    """The identity in the block split of the rank-n generator images."""
    return UTMatrix([[[0 if i == j else NEG_INF for j in range(k)] for i in range(k)]
                     for k in generator_images(n)[1].sizes])


def product_fold(w: AWord) -> UTMatrix:
    """phi_n(w), n <= 3, as defined: the identity times the generator image
    of each letter in turn, by `mat_mul`, so it keeps the images' split."""
    gens = generator_images(w.rank)
    return reduce(mat_mul, map(gens.__getitem__, w.symbols), _unit(w.rank))


def product_images(n: int, max_len: int) -> dict:
    """{symbols: product_fold image} for every word over 1..n of length
    <= max_len, each the image of its prefix times one generator image."""
    gens = generator_images(n)
    images = {(): _unit(n)}
    frontier = [()]
    for _ in range(max_len):
        frontier = [syms + (a,) for syms in frontier for a in gens]
        for syms in frontier:
            images[syms] = mat_mul(images[syms[:-1]], gens[syms[-1]])
    return images


def _dense_product(a, b):
    """The tropical product of two square matrices given as full rows: every
    k of every entry, with no use of triangularity or blocks."""
    cols = list(zip(*b))
    return tuple(tuple(max((x + y for x, y in zip(row, col)
                            if x != NEG_INF and y != NEG_INF), default=NEG_INF)
                       for col in cols)
                 for row in a)


def dense_fold(w: AWord) -> tuple:
    """The rows of phi_n(w), n <= 3: the dense identity times the dense rows
    of each letter's generator image in turn."""
    gens = {a: M.rows for a, M in generator_images(w.rank).items()}
    d = len(gens[1])
    acc = tuple(tuple(0 if i == j else NEG_INF for j in range(d)) for i in range(d))
    for a in w.symbols:
        acc = _dense_product(acc, gens[a])
    return acc

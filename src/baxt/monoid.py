"""The Baxter monoid of rank n.

Elements are congruence classes of words over {1..n}; two words are congruent
exactly when they share evaluation, left precedences and right precedences,
which is also exactly when their twin insertion trees coincide.  The class is
stored as a representative word plus that invariant triple, which serves as
the canonical form (there is no distinguished normal word).

Also here: the order-reversing involution w -> reverse(complement(w)), and the
one-step rewriting relation of the defining presentation, used to generate
provably congruent word pairs for tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .words import AWord


class RankMismatchError(ValueError):
    """Operands live over alphabets of different ranks."""


InvariantKey = tuple  # (evaluation, lpi frozenset, rpi frozenset)


def key_of(symbols: tuple, n: int) -> InvariantKey:
    """Invariant triple of a raw symbol tuple, no validation.

    One pass lists each letter's positions.  A stack pass over the support
    in ascending label order keeps the labels whose first occurrences
    increase (all nearest smaller values): once those first occurring after
    b are popped, the top is the a of b's lpi triple.  The mirrored pass over
    last occurrences gives rpi, and the list lengths give ev.
    """
    pos: dict[int, list[int]] = {}
    for i, a in enumerate(symbols):
        pos.setdefault(a, []).append(i)
    counts = [0] * n
    letters = sorted(pos.items())
    lp = []
    stack = []
    for b, pb in letters:
        counts[b - 1] = len(pb)
        first_b = pb[0]
        while stack and stack[-1][1][0] > first_b:
            stack.pop()
        if stack:
            a, pa = stack[-1]
            lp.append((a, b, bisect_left(pa, first_b)))
        stack.append((b, pb))
    rp = []
    stack = []
    for a, pa in reversed(letters):
        last_a = pa[-1]
        while stack and stack[-1][1][-1] < last_a:
            stack.pop()
        if stack:
            b, pb = stack[-1]
            rp.append((b, a, len(pb) - bisect_right(pb, last_a)))
        stack.append((a, pa))
    return (tuple(counts), frozenset(lp), frozenset(rp))


def invariant_key(w: AWord) -> InvariantKey:
    return key_of(w.symbols, w.rank)


def evaluation(w: AWord) -> tuple[int, ...]:
    """Letter-count vector indexed by 1..n."""
    return invariant_key(w)[0]


def lpi(w: AWord) -> frozenset[tuple[int, int, int]]:
    """Left precedences {(a, b, l)}: reading left to right, a occurs l times
    before the first b, with no intermediate letter in that stretch."""
    return invariant_key(w)[1]


def rpi(w: AWord) -> frozenset[tuple[int, int, int]]:
    """Right precedences {(b, a, r)}: reading right to left, b occurs r times
    before the first a, with no intermediate letter in that stretch.

    Concretely: for each a in the support, look strictly after the last a;
    b is the smallest letter above a occurring there, r its count there.
    """
    return invariant_key(w)[2]


@dataclass(frozen=True)
class BaxtElement:
    """A congruence class: representative word plus canonical invariant key.

    Equality, hashing and JSON all go through the key; the representative is
    whatever word the class was first built from.
    """

    rank: int
    representative: AWord = field(compare=False)
    key: InvariantKey

    def __str__(self):
        return f"[{self.representative}]"


def canonical(w: AWord) -> BaxtElement:
    return BaxtElement(w.rank, w, invariant_key(w))


def identity_element(n: int) -> BaxtElement:
    return canonical(AWord((), n))


def equivalent(u: AWord, v: AWord) -> bool:
    if u.rank != v.rank:
        raise RankMismatchError(f"ranks {u.rank} and {v.rank} differ")
    return invariant_key(u) == invariant_key(v)


def multiply(e1: BaxtElement, e2: BaxtElement) -> BaxtElement:
    if e1.rank != e2.rank:
        raise RankMismatchError(f"ranks {e1.rank} and {e2.rank} differ")
    return canonical(e1.representative.concat(e2.representative))


def sharp_word(w: AWord) -> AWord:
    """Reverse the word and complement every letter (a -> n+1-a)."""
    n = w.rank
    return AWord(tuple(n + 1 - a for a in reversed(w.symbols)), n)


def sharp(e: BaxtElement) -> BaxtElement:
    return canonical(sharp_word(e.representative))


def rewrite_neighbors(w: AWord) -> set[AWord]:
    """All words one justified adjacent transposition away from w.

    The defining relations swap an adjacent (a, d) <-> (d, a) provided some
    letter c before the pair and some letter b after it satisfy either
    a <= b < c <= d (first family) or a < b <= c < d (second family); both
    directions of both families are emitted.
    """
    syms = w.symbols
    m = len(syms)
    out: set[AWord] = set()
    for p in range(m - 1):
        x0, x1 = syms[p], syms[p + 1]
        if x0 == x1:
            continue
        lo, hi = (x0, x1) if x0 < x1 else (x1, x0)
        before = syms[:p]
        after = syms[p + 2:]
        # Both relation families are direction-symmetric in (lo, hi):
        # family 1 wants c before, b after with lo <= b < c <= hi;
        # family 2 wants b before, c after with lo <  b <= c <  hi.
        c1 = max((x for x in before if lo <= x <= hi), default=None)
        b1 = min((x for x in after if lo <= x <= hi), default=None)
        if c1 is not None and b1 is not None and b1 < c1:
            out.add(AWord(before + (x1, x0) + after, w.rank))
            continue
        b2 = min((x for x in before if lo < x < hi), default=None)
        c2 = max((x for x in after if lo < x < hi), default=None)
        if b2 is not None and c2 is not None and b2 <= c2:
            out.add(AWord(before + (x1, x0) + after, w.rank))
    return out


def key_to_json_obj(key: InvariantKey) -> dict:
    """(ev, lpi, rpi) as JSON lists, the triples in sorted order."""
    ev, lp, rp = key
    return {"ev": list(ev), "lpi": [list(t) for t in sorted(lp)],
            "rpi": [list(t) for t in sorted(rp)]}


def element_to_json_obj(e: BaxtElement) -> dict:
    return {"n": e.rank, "representative": str(e.representative),
            **key_to_json_obj(e.key)}

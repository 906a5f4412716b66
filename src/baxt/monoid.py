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
from dataclasses import dataclass

from .words import AWord


class RankMismatchError(ValueError):
    """Operands live over alphabets of different ranks."""


def evaluation(w: AWord) -> tuple[int, ...]:
    """Letter-count vector indexed by 1..n."""
    counts = [0] * w.rank
    for a in w.symbols:
        counts[a - 1] += 1
    return tuple(counts)


def support(w: AWord) -> frozenset[int]:
    return frozenset(w.symbols)


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


def rpi(w: AWord) -> frozenset[tuple[int, int, int]]:
    """Right precedences {(b, a, r)}: reading right to left, b occurs r times
    before the first a, with no intermediate letter in that stretch.

    Concretely: for each a in the support, look strictly after the last a;
    b is the smallest letter above a occurring there, r its count there.
    """
    return _rpi(_positions(w.symbols))


def lpi(w: AWord) -> frozenset[tuple[int, int, int]]:
    """Left precedences {(a, b, l)}: reading left to right, a occurs l times
    before the first b, with no intermediate letter in that stretch."""
    return _lpi(_positions(w.symbols))


InvariantKey = tuple  # (evaluation, lpi frozenset, rpi frozenset)


def key_of(symbols: tuple, n: int) -> InvariantKey:
    """Invariant triple of a raw symbol tuple; single pass, no validation."""
    counts = [0] * n
    for a in symbols:
        counts[a - 1] += 1
    pos = _positions(symbols)
    return (tuple(counts), _lpi(pos), _rpi(pos))


def invariant_key(w: AWord) -> InvariantKey:
    return key_of(w.symbols, w.rank)


@dataclass(frozen=True)
class BaxtElement:
    """A congruence class: representative word plus canonical invariant key.

    Equality, hashing and JSON all go through the key; the representative is
    whatever word the class was first built from.
    """

    rank: int
    representative: AWord
    key: InvariantKey

    def __eq__(self, other):
        if not isinstance(other, BaxtElement):
            return NotImplemented
        return self.rank == other.rank and self.key == other.key

    def __hash__(self):
        return hash((self.rank, self.key))

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

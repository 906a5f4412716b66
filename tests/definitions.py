"""The paper's definitions that only the tests evaluate.

Each is written out as stated, with no speed-up: the segment views pre, suf,
pren and sufn of the identity characterization, the in-order walk, labels
and strictness invariants of the twin binary search trees, writing a tree as
nested JSON objects and reading it back, every word up to a length, the
support of a word, the congruence class of a word as the closure under
one-step rewriting, and a class's invariant key read back from its tropical
image at ranks 1..3.  The tests check the library's fast routes against them.
"""

from __future__ import annotations

import json
from itertools import product

from baxt.monoid import rewrite_neighbors
from baxt.trees import BST
from baxt.words import AWord, IWord


# ---------------------------------------------------------------------------
# Segment views
# ---------------------------------------------------------------------------

def pre(u: IWord) -> IWord:
    """Longest prefix over a single letter."""
    if not u:
        raise ValueError("pre of the empty word")
    i = 1
    while i < len(u) and u[i] == u[0]:
        i += 1
    return u[:i]


def suf(u: IWord) -> IWord:
    """Longest suffix over a single letter."""
    if not u:
        raise ValueError("suf of the empty word")
    i = len(u) - 1
    while i > 0 and u[i - 1] == u[-1]:
        i -= 1
    return u[i:]


def pren(u: IWord) -> IWord:
    """Longest prefix containing no mixed pair {x, x*}."""
    seen = set()
    for i, x in enumerate(u):
        if x.star() in seen:
            return u[:i]
        seen.add(x)
    return u


def sufn(u: IWord) -> IWord:
    """Longest suffix containing no mixed pair {x, x*}."""
    seen = set()
    for i in range(len(u) - 1, -1, -1):
        x = u[i]
        if x.star() in seen:
            return u[i + 1:]
        seen.add(x)
    return u


# ---------------------------------------------------------------------------
# Twin binary search trees
# ---------------------------------------------------------------------------

def in_order(t: BST) -> list[int]:
    """The positions met by walking the child links in-order from the root."""
    def walk(i):
        return [] if i < 0 else walk(t.left[i]) + [i] + walk(t.right[i])
    return walk(t.root)


def labels(t: BST) -> list[int]:
    """All labels, in-order (a multiset witness)."""
    return [t.labels[i] for i in in_order(t)]


def is_right_strict(t: BST) -> bool:
    """Full-traversal check of the right strict invariant."""
    # In the left subtree of x every label <= x; in the right, strictly > x.
    def check(i, low_excl, high_incl):
        if i < 0:
            return True
        label = t.labels[i]
        if low_excl is not None and not label > low_excl:
            return False
        if high_incl is not None and not label <= high_incl:
            return False
        return (check(t.left[i], low_excl, label)
                and check(t.right[i], label, high_incl))

    return check(t.root, None, None)


def is_left_strict(t: BST) -> bool:
    """Full-traversal check of the left strict invariant."""
    def check(i, low_incl, high_excl):
        if i < 0:
            return True
        label = t.labels[i]
        if low_incl is not None and not label >= low_incl:
            return False
        if high_excl is not None and not label < high_excl:
            return False
        return (check(t.left[i], low_incl, label)
                and check(t.right[i], label, high_excl))

    return check(t.root, None, None)


def to_json_obj(t: BST):
    """Nested {label, left, right} objects; None for absent children."""
    def build(i):
        if i < 0:
            return None
        return {"label": t.labels[i], "left": build(t.left[i]),
                "right": build(t.right[i])}
    return build(t.root)


def from_json_obj(obj) -> BST:
    """The flat tree of nested {label, left, right} objects, its nodes
    numbered in in-order."""
    labels, left, right = [], [], []

    def walk(o):
        if o is None:
            return -1
        below = walk(o["left"])
        i = len(labels)
        labels.append(o["label"])
        left.append(below)
        right.append(-1)
        right[i] = walk(o["right"])
        return i

    root = walk(obj)
    return BST(tuple(labels), tuple(left), tuple(right), root)


def to_json(t: BST) -> str:
    return json.dumps(to_json_obj(t), separators=(",", ":"))


# ---------------------------------------------------------------------------
# Supports and congruence classes
# ---------------------------------------------------------------------------

def words_upto(n: int, max_len: int) -> list[AWord]:
    """Every word over 1..n of length <= max_len, in length-then-lex order."""
    return [AWord(t, n) for L in range(max_len + 1)
            for t in product(range(1, n + 1), repeat=L)]


def support(w: AWord) -> frozenset[int]:
    return frozenset(w.symbols)


def congruence_class(w: AWord, limit: int = 100000) -> set[AWord]:
    """Closure of {w} under one-step rewriting (lengths are preserved)."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for y in rewrite_neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > limit:
                        raise RuntimeError("congruence class exceeded limit")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# The tropical images of ranks 1..3 read back
# ---------------------------------------------------------------------------
#
# Each decodeN takes the rank-N image of a class and gives back its invariant
# key.  ev sits on the 1x1 diagonal blocks.  A P/K block P^l K holds l at its
# corner and a J/Q block J Q^r holds r there, each the count of one
# precedence triple, which is present when its count is nonzero; a block with
# no K- or J-letter holds -inf at its corner.

def _present(counts: dict) -> frozenset:
    """The triples (a, b, c) of {(a, b): c} whose count c is nonzero."""
    return frozenset((a, b, c) for (a, b), c in counts.items() if c > 0)


def decode1(M) -> tuple:
    """phi1 is diag(|w|, |w|): ev alone, and no precedence at rank 1."""
    return (M[0, 0],), frozenset(), frozenset()


def decode2(M) -> tuple:
    """ev at 0 and 5, (1, 2, l) in the P/K block, (2, 1, r) in the J/Q one."""
    return ((M[0, 0], M[5, 5]), _present({(1, 2): M[1, 2]}),
            _present({(2, 1): M[3, 4]}))


def decode3(M) -> tuple:
    """ev at 0, 7 and 14.  The P/K blocks [P/K/E] and [E/P/K] hold (1, 2)
    and (2, 3) of lpi, and [P/K/K] holds (1, f), with f whichever of 2 and
    3 comes first: 2 when a 2 occurs and either no 3 does or a 2 precedes
    the first 3.  Dually the J/Q blocks [J/Q/E] and [E/J/Q] hold (2, 1) and
    (3, 2) of rpi, and [J/J/Q] holds (3, g), with g whichever of 1 and 2
    comes last.  With f = 2 (g = 2) that block repeats the (1, 2) ((3, 2))
    count and is not read."""
    e1, e2, e3 = ev = (M[0, 0], M[7, 7], M[14, 14])
    lp = {(1, 2): M[3, 4], (2, 3): M[5, 6]}
    if not (e2 and (not e3 or lp[2, 3] > 0)):
        lp[1, 3] = M[1, 2]
    rp = {(2, 1): M[8, 9], (3, 2): M[10, 11]}
    if not (e2 and (not e1 or rp[2, 1] > 0)):
        rp[3, 1] = M[12, 13]
    return ev, _present(lp), _present(rp)

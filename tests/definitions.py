"""The paper's definitions that only the tests evaluate.

Each is written out as stated, with no speed-up: the segment views pre, suf,
pren and sufn of the identity characterization, the in-order walk, labels
and strictness invariants of the twin binary search trees, writing a tree as
nested JSON objects and reading it back, every word up to a length, the
support of a word, and the congruence class of a word as the closure under
one-step rewriting.  The tests check the library's fast routes against them.
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

"""The paper's definitions that only the tests evaluate.

Each is written out as stated, with no speed-up: the segment views pre, suf,
pren and sufn of the identity characterization, the in-order labels and the
strictness invariants of the twin binary search trees, reading a tree back
from its JSON form, the support of a word, and the congruence class of a
word as the closure under one-step rewriting.  The tests check the library's
fast routes against them.
"""

from __future__ import annotations

import json

from baxt.monoid import rewrite_neighbors
from baxt.trees import BST, Node, to_json_obj
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

def labels(t: BST) -> list[int]:
    """All labels, in-order (a multiset witness)."""
    if t is None:
        return []
    return labels(t.left) + [t.label] + labels(t.right)


def is_right_strict(t: BST) -> bool:
    """Full-traversal check of the right strict invariant."""
    # In the left subtree of x every label <= x; in the right, strictly > x.
    def check(node, low_excl, high_incl):
        if node is None:
            return True
        if low_excl is not None and not node.label > low_excl:
            return False
        if high_incl is not None and not node.label <= high_incl:
            return False
        return (check(node.left, low_excl, node.label)
                and check(node.right, node.label, high_incl))

    return check(t, None, None)


def is_left_strict(t: BST) -> bool:
    """Full-traversal check of the left strict invariant."""
    def check(node, low_incl, high_excl):
        if node is None:
            return True
        if low_incl is not None and not node.label >= low_incl:
            return False
        if high_excl is not None and not node.label < high_excl:
            return False
        return (check(node.left, low_incl, node.label)
                and check(node.right, node.label, high_excl))

    return check(t, None, None)


def from_json_obj(obj) -> BST:
    if obj is None:
        return None
    return Node(obj["label"], from_json_obj(obj["left"]), from_json_obj(obj["right"]))


def to_json(t: BST) -> str:
    return json.dumps(to_json_obj(t), separators=(",", ":"))


# ---------------------------------------------------------------------------
# Supports and congruence classes
# ---------------------------------------------------------------------------

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

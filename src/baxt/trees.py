"""Twin binary search tree insertion.

A right strict BST has every node >= its left subtree and < its right
subtree; inserting reads the word right to left.  A left strict BST has every
node > its left subtree and <= its right subtree; inserting reads left to
right.  The pair of both trees identifies an element of the Baxter monoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .words import AWord


@dataclass(frozen=True)
class Node:
    label: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None


#: A BST is a Node or None (the empty tree).
BST = Optional[Node]


class TwinPair(NamedTuple):
    left: BST   # left strict, built left to right
    right: BST  # right strict, built right to left


def insert_right_strict(t: BST, a: int) -> BST:
    """Insert into a right strict BST: go right iff a > node label."""
    if t is None:
        return Node(a)
    if a > t.label:
        return Node(t.label, t.left, insert_right_strict(t.right, a))
    return Node(t.label, insert_right_strict(t.left, a), t.right)


def insert_left_strict(t: BST, a: int) -> BST:
    """Insert into a left strict BST: go left iff a < node label."""
    if t is None:
        return Node(a)
    if a < t.label:
        return Node(t.label, insert_left_strict(t.left, a), t.right)
    return Node(t.label, t.left, insert_left_strict(t.right, a))


def p_sylv(w: AWord) -> BST:
    """Right strict insertion tree of w, reading right to left."""
    t: BST = None
    for a in reversed(w.symbols):
        t = insert_right_strict(t, a)
    return t


def p_sylv_sharp(w: AWord) -> BST:
    """Left strict insertion tree of w, reading left to right."""
    t: BST = None
    for a in w.symbols:
        t = insert_left_strict(t, a)
    return t


def p_baxt(w: AWord) -> TwinPair:
    return TwinPair(p_sylv_sharp(w), p_sylv(w))


def tree_equal(a: BST, b: BST) -> bool:
    """Structural equality on shape and labels."""
    if a is None or b is None:
        return a is b
    return (a.label == b.label
            and tree_equal(a.left, b.left)
            and tree_equal(a.right, b.right))


def to_json_obj(t: BST):
    """Nested {label, left, right} objects; null for absent children."""
    if t is None:
        return None
    return {"label": t.label, "left": to_json_obj(t.left), "right": to_json_obj(t.right)}


def to_dot(t: BST, name: str = "bst") -> str:
    """Deterministic DOT text: preorder node ids, left edge before right."""
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

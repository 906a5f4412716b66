"""Twin binary search trees, built without insertion.

A right strict BST has every node >= its left subtree and < its right
subtree; inserting reads the word right to left.  A left strict BST has every
node > its left subtree and <= its right subtree; inserting reads left to
right.  The pair of both trees identifies an element of the Baxter monoid.

A BST built by insertion is the Cartesian tree of its letters with insertion
time as priority (Vuillemin 1980).  Both trees have the same in-order: the
positions of the word sorted stably by letter, since equal letters go right
in the left strict tree and left in the right strict one.  The left strict
tree is the Cartesian tree of that order that is a min-heap on position, the
right strict tree the max-heap.  So both come from one sort and a linear
stack pass each, and no function here recurses.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import AWord


class BST(NamedTuple):
    """A binary search tree over in-order positions 0..m-1: the label at each
    position, the positions of its left and right children, and the root's
    position, with -1 for none.  Equality and hashing are tuple equality."""
    labels: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    root: int


class TwinPair(NamedTuple):
    left: BST   # left strict, built left to right
    right: BST  # right strict, built right to left


def _in_order(w: AWord) -> tuple[list[int], tuple[int, ...]]:
    """The positions of w sorted stably by letter, and their letters."""
    s = w.symbols
    order = sorted(range(len(s)), key=s.__getitem__)
    return order, tuple(sorted(s))


def _heap_tree(labels: tuple[int, ...], keys: list[int]) -> BST:
    """The Cartesian tree over in-order positions that is a min-heap on the
    distinct keys: one pass with a stack of the rightmost path."""
    left = [-1] * len(keys)
    right = [-1] * len(keys)
    stack = []
    for i, key in enumerate(keys):
        last = -1
        while stack and keys[stack[-1]] > key:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    return BST(labels, tuple(left), tuple(right), stack[0] if stack else -1)


def p_sylv(w: AWord) -> BST:
    """Right strict insertion tree of w, reading right to left."""
    order, labels = _in_order(w)
    return _heap_tree(labels, [-p for p in order])


def p_sylv_sharp(w: AWord) -> BST:
    """Left strict insertion tree of w, reading left to right."""
    order, labels = _in_order(w)
    return _heap_tree(labels, order)


def p_baxt(w: AWord) -> TwinPair:
    order, labels = _in_order(w)
    return TwinPair(_heap_tree(labels, order),
                    _heap_tree(labels, [-p for p in order]))


def tree_equal(a: BST, b: BST) -> bool:
    """Structural equality on shape and labels."""
    return a == b


def _nested(t: BST, head: str, mid: str, end: str, null: str) -> str:
    """Nested {label, left, right} text in preorder, null for absent
    children: a node reads head % label, then its left subtree, mid, its
    right subtree and end."""
    parts = []
    todo = [t.root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item < 0:
            parts.append(null)
        else:
            parts.append(head % t.labels[item])
            todo += (end, t.right[item], mid, t.left[item])
    return "".join(parts)


def to_json(t: BST) -> str:
    """Compact JSON of nested {label, left, right} objects, null for
    absent children."""
    return _nested(t, '{"label":%d,"left":', ',"right":', "}", "null")


def to_text(t: BST) -> str:
    """The repr of nested {label, left, right} dicts, None for absent
    children."""
    return _nested(t, "{'label': %d, 'left': ", ", 'right': ", "}", "None")


def to_dot(t: BST, name: str = "bst") -> str:
    """Deterministic DOT text: preorder node ids, left edge before right."""
    lines = [f"digraph {name} {{"]
    todo = [(-1, "", t.root)] if t.root >= 0 else []
    count = 0
    while todo:
        parent, tag, node = todo.pop()
        if parent >= 0:
            lines.append(f'  n{parent} -> n{count} [label="{tag}"];')
        lines.append(f'  n{count} [label="{t.labels[node]}"];')
        for tag, child in (("R", t.right[node]), ("L", t.left[node])):
            if child >= 0:
                todo.append((count, tag, child))
        count += 1
    lines.append("}")
    return "\n".join(lines) + "\n"

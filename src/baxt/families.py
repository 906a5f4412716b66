"""Named identity families.

The rank-2 basis rows all share the shape  p1 h p2 k [xy] s p3 t p4  with the
two sides differing only in the middle xy vs yx; each display row is stored
as its four slot letters.  The rank->=4 basis is the two plain rows of that
shape.  The parametric family p_k ~ q_k (k >= 2) separates rank 3 from the
higher ranks and witnesses that rank 3 has no finite basis.  Isoterm
search walks a word's rank-2 class over adjacent swaps and keeps the
members the rank-n checker pairs with the word.
"""

from __future__ import annotations

from .checker import check
from .words import IVar, IWord, Identity, _int_at_least, v

# Display rows of the rank-2 basis, grouped as printed: (tag, p1, p2, p3, p4).
_BASIS2_SLOTS = [
    ("e1.1", "x*", "x", "x*", "x"),
    ("e1.2", "x*", "x", "x", "x*"),
    ("e1.3", "x", "x*", "x*", "x"),
    ("e1.4", "x", "x*", "x", "x*"),
    ("e2.1", "x*", "x", "y*", "y"),
    ("e2.2", "x*", "x", "y", "y*"),
    ("e2.3", "x", "x*", "y*", "y"),
    ("e2.4", "x", "x*", "y", "y*"),
    ("e3.1", "x", "y", "x", "y"),
    ("e3.2", "x", "y", "y", "x"),
    ("e4.1", "x", "y", "x*", "y*"),
    ("e4.2", "x", "y", "y*", "x*"),
    ("e5.1", "x*", "y*", "x*", "y*"),
    ("e5.2", "x*", "y*", "y*", "x*"),
    ("e6.1", "x*", "x", "x", "y"),
    ("e6.2", "x*", "x", "y", "x"),
    ("e6.3", "x", "x*", "x", "y"),
    ("e6.4", "x", "x*", "y", "x"),
    ("e7.1", "x*", "x", "x*", "y*"),
    ("e7.2", "x*", "x", "y*", "x*"),
    ("e7.3", "x", "x*", "x*", "y*"),
    ("e7.4", "x", "x*", "y*", "x*"),
]


def _row(p1: str, p2: str, p3: str, p4: str) -> Identity:
    h, k, s, t, x, y = (IVar(c) for c in "hkstxy")
    head, tail = (v(p1), h, v(p2), k), (s, v(p3), t, v(p4))
    return Identity(head + (x, y) + tail, head + (y, x) + tail)


def basis2_rows() -> list[tuple[str, Identity]]:
    """The displayed rank-2 basis rows, tagged by display position."""
    return [(tag, _row(p1, p2, p3, p4)) for tag, p1, p2, p3, p4 in _BASIS2_SLOTS]


def basis2() -> list[Identity]:
    """The rank-2 basis: every displayed row, then the reverse of every row,
    which the basis statement includes."""
    rows = [ident for _, ident in basis2_rows()]
    return rows + [ident.reversed() for ident in rows]


def basis2_reverses() -> list[Identity]:
    """The reverse of every displayed rank-2 basis row, in display order."""
    return [ident.reversed() for _, ident in basis2_rows()]


def basis4() -> list[Identity]:
    """The two plain rows that form a basis for every rank from 4 up."""
    return [_row("x", "y", "x", "y"), _row("x", "y", "y", "x")]


def pk_qk(k: int) -> Identity:
    """The pair p_k ~ q_k (k >= 2); each side has 6k + 6 letters, and the two
    differ only at the ends of the middle run x1 ... x2k."""
    _int_at_least(k, 2, "k")
    x = IVar("x")
    xs = x.star()
    head = tuple(IVar(f"x{i}", True) for i in range(1, 2 * k + 1))
    mid = tuple(t.bare() for t in head)
    tail = head[0::2] + head[1::2]
    p = head + (x, xs, xs) + mid + (x, xs, x) + tail
    q = head + (x, xs, x) + mid + (xs, xs, x) + tail
    return Identity(p, q)


def isoterm_search(u: IWord, n: int) -> list[IWord]:
    """All rearrangements v != u of u's letters the rank-n checker accepts as
    u ~ v, in sorted order.  An empty result certifies u is an isoterm:
    every identity of the monoid is balanced, so only rearrangements could
    ever pair with u.  Words longer than 10 letters are refused: the rank-1
    class of such a word can hold millions of rearrangements.

    The search walks out from u over adjacent swaps of two different
    letters, keeping each swap that the checker accepts at rank min(n, 2),
    and returns the members of that class that the rank-n checker pairs
    with u.  A swap the checker rejects leaves the class, as the class is an
    equivalence class, so no word is checked twice.  The walk reaches the
    whole rank-min(n, 2) class of u:

    - Rank 1: only the per-base counts matter, so every swap is accepted.
    - Rank >= 3: (baxt_2, #) embeds in (baxt_n, #) by 1 -> 1, 2 -> n, so
      every identity of rank n holds at rank 2, and the rank-n partners of
      u lie in its rank-2 class.  The walk must not run at rank 3 itself:
      x x* y x y x* x x* y* ~ x x* y x* y x x x* y* there, yet no adjacent
      swap of either word stays in its class.
    - Rank 2: bubble a member v of the class toward u.  Let p be the length
      of their common prefix and c = u[p]; a step moves the first c in v
      after position p one place left, past its neighbour d.  A verdict is
      the conjunction of the verdicts on the restrictions to one or two
      bases, and the step changes only the restrictions that hold the
      bases of both c and d.  In each of those the step is the same greedy
      step toward the restriction of u, so it stays in the class if the
      greedy step does so for words over two bases.  An exhaustive check of
      every word over two bases up to length 10, the cap, finds no greedy
      step that leaves its class.  Each step is undone by a swap the walk
      tries, so the walk reaches v.
    """
    _int_at_least(n, 1, "rank")
    if len(u) > 10:
        raise ValueError(f"word of length {len(u)} exceeds the bound 10")
    walk_rank = min(n, 2)
    seen = {u}
    todo = [u]
    members = []
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                continue
            s = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            if s not in seen:
                seen.add(s)
                if check(Identity(w, s), walk_rank, witness=False).verdict:
                    todo.append(s)
                    members.append(s)
    if n > 2:  # at ranks 1 and 2 every member of the class is a partner
        members = [s for s in members
                   if check(Identity(u, s), n, witness=False).verdict]
    return sorted(members)

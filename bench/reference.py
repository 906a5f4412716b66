"""References that decide each op's expected output without the function
under test.

Identity verdicts: rank 1 compares star-blind base counts; ranks 2 and 3 use
the package's literal pattern conditions (``conditions_baxt2/3``), a route
independent of the segment procedure behind ``check``; rank >= 4 and plain
mode re-evaluate the characterisation (balanced, and equal letter counts
before every first occurrence and after every last one) on word slices.
Congruence of rank-n words is decided by twin insertion trees, independent
of the invariant triple behind ``canonical``/``equivalent``.

The literal conditions are not always right: they accept
``y x* x* y* y* y y* ~= y x* y* x* y* y y*`` at rank 2, which x -> 2, y -> 1
refutes.  So a NO verdict that the reference calls YES is settled by the
brute-force oracle (``refuted``) and reported as a dispute, not as a wrong
answer.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations


def ivars(m, tokens):
    return tuple(m.words.IVar(t.rstrip("*"), t.endswith("*")) for t in tokens)


def identity(m, text):
    """Identity of a flat corpus text (no parentheses), built without the
    package's term parser."""
    lhs, rhs = text.split(" ~= ")
    return m.words.Identity(ivars(m, lhs.split()), ivars(m, rhs.split()))


def _rank1_holds(lhs, rhs):
    return Counter(x.base for x in lhs) == Counter(x.base for x in rhs)


def _occ_lr_holds(lhs, rhs):
    if Counter(lhs) != Counter(rhs):
        return False
    for x in set(lhs):
        fu, fv = lhs.index(x), rhs.index(x)
        if Counter(lhs[:fu]) != Counter(rhs[:fv]):
            return False
        lu = len(lhs) - lhs[::-1].index(x)
        lv = len(rhs) - rhs[::-1].index(x)
        if Counter(lhs[lu:]) != Counter(rhs[lv:]):
            return False
    return True


def holds(m, idn, n: int, mode: str = "involution") -> bool:
    """Expected verdict of ``check(idn, n, mode)``."""
    if n == 1:
        return _rank1_holds(idn.lhs, idn.rhs)
    if mode == "involution" and n == 2:
        return m.checker.conditions_baxt2(idn)
    if mode == "involution" and n == 3:
        return m.checker.conditions_baxt3(idn)
    return _occ_lr_holds(idn.lhs, idn.rhs)


def refuted(m, idn, n: int) -> bool:
    """Does the brute-force oracle (words of length <= 2) find a
    counterexample whose images have different twin trees?"""
    res = m.oracle.brute_force_check(idn, n, 2)
    return res.witness is not None and refutes(m, idn, res.witness, n)


def isoterm_partners(m, word, n: int) -> set:
    """Every rearrangement v != word with word ~= v at rank n."""
    return {v for v in set(permutations(word))
            if v != word and holds(m, m.words.Identity(word, v), n)}


def twins_equal(m, a, b) -> bool:
    """Congruence of two rank-n words by their twin insertion trees."""
    ta, tb = m.trees.p_baxt(a), m.trees.p_baxt(b)
    return twin_pairs_equal(m, ta, tb)


def twin_pairs_equal(m, ta, tb) -> bool:
    return (m.trees.tree_equal(ta.left, tb.left)
            and m.trees.tree_equal(ta.right, tb.right))


def refutes(m, idn, witness, n: int) -> bool:
    """Do the witness's images of both sides have different twin trees?"""
    def image(side):
        out = []
        for x in side:
            rep = witness[x.base].representative.symbols
            out.extend(tuple(n + 1 - a for a in reversed(rep)) if x.starred else rep)
        return m.words.AWord(tuple(out), n)

    return not twins_equal(m, image(idn.lhs), image(idn.rhs))

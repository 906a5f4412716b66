"""Published enumerations pin the monoid's routes on the permutations of [n].

The classes of the permutations of [n] in the Baxter monoid correspond to
pairs of twin binary trees, and are counted by the Baxter numbers (F. R. K.
Chung, R. L. Graham, V. E. Hoggatt and M. Kleiman, "The number of Baxter
permutations", J. Combin. Theory Ser. A, 1978; S. Giraudo, "Algebraic and
combinatorial structures on pairs of twin binary trees", J. Algebra, 2012).
In the sylvester monoid they correspond to binary trees, and are counted by
the Catalan numbers (F. Hivert, J.-C. Novelli and J.-Y. Thibon, "The
algebra of binary search trees", Theoret. Comput. Sci., 2005).  A count
shares no code with the library, and each route here partitions every
permutation, not a sample.

The oracle's class tables (`enumerate_classes`) are counted against the
twin-tree pairs of every word of each length.  Two sequences with no
published source are pinned as goldens: the classes of permutations that
the involution fixes, and rank 2's classes of each length.
"""

from collections import Counter
from itertools import permutations, product

import pytest

from baxt import (AWord, canonical, enumerate_classes, p_baxt, p_sylv,
                  p_sylv_sharp, phi2, phi3, phi_n)

BAXTER = (1, 2, 6, 22, 92, 422, 2074)
CATALAN = (1, 2, 5, 14, 42, 132, 429)
# Golden: the classes of the permutations of [n], n = 1..7, that the
# involution fixes.  Counted by this library's twin-tree partition, and
# alike by its `canonical` key and `sharp_word`; no published value is known.
SHARP_FIXED = (1, 2, 2, 6, 8, 26, 38)
# Golden: rank 2's classes of each length 0..12, counted by
# `enumerate_classes`.  They equal (l^3 + 5l + 6)/6 (OEIS A000125) this far,
# which is not proved, so the numbers are pinned rather than the formula.
RANK2_BY_LENGTH = (1, 2, 4, 8, 15, 26, 42, 64, 93, 130, 176, 232, 299)


def _permutations(n):
    return [AWord(p, n) for p in permutations(range(1, n + 1))]


def _partition(words, route):
    """The words grouped by their image under route, as a set of classes."""
    classes = {}
    for w in words:
        classes.setdefault(route(w), set()).add(w.symbols)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("n", range(1, 8))
def test_baxter_classes_of_permutations(n):
    # the invariant key, the twin trees and, where the paper gives one, the
    # tropical image split the permutations alike, into B(n) classes
    words = _permutations(n)
    by_key = _partition(words, lambda w: canonical(w).key)
    assert len(by_key) == BAXTER[n - 1]
    assert _partition(words, p_baxt) == by_key
    if 2 <= n <= 6:
        image = {2: phi2, 3: phi3}.get(n, phi_n)
        assert _partition(words, image) == by_key


@pytest.mark.parametrize("n", range(1, 8))
def test_sylvester_classes_of_permutations(n):
    words = _permutations(n)
    assert len(_partition(words, p_sylv)) == CATALAN[n - 1]
    assert len(_partition(words, p_sylv_sharp)) == CATALAN[n - 1]


def _by_length(n, max_len):
    """The number of classes of enumerate_classes(n, max_len) of each length."""
    counts = Counter(len(e.representative.symbols)
                     for e in enumerate_classes(n, max_len))
    return [counts[length] for length in range(max_len + 1)]


@pytest.mark.parametrize("n, max_len", [(2, 8), (3, 6), (4, 5), (5, 4)])
def test_class_tables_count_the_twin_tree_pairs(n, max_len):
    # the table keeps one class per key; the words of each length have as
    # many distinct twin-tree pairs
    pairs = [len({p_baxt(AWord(w, n)) for w in product(range(1, n + 1), repeat=length)})
             for length in range(max_len + 1)]
    assert _by_length(n, max_len) == pairs


@pytest.mark.parametrize("n", range(1, 8))
def test_sharp_fixed_classes_of_permutations(n):
    # the involution reverses a word and complements its letters (a -> n+1-a);
    # a class is fixed when it holds the image of each of its words
    classes = _partition(_permutations(n), p_baxt)
    fixed = [c for c in classes
             if {tuple(n + 1 - a for a in reversed(p)) for p in c} == c]
    assert len(fixed) == SHARP_FIXED[n - 1]


def test_rank2_classes_of_each_length():
    assert tuple(_by_length(2, 12)) == RANK2_BY_LENGTH

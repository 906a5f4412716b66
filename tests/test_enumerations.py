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
"""

from itertools import permutations

import pytest

from baxt import (AWord, canonical, p_baxt, p_sylv, p_sylv_sharp, phi2, phi3,
                  phi_n)

BAXTER = (1, 2, 6, 22, 92, 422, 2074)
CATALAN = (1, 2, 5, 14, 42, 132, 429)


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

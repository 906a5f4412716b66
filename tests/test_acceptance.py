"""Acceptance suite: one test per numbered criterion.

Each test prints one PASS line (with its runtime) once its assertions hold;
run with `pytest tests/test_acceptance.py -v -s` to see them.  Everything is
exact: no tolerances anywhere.
"""

import math
import random
import time
from itertools import product

import pytest

from baxt.checker import (check, check_baxt2, check_baxt3, conditions_baxt2,
                          conditions_baxt3, is_balanced)
from baxt.families import basis2, basis4, isoterm_search, pk_qk
from baxt.monoid import (equivalent, invariant_key, lpi, rewrite_neighbors,
                         rpi, sharp_word)
from baxt.oracle import (brute_force_check, comm_assignments, comm_check,
                         comm_eval, sample_check)
from baxt.represent import (materialize, phi2, phi3, phi_n, tuple_equal,
                            tuple_sharp)
from baxt.semiring import identity_matrix, mat_mul, skew_transpose
from baxt.trees import p_baxt, p_sylv, p_sylv_sharp
from baxt.words import (AWord, Identity, IVar, flatten, ident, iword, occ,
                        occ_after, occ_before, parse_aword, parse_term,
                        restrict, v)
from definitions import words_upto


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(num, timer, text):
    print(f"PASS criterion {num} ({timer.seconds:.2f}s): {text}")


# ---------------------------------------------------------------------------
# corpus shared by criteria 7, 8 and 11
# ---------------------------------------------------------------------------

def _random_corpus(rng, count):
    names = ["x", "y", "z"]
    out = []
    while len(out) < count:
        nb = rng.randint(1, 3)
        bases = names[:nb]
        length = rng.randint(2, 8)
        u = tuple(IVar(rng.choice(bases), rng.random() < 0.4)
                  for _ in range(length))
        if rng.random() < 0.5:
            w = list(u)
            rng.shuffle(w)
            out.append(Identity(u, tuple(w)))
        else:
            w = tuple(IVar(rng.choice(bases), rng.random() < 0.4)
                      for _ in range(rng.randint(2, 8)))
            out.append(Identity(u, w))
    return out


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(2024)
    named = basis2() + basis4() + [pk_qk(k) for k in range(2, 6)]
    full = named + _random_corpus(rng, 500 - len(named))
    assert len(full) >= 500
    return full


# ---------------------------------------------------------------------------
# 1. worked-example reproduction
# ---------------------------------------------------------------------------

def test_criterion_01_worked_examples():
    with _Timer() as t:
        w = parse_aword("36131512665", 6)
        assert rpi(w) == {(2, 1, 1), (5, 2, 1), (5, 3, 2)}
        assert lpi(w) == {(1, 2, 3), (3, 5, 2), (3, 6, 1)}
        right, left = p_sylv(w), p_sylv_sharp(w)
        assert right.labels[right.root] == 5
        assert left.labels[left.root] == 3

        u = iword("x* z x y* x y z z x")
        from baxt.words import bar, content, final_part, initial_part
        assert content(u) == frozenset(iword("x y z x* y*"))
        assert bar(u) == iword("x z x y x y z z x")
        assert occ(v("x"), u) == 3 and occ(v("x*"), u) == 1
        assert occ(v("y"), u) == 1 and occ(v("y*"), u) == 1
        assert restrict(u, {"x"}) == iword("x* x x x")
        assert restrict(u, {"x", "y"}) == iword("x* x y* x y x")
        assert occ_before(v("y*"), v("x"), u) == 1
        assert occ_after(v("y*"), v("x"), u) == 2
        assert initial_part(u) == iword("x* z y*")
        assert final_part(u) == iword("y z x")

        assert flatten(parse_term("x(x x(y x*)*)* z y*")) \
            == iword("x y x* x* x* z y*")
    assert t.seconds < 1.0
    _report(1, t, "worked examples reproduced exactly")


# ---------------------------------------------------------------------------
# 2. congruence characterization on all 1093 words of A_3^<=6
# ---------------------------------------------------------------------------

def test_criterion_02_partition_coincidence():
    with _Timer() as t:
        words = words_upto(3, 6)
        assert len(words) == 1093
        by_key = {}
        by_tree = {}
        index = {w.symbols: i for i, w in enumerate(words)}
        parent = list(range(len(words)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, w in enumerate(words):
            by_key.setdefault(invariant_key(w), set()).add(w.symbols)
            by_tree.setdefault(p_baxt(w), set()).add(w.symbols)
            for o in rewrite_neighbors(w):
                ri, rj = find(i), find(index[o.symbols])
                parent[ri] = rj

        by_closure = {}
        for i, w in enumerate(words):
            by_closure.setdefault(find(i), set()).add(w.symbols)

        def as_partition(groups):
            return frozenset(frozenset(g) for g in groups.values())

        key_part = as_partition(by_key)
        assert as_partition(by_tree) == key_part
        assert as_partition(by_closure) == key_part
    _report(2, t, f"twin-tree, invariant and rewrite partitions agree "
                  f"({len(by_key)} classes of 1093 words)")


# ---------------------------------------------------------------------------
# 3. presentation soundness on A_4^<=7
# ---------------------------------------------------------------------------

def test_criterion_03_rewriting_sound():
    with _Timer() as t:
        words = words_upto(4, 7)
        info = {w.symbols: (invariant_key(w), p_baxt(w)) for w in words}
        pairs = 0
        for w in words:
            me = info[w.symbols]
            for o in rewrite_neighbors(w):
                assert info[o.symbols] == me
                pairs += 1
    assert t.seconds < 60.0
    _report(3, t, f"{pairs} rewrite steps over {len(words)} words all "
                  f"preserve invariants and trees")


# ---------------------------------------------------------------------------
# 4. involution compatibility and uniqueness
# ---------------------------------------------------------------------------

def test_criterion_04_involution():
    with _Timer() as t:
        rng = random.Random(11)
        pairs = 0
        while pairs < 10_000:
            n = rng.choice((2, 3, 4))
            w = AWord(tuple(rng.randint(1, n)
                            for _ in range(rng.randint(4, 10))), n)
            for o in rewrite_neighbors(w):
                assert equivalent(sharp_word(w), sharp_word(o))
                pairs += 1

        # rank 2 has two involutive letter permutations; only the
        # order-reversing one makes reverse-and-permute a congruence map
        words2 = words_upto(2, 5)
        by_key = {}
        for w in words2:
            by_key.setdefault(invariant_key(w), []).append(w)

        def compatible(perm):
            for group in by_key.values():
                base = group[0]
                mapped0 = AWord(tuple(perm[a] for a in reversed(base.symbols)), 2)
                for other in group[1:]:
                    mapped = AWord(tuple(perm[a] for a in reversed(other.symbols)), 2)
                    if not equivalent(mapped0, mapped):
                        return False
            return True

        assert compatible({1: 2, 2: 1})
        assert not compatible({1: 1, 2: 2})
    assert t.seconds < 10.0
    _report(4, t, f"sharp preserved {pairs} rewrite pairs; the rank-2 "
                  f"involution is unique at length <= 5")


# ---------------------------------------------------------------------------
# 5. representation faithfulness
# ---------------------------------------------------------------------------

def _images_by_word(n, max_len, gens, dim):
    """phi images for all words of A_n^<=max_len, computed incrementally."""
    images = {(): identity_matrix(dim)}
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for syms in frontier:
            base = images[syms]
            for a in range(1, n + 1):
                ext = syms + (a,)
                images[ext] = mat_mul(base, gens[a])
                nxt.append(ext)
        frontier = nxt
    return images


def test_criterion_05_representations():
    from baxt.represent import generator_images
    with _Timer() as t:
        for n, max_len, phi, dim in ((2, 8, phi2, 6), (3, 6, phi3, 15)):
            images = _images_by_word(n, max_len, generator_images(n), dim)
            by_key = {}
            for syms, mat in images.items():
                w = AWord(syms, n)
                key = invariant_key(w)
                # well-defined on classes
                assert by_key.setdefault(key, mat) == mat
                # involution compatibility
                sh = sharp_word(w).symbols
                assert images[sh] == skew_transpose(mat)
                # the image read off the invariants is the generator product
                assert phi(w) == mat
            # injectivity across classes
            assert len(set(by_key.values())) == len(by_key)
            # sampled homomorphism check
            rng = random.Random(n)
            syms_list = list(images)
            for _ in range(300):
                a, b = rng.choice(syms_list), rng.choice(syms_list)
                if len(a) + len(b) <= max_len:
                    assert images[a + b] == mat_mul(images[a], images[b])

        # rank-4 tuples against equivalence, exhaustively
        words4 = words_upto(4, 4)
        sig = {}
        key_of_sig = {}
        for w in words4:
            s = tuple(p for _, p in phi_n(w).coords)
            k = invariant_key(w)
            assert sig.setdefault(k, s) == s
            assert key_of_sig.setdefault(s, k) == k

        # rank-5 tuples on random pairs
        rng = random.Random(55)
        agree = 0
        for _ in range(10_000):
            u = AWord(tuple(rng.randint(1, 5)
                            for _ in range(rng.randint(0, 5))), 5)
            w = AWord(tuple(rng.randint(1, 5)
                            for _ in range(rng.randint(0, 5))), 5)
            assert tuple_equal(phi_n(u), phi_n(w)) == equivalent(u, w)
            agree += 1

        # materialization respects the skew transposition
        for _ in range(100):
            w = AWord(tuple(rng.randint(1, 4)
                            for _ in range(rng.randint(0, 6))), 4)
            tup = phi_n(w)
            assert materialize(tuple_sharp(tup)) \
                == skew_transpose(materialize(tup))
    assert t.seconds < 120.0
    _report(5, t, "phi2/phi3 faithful and sharp-compatible, and equal to the "
                  "generator products; tuples decide equivalence; materialize "
                  "respects ^D")


# ---------------------------------------------------------------------------
# 6. checker correctness matrix
# ---------------------------------------------------------------------------

def test_criterion_06_checker_matrix():
    with _Timer() as t:
        for idn in basis2():
            assert check(idn, 2).verdict
        for idn in basis4():
            for n in (2, 3, 4):
                assert check(idn, n).verdict
        for k in range(2, 6):
            idn = pk_qk(k)
            assert check(idn, 3).verdict
            assert not check(idn, 4).verdict
            assert not check(idn, 5).verdict
        for n in (2, 3, 4):
            assert isoterm_search(iword("x x* y y*"), n) == []
            assert isoterm_search(iword("x y y* x*"), n) == []
        for n in (2, 3, 4, 5, 7):
            assert not check(ident("x y", "y x"), n).verdict
            assert not check(ident("x x*", "x* x"), n).verdict
    assert t.seconds < 30.0
    _report(6, t, "bases, p_k/q_k matrix, isoterms and refutations all exact")


# ---------------------------------------------------------------------------
# 7. checker-oracle agreement
# ---------------------------------------------------------------------------

def _oracle_probe(idn, n, nbases, seed):
    if nbases <= 2:
        return brute_force_check(idn, n, 3)
    if nbases == 3:
        return brute_force_check(idn, n, 2)
    return sample_check(idn, n, 1, 400, seed)


def test_criterion_07_oracle_agreement(corpus):
    with _Timer() as t:
        refuted = confirmed = 0
        for i, idn in enumerate(corpus):
            nbases = len({x.base for x in idn.lhs + idn.rhs})
            for n in (2, 3, 4):
                verdict = check(idn, n).verdict
                res = _oracle_probe(idn, n, nbases, seed=i)
                if res.refuted:
                    # a witness always means the checker said NO
                    assert not verdict, (idn, n)
                    refuted += 1
                else:
                    confirmed += 1
                if not verdict and nbases <= 2:
                    # small refutations must be found within the bound
                    assert res.refuted, (idn, n)
    assert t.seconds < 180.0
    _report(7, t, f"{len(corpus)} identities x 3 ranks: "
                  f"{refuted} refuted / {confirmed} unrefuted, all consistent")


# ---------------------------------------------------------------------------
# 8. dual-evaluator agreement
# ---------------------------------------------------------------------------

def test_criterion_08_dual_evaluators(corpus):
    with _Timer() as t:
        for idn in corpus:
            assert conditions_baxt2(idn) == check_baxt2(idn).verdict
            assert conditions_baxt3(idn) == check_baxt3(idn).verdict
    assert t.seconds < 30.0
    _report(8, t, f"pattern conditions and the segment procedure agree on "
                  f"{len(corpus)} identities at ranks 2 and 3")


# ---------------------------------------------------------------------------
# 9. balancedness oracle
# ---------------------------------------------------------------------------

def test_criterion_09_commutative_monoid():
    with _Timer() as t:
        letters = [v("x"), v("x*"), v("y"), v("y*")]
        words = [tuple(p) for L in range(5)
                 for p in product(letters, repeat=L)]
        grid = list(comm_assignments(["x", "y"]))
        sigs = {w: tuple(comm_eval(w, a) for a in grid) for w in words}
        multiset = {w: tuple(sorted(w)) for w in words}
        # signature equality must coincide with balancedness pairwise
        rep_by_ms = {}
        rep_by_sig = {}
        for w in words:
            assert rep_by_ms.setdefault(multiset[w], sigs[w]) == sigs[w]
            assert rep_by_sig.setdefault(sigs[w], multiset[w]) == multiset[w]

        rng = random.Random(99)
        for _ in range(10_000):
            mk = lambda: tuple(IVar(rng.choice("xy"), rng.random() < 0.5)
                               for _ in range(rng.randint(0, 8)))
            idn = Identity(mk(), mk())
            assert comm_check(idn) == is_balanced(idn)
    assert t.seconds < 10.0
    _report(9, t, "commutative-monoid evaluation equals balancedness on the "
                  "exhaustive grid and 10^4 random identities")


# ---------------------------------------------------------------------------
# 10. polynomial-time behavior
# ---------------------------------------------------------------------------

def _timed_check(idn, n):
    t0 = time.perf_counter()
    check(idn, n)
    return time.perf_counter() - t0


def test_criterion_10_polynomial_time():
    with _Timer() as t:
        rng = random.Random(77)

        def balanced_identity(nletters, starred=True):
            u = tuple(IVar(f"v{rng.randrange(50)}",
                           starred and rng.random() < 0.4)
                      for _ in range(nletters))
            w = list(u)
            rng.shuffle(w)
            return Identity(u, tuple(w)), Identity(u, u)

        shuffled, same = balanced_identity(10_000)
        for n in (1, 2, 3, 4, 10):
            assert _timed_check(shuffled, n) < 1.0
            assert _timed_check(same, n) < 1.0
        plain_side = tuple(x.bare() for x in same.lhs)
        plain_idn = Identity(plain_side, plain_side)
        t0 = time.perf_counter()
        check(plain_idn, 4, mode="plain")
        assert time.perf_counter() - t0 < 1.0

        # scaling: worst case (identical sides, every check runs) at rank 3
        times = []
        for size in (1_000, 10_000, 100_000):
            _, idn = balanced_identity(size)
            times.append(min(_timed_check(idn, 3) for _ in range(3)))
        exponent = math.log(times[2] / times[0]) / math.log(100)
        assert exponent < 1.8, (times, exponent)
    _report(10, t, f"10^4-letter checks under 1s at every rank; growth "
                   f"exponent {exponent:.2f} over 10^3..10^5")


# ---------------------------------------------------------------------------
# 11. closure properties
# ---------------------------------------------------------------------------

def _base_subsets(bases):
    names = sorted(bases)
    out = []
    for mask in range(1, 1 << len(names)):
        out.append({b for i, b in enumerate(names) if mask >> i & 1})
    return out


def test_criterion_11_closures(corpus):
    with _Timer() as t:
        yes = 0
        for idn in corpus:
            for n in (2, 3, 4):
                verdict = check(idn, n).verdict
                assert check(idn.reversed(), n).verdict == verdict
                assert check(idn.starred(), n).verdict == verdict
                if verdict:
                    yes += 1
                    for keep in _base_subsets({x.base for x in idn.lhs}):
                        sub = Identity(restrict(idn.lhs, keep),
                                       restrict(idn.rhs, keep))
                        assert check(sub, n).verdict
    assert t.seconds < 30.0
    _report(11, t, f"verdicts stable under reversal and star; {yes} YES "
                   f"verdicts persist under every base restriction")

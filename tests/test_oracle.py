import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_routes as ref
from baxt import oracle
from baxt.checker import is_balanced
from baxt.families import basis2, basis4, pk_qk
from baxt.monoid import RankMismatchError, canonical
from baxt.oracle import (BudgetExceededError, UnassignedVariableError,
                         brute_force_check, comm_assignments, comm_check,
                         comm_eval, enumerate_classes, eval_substitution,
                         sample_check, witness_to_json_obj)
from baxt.words import (Identity, IVar, common_ends, ident, iword, letter_ids,
                        parse_aword, parse_identity)

ivars = st.builds(IVar, st.sampled_from("xy"), st.booleans())
iwords = st.lists(ivars, min_size=1, max_size=8).map(tuple)
identities = st.one_of(
    st.builds(Identity, iwords, iwords),
    st.builds(lambda u: Identity(tuple(u), tuple(sorted(u))), iwords),
)


def cls(text, n):
    return canonical(parse_aword(text, n))


def test_enumerate_classes_order():
    classes = enumerate_classes(2, 2)
    reps = [str(e.representative) for e in classes]
    assert reps == ["", "1", "2", "11", "12", "21", "22"]
    # at length 3 every word over two letters is still its own class
    assert len(enumerate_classes(2, 3)) == 15


def test_enumerate_classes_refuses_a_negative_bound():
    # no words at all is not a table of classes
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        enumerate_classes(2, -1)
    assert len(enumerate_classes(2, 0)) == 1


def test_eval_substitution():
    assert not eval_substitution(ident("x y", "y x"),
                                 {"x": cls("1", 2), "y": cls("2", 2)})
    assert eval_substitution(ident("x y", "y x"),
                             {"x": cls("", 2), "y": cls("2", 2)})
    # x -> [1] makes x* -> [2]: the sides become [12] and [21]
    assert not eval_substitution(ident("x x*", "x* x"), {"x": cls("1", 2)})
    with pytest.raises(UnassignedVariableError):
        eval_substitution(ident("x y", "y x"), {"x": cls("1", 2)})
    # an empty assignment leaves every variable unassigned
    for idn in (ident("x y", "y x"), ident("x", "x")):
        with pytest.raises(UnassignedVariableError):
            eval_substitution(idn, {})
    assert eval_substitution(Identity((), ()), {})
    # images of different ranks, in either base order
    three, twelve = cls("3", 3), cls("12", 2)
    for sub in ({"x": three, "y": twelve}, {"x": twelve, "y": three}):
        with pytest.raises(RankMismatchError):
            eval_substitution(ident("x y", "y x"), sub)


def test_brute_force_first_witness():
    res = brute_force_check(ident("x y", "y x"), 2, 1)
    assert res.refuted
    assert {b: str(e.representative) for b, e in res.witness.items()} \
        == {"x": "1", "y": "2"}
    assert res.evaluations == 6  # (eps,eps), (eps,1), (eps,2), (1,eps), (1,1), (1,2)


def test_brute_force_trivial_identity():
    u = iword("x y* x")
    res = brute_force_check(Identity(u, u), 3, 2)
    assert not res.refuted and res.exhaustive


def test_brute_force_basis4_instance():
    idn = basis4()[0]
    # six variables: the rank-4 length-2 grid overruns the default budget,
    # which must be reported loudly rather than truncated
    with pytest.raises(BudgetExceededError):
        brute_force_check(idn, 4, 2)
    res = brute_force_check(idn, 4, 1)
    assert not res.refuted and res.evaluations == 5 ** 6
    assert not sample_check(idn, 4, 2, 3000, seed=0).refuted


def test_over_budget_grid_is_refused_before_the_enumeration(monkeypatch):
    # comb(63, 3) ** 2 classes at least, far over the budget
    def no_enumeration(n, max_len):
        raise AssertionError("an over-budget grid was enumerated")
    monkeypatch.setattr(oracle, "enumerate_classes", no_enumeration)
    with pytest.raises(BudgetExceededError, match="at least 1576963521 "):
        brute_force_check(ident("x y", "y x"), 60, 3)


def _no_enumeration(n, max_len):
    raise AssertionError("an over-budget class table was enumerated")


@pytest.mark.parametrize("n, max_len, message", [
    # one base: the grid's lower bound comb(203, 3) is within the budget,
    # the 8,040,201 words of length <= 3 times 200 entries are not
    (200, 3, "at least 1608040200 class table entries (words of length <= 3 "
             "with 200-entry evaluation vectors) exceed the budget"),
    (10 ** 20, 0, "at least 100000000000000000000 class table entries "),
    (1, 10 ** 12, "at least 1000000000001 class table entries "),
    # counted up to length 22, the first past the budget
    (2, 10 ** 9, "at least 16777214 class table entries "),
])
def test_over_budget_class_table_is_refused_before_the_enumeration(
        monkeypatch, n, max_len, message):
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    with pytest.raises(BudgetExceededError) as exc:
        sample_check(ident("x", "x"), n, max_len, 1)
    assert str(exc.value).startswith(message)
    if max_len < 10 ** 9:  # past that the grid's lower bound refuses first
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_check(ident("x", "x"), n, max_len)
        assert str(exc.value).startswith(message)


def test_huge_bounds_are_refused_at_once(monkeypatch):
    # the grid's lower bound is built up only until it passes the budget
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    with pytest.raises(BudgetExceededError,
                       match="^at least 100000000001000000000 evaluations "):
        brute_force_check(ident("x", "x"), 10 ** 20, 10 ** 9)
    # 39711 classes at least per base: two bases are over the budget, and
    # the 1500 bases' bound of 6,900 digits is never printed
    side = " ".join(f"v{i}" for i in range(1500))
    with pytest.raises(BudgetExceededError,
                       match="^at least 1576963521 evaluations "):
        brute_force_check(ident(side, side), 60, 3)


def test_over_budget_samples_are_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    with pytest.raises(BudgetExceededError,
                       match="^100000000000 samples exceed the budget of 10000000$"):
        sample_check(ident("x", "x"), 2, 3, 10 ** 11)


def test_budget_errors_are_value_errors():
    assert issubclass(BudgetExceededError, ValueError)
    oracle.check_budget(oracle.DEFAULT_BUDGET, "things")
    with pytest.raises(BudgetExceededError,
                       match="^10000001 things exceed the budget of 10000000$"):
        oracle.check_budget(oracle.DEFAULT_BUDGET + 1, "10000001 things")


def test_small_grids_keep_their_class_table():
    # rank 4 up to length 3: 85 words, far within the budget
    assert len(oracle._class_table(4, 3)) == len(enumerate_classes(4, 3))
    assert not sample_check(ident("x y", "x y"), 4, 3, 5).refuted


def test_brute_force_parallel_matches_serial(monkeypatch):
    # three CPUs, so that three jobs make three chunks on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cases = [
        (ident("x y x*", "x* y x"), 2, 2),   # witness in the first chunk
        (ident("x y", "y x"), 2, 1),         # witness in a later chunk
        (ident("x y* x", "x y* x"), 2, 2),   # no witness: every chunk is scanned
        # four classes in chunks of 1, 1 and 2 at three jobs: the witness
        # y -> 3 lies in the last chunk, at evaluation 4
        (ident("y* y y* y", "y* y* y y"), 3, 1),
    ]
    for idn, n, max_len in cases:
        witness, count = ref.oracle_scan(idn, n, max_len)
        serial = brute_force_check(idn, n, max_len)
        for jobs in (1, 2, 3):
            res = brute_force_check(idn, n, max_len, jobs=jobs)
            assert res == serial, (idn, jobs)
            assert (_reps(res.witness), res.evaluations) == (_reps(witness), count), \
                (idn, jobs)
    # the last case
    assert serial.evaluations == 4 and _reps(serial.witness) == {"y": "3"}


def test_pool_holds_at_most_one_process_per_cpu_and_class(monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # no process starts
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    idn = ident("x y", "y x")
    serial = brute_force_check(idn, 2, 1)
    classes = len(enumerate_classes(2, 1))
    assert brute_force_check(idn, 2, 1, jobs=10**6) == serial
    assert all(size <= min(classes, os.cpu_count()) for size in sizes)
    # with more CPUs than classes, the classes bound the pool; with fewer,
    # the CPUs do
    for cpus, size in ((64, classes), (2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert brute_force_check(idn, 2, 1, jobs=10**6) == serial
        assert sizes[-1] == size


def test_invalid_bounds_are_rejected():
    # an exhaustive "no counterexample" over no grid would say that an
    # unbalanced identity holds
    idn = ident("x", "x x")
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        brute_force_check(idn, 2, max_len=-1)
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        brute_force_check(idn, 2, 1, jobs=0)
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        sample_check(idn, 2, -1, 10)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        sample_check(idn, 2, 1, 0)
    # the smallest valid bounds still refute it
    assert brute_force_check(idn, 2, max_len=0).evaluations == 1
    assert brute_force_check(idn, 2, max_len=1).refuted
    assert sample_check(idn, 2, 1, 1).evaluations == 1


def test_importing_the_package_loads_no_process_pool():
    # the pool machinery is imported only by a run with jobs > 1: loading it
    # with the package would add to the memory of every other run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, baxt, baxt.cli; "
            "print(sorted(m for m in sys.modules if m == 'multiprocessing' "
            "or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out == "[]\n"


def test_sample_check_deterministic():
    idn = ident("x y", "y x")
    a = sample_check(idn, 2, 2, 50, seed=3)
    b = sample_check(idn, 2, 2, 50, seed=3)
    assert a == b


@pytest.mark.parametrize("text, n, max_len, samples, seed, witness, evaluations", [
    # refuted on the first draw
    ("x y ~= y x", 2, 2, 50, 3, {"x": "1", "y": "12"}, 1),
    # refuted on a late draw: the first rank-2 basis row fails at rank 3
    ("x* h x k x y s x* t x ~= x* h x k y x s x* t x", 3, 1, 2000, 38,
     {"h": "1", "k": "", "s": "", "t": "", "x": "2", "y": "1"}, 41),
    ("x y z ~= y x z", 2, 1, 500, 7, {"x": "1", "y": "2", "z": "1"}, 27),
    # a rank-4 basis row holds: every draw is evaluated
    ("x h y k x y s x t y ~= x h y k y x s x t y", 4, 2, 60, 1, None, 60),
])
def test_sample_check_draws_are_pinned(text, n, max_len, samples, seed, witness,
                                       evaluations):
    # the draw order for a seed is fixed: these witnesses and counts hold
    # across runs and processes
    res = sample_check(parse_identity(text), n, max_len, samples, seed)
    found = None if res.witness is None else {
        b: str(e.representative) for b, e in res.witness.items()}
    assert (found, res.evaluations) == (witness, evaluations)


def _reps(witness):
    return None if witness is None else {
        b: str(e.representative) for b, e in witness.items()}


def _near_miss(idn, i):
    """idn with the first two different adjacent letters of its right side
    from position i on (cyclically) swapped."""
    rhs = list(idn.rhs)
    for j in [*range(i, len(rhs) - 1), *range(i)]:
        if rhs[j] != rhs[j + 1]:
            rhs[j], rhs[j + 1] = rhs[j + 1], rhs[j]
            return Identity(idn.lhs, tuple(rhs))
    raise AssertionError(f"no swap in {idn}")


def _differential_cases():
    """Every basis2, basis4 and pk_qk(2) row and one near miss of each, with
    ranks 2-4 and max_len 1-2 in turn; x y ~= y x and x x* ~= x* x at every
    rank and max_len; the _OVERLAPS at rank 3, max_len 2; the _MIDDLES at
    rank 2, max_len 2 and at ranks 3 and 4, max_len 1; and the _COVERS and
    _NO_COVER at rank 2, max_len 3 and at rank 3, max_len 2.  The full
    scan runs where the grid has at most 16,000 assignments, the sampler
    everywhere."""
    bounds = [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (4, 2)]
    cases = []
    for i, row in enumerate(basis2() + basis4() + [pk_qk(2)]):
        n, max_len = bounds[i % len(bounds)]
        cases.append((row, n, max_len))
        cases.append((_near_miss(row, i % (len(row.rhs) - 1)), n, max_len))
    for text in ("x y ~= y x", "x x* ~= x* x"):
        cases += [(parse_identity(text), n, m) for n, m in bounds]
    cases += [(parse_identity(text), 3, 2) for text in _OVERLAPS]
    cases += [(parse_identity(text), n, m) for text in _MIDDLES
              for n, m in ((2, 2), (3, 1), (4, 1))]
    return cases + [(parse_identity(text), n, m) for text in _COVERS + _NO_COVER
                    for n, m in ((2, 3), (3, 2))]


#: sides whose common prefix and suffix overlap in the shorter side
_OVERLAPS = ("x y x ~= x", "x x ~= x", "x y ~= x y y", "y* x y* ~= y*",
             "x y x ~= x y* x", "x y ~= x y")

#: balanced sides whose common prefix or suffix holds only some of the
#: middle's bases, or none of them; the first four hold at rank 2 alone
_COVERS = ("x x* x y x* y* ~= x x* y x x* y*", "y* x* x y y* y ~= y* x* y x y* y",
           "x x* x y y* y y ~= x x* y x y* y y", "y x h x y x* x ~= y x h y x x* x",
           "x h x y h* y ~= x h y x h* y", "h x y h* ~= h y x h*")

#: middles that differ in one to three pairs of letters, all of bases
#: that sort before the last base; in the last, the pair's bases c and i
#: sort first and third, so a block that assigns c but not i has masks
#: that do not decide the equal-middles filter
_MIDDLES = ("z a a* z ~= z a* a z", "z x y x* z ~= z y x* x z",
            "y a z b a* y ~= y b z a* a y", "z a b c a z ~= z b a a c z",
            "j* i* i j c g* c* i i* i ~= j* i* i j i g* c* c i* i")

#: sides with no common prefix, and unbalanced sides with a common prefix
#: and suffix: the content cover rule never runs on them
_NO_COVER = ("x y h x ~= y x h x", "x y h x ~= x y y h x", "x h y x ~= x h x x")


def _cover(u, v, n, max_len):
    """The content cover rule of the sides u and v, letter ids, over the
    class table of (n, max_len)."""
    return oracle._cover(u, v, common_ends(u, v),
                         oracle._table_images(n, max_len)[1], n)


def _middles(u, v, n, max_len):
    """The middles' image function of the sides u and v, letter ids, over
    the class table of (n, max_len)."""
    return oracle._middle_images(u, v, common_ends(u, v),
                                 oracle._table_images(n, max_len)[0])


def _differ(middles, idxs):
    x, y = middles(idxs)
    return x != y


def test_the_cover_rule_settles_only_congruent_assignments():
    # the scan passes over whole blocks of the grid that the content cover
    # rule settles, statically settled grids included: every assignment in
    # them has image words with equal keys, the blocks leave exactly the
    # assignments that the rule leaves one assignment at a time and whose
    # middles' images differ, each with those images, and the rule settles
    # some assignments and declines others
    settled = declined = static = 0
    for idn, n, max_len in _differential_cases():
        classes = enumerate_classes(n, max_len)
        m = len(classes)
        bases, u, v = letter_ids(idn)
        if m ** len(bases) > 16000:
            continue
        words = oracle._table_images(n, max_len)[0]
        images, cover = oracle._side_images(u, v, words), _cover(u, v, n, max_len)
        if cover is None:
            continue
        assert is_balanced(idn) and idn.lhs[0] == idn.rhs[0] \
            and idn.lhs[-1] == idn.rhs[-1], idn
        static += cover[3] < 0
        middles = _middles(u, v, n, max_len)
        # no equal-middles filter: only the content cover rule and the
        # record of dead blocks pass over blocks
        same = (oracle._middle_pairs(u, v, common_ends(u, v), words)[0], -1, ())
        found = list(oracle._blocks(cover, m, range(m), same, middles))
        grid = list(product(range(m), repeat=len(bases)))
        left = [a for a in grid if not oracle._settles(cover, a)]
        assert [a for a, _, _ in found] \
            == [a for a in left if _differ(middles, a)], idn
        assert all((x, y) == middles(a) for a, x, y in found), idn
        for sub in set(grid) - set(left):
            lhs, rhs = images(sub)
            assert oracle.key_of(lhs, n) == oracle.key_of(rhs, n), (idn, sub)
        settled += len(grid) - len(left)
        declined += len(left)
        # the chunks of a parallel scan, in order, leave the same assignments
        halves = [a for r in (range(m // 2), range(m // 2, m))
                  for a in oracle._blocks(cover, m, r, same, middles)]
        assert halves == found, idn
    assert settled and declined and static
    for text in _NO_COVER:
        _, u, v = letter_ids(parse_identity(text))
        assert _cover(u, v, 3, 2) is None


def _equal_middles(x, y, words, nbases, idxs):
    """Does the equal-middles rule, read one assignment at a time, pass
    over idxs?  x and y are the middles, letter ids of one length: the
    letters at the positions where they differ have bases below the last,
    and each has the same class word there as its partner."""
    differ = [(a, b) for a, b in zip(x, y) if a != b]
    return max(max(a, b) >> 1 for a, b in differ) < nbases - 1 and all(
        words[a & 1][idxs[a >> 1]] == words[b & 1][idxs[b >> 1]]
        for a, b in differ)


def test_the_equal_middles_rule_passes_over_only_equal_middles():
    # of the assignments the content cover rule leaves, the scan passes
    # over whole blocks whose middles have equal images letter by letter:
    # each such assignment has equal middle images.  The scan, with the
    # rule and the record of dead blocks, yields exactly the assignments
    # that the cover rule leaves and whose middles' images differ, in
    # row-major order, whole and in the two chunks of a parallel scan, and
    # so does the scan without the rule
    passed = kept = grids = 0
    for idn, n, max_len in _differential_cases() + _spliced_corpus():
        m = len(enumerate_classes(n, max_len))
        bases, u, v = letter_ids(idn)
        cover = _cover(u, v, n, max_len)
        if m ** len(bases) > 16000 or cover is None:
            continue
        words = oracle._table_images(n, max_len)[0]
        p, s = ends = common_ends(u, v)
        x, y = u[p:len(u) - s], v[p:len(v) - s]
        middles = oracle._side_images(x, y, words)
        left = [a for a in product(range(m), repeat=len(bases))
                if not oracle._settles(cover, a)]
        rule = [_equal_middles(x, y, words, len(bases), a) for a in left]
        for a, over in zip(left, rule):
            if over:
                images = middles(a)
                assert images[0] == images[1], (idn, n, max_len, a)
        same = oracle._middle_pairs(u, v, ends, words)
        scan = [a for a, _, _ in oracle._blocks(cover, m, range(m), same, middles)]
        assert scan == [a for a in left if _differ(middles, a)], idn
        halves = [a for r in (range(m // 2), range(m // 2, m))
                  for a, _, _ in oracle._blocks(cover, m, r, same, middles)]
        assert halves == scan, idn
        plain = oracle._blocks(cover, m, range(m), (same[0], -1, ()), middles)
        assert [a for a, _, _ in plain] == scan, idn
        passed += sum(rule)
        kept += len(scan)
        grids += 0 < sum(rule) < len(left)
    # the rule passes over some assignments and leaves others, some of
    # them in one grid
    assert passed and kept and grids


def _record_images(monkeypatch):
    """Patch `oracle._side_images` so that its image functions record the
    assignment of every image they build; the list of those records."""
    built = []
    side_images = oracle._side_images

    def counting_images(u, v, words):
        images = side_images(u, v, words)
        return lambda idxs: built.append(idxs) or images(idxs)
    monkeypatch.setattr(oracle, "_side_images", counting_images)
    return built


@pytest.mark.parametrize("k, n, max_len", [
    # the content cover rule leaves 260, 2,660 and 25,220 assignments, and
    # 13,920, 160 and 1,456: each built its middles' images before the
    # equal-middles rule passed over them in blocks
    (2, 3, 1), (3, 3, 1), (4, 3, 1), (2, 3, 2), (2, 2, 2), (3, 2, 2),
])
def test_pk_qk_scans_build_no_image(monkeypatch, k, n, max_len):
    # the middles of p_k and q_k differ only where x and x* swap: every
    # class whose word is its own involution is passed over at the first
    # base, and the content cover rule settles the rest
    m = len(enumerate_classes(n, max_len))
    built = _record_images(monkeypatch)
    res = brute_force_check(pk_qk(k), n, max_len)
    assert built == []
    assert (res.witness, res.evaluations) == (None, m ** (2 * k + 1))


@pytest.mark.parametrize("max_len, images", [(1, 1504), (2, 4592)])
def test_basis2_scans_build_few_middle_images(monkeypatch, max_len, images):
    # the swapped bases x and y of a rank-2 basis row sort last, so the
    # equal-middles filter is left out; the record of dead blocks passes
    # over the blocks of the four bases before them that repeat the masks
    # of a block which held nothing to test.  Without it the 44 rows build
    # 6,880 and 290,768 middle images, every pair of them equal; no key
    # is computed, so no image but the middles' is built
    m = len(enumerate_classes(2, max_len))
    built = _record_images(monkeypatch)
    keys = []
    real = oracle.key_of
    monkeypatch.setattr(oracle, "key_of", lambda w, n: keys.append(w) or real(w, n))
    for row in basis2():
        res = brute_force_check(row, 2, max_len)
        assert (res.witness, res.evaluations) == (None, m ** 6), row
    assert (len(built), keys) == (images, [])


def test_a_deep_block_scan_needs_no_recursion():
    # 1,500 bases with the middle's bases sorting last: no block settles
    # before the last base, and one class (max_len 0) is one assignment
    pad = " ".join(f"v{i:04}" for i in range(1498))
    idn = parse_identity(f"{pad} x x* x y x* y* ~= {pad} x x* y x x* y*")
    _, u, v = letter_ids(idn)
    assert _cover(u, v, 2, 0)[3] == 1499
    res = brute_force_check(idn, 2, 0)
    assert (res.witness, res.evaluations, res.exhaustive) == (None, 1, True)


def test_common_ends_of_overlapping_sides_match_the_index_loops():
    # the common prefix and suffix may meet in the shorter side; as letter
    # ids and as letters, both readings find the same ends
    for text in _OVERLAPS + _COVERS + _NO_COVER:
        idn = parse_identity(text)
        _, u, v = letter_ids(idn)
        ends = ref.common_ends_loops(u, v)
        assert common_ends(u, v) == common_ends(idn.lhs, idn.rhs) == ends, text
        assert sum(ends) <= min(len(u), len(v))


def test_oracle_matches_the_reference_evaluation_loop():
    # the reference compares both sides' keys on every assignment; the
    # oracle settles most assignments by the content cover rule, and skips
    # the keys where the two image words are equal
    refuted = scanned = 0
    for seed, (idn, n, max_len) in enumerate(_differential_cases()):
        grid = len(enumerate_classes(n, max_len)) ** len(oracle.identity_bases(idn))
        if grid <= 16000:
            witness, count = ref.oracle_scan(idn, n, max_len)
            for jobs in (1, 2):
                res = brute_force_check(idn, n, max_len, jobs=jobs)
                assert (_reps(res.witness), res.evaluations, res.exhaustive) \
                    == (_reps(witness), count, True), (idn, n, max_len)
            refuted += witness is not None
            scanned += 1
        witness, count = ref.oracle_sample(idn, n, max_len, 200, seed)
        res = sample_check(idn, n, max_len, 200, seed)
        assert (_reps(res.witness), res.evaluations, res.exhaustive) \
            == (_reps(witness), count, False), (idn, n, max_len, seed)
    # both outcomes of a scan are covered
    assert 0 < refuted < scanned


def _spliced_corpus(count=120, seed=22):
    """Random identities P X S ~= P Y S over 1-4 bases, at the (n, max_len)
    below in turn with at most 4,000 assignments.  P holds every letter of
    X among random letters; S holds random letters only, or every letter
    of X too, or every letter of X but one letter id.  Y is a rearrangement
    of X, random letters, or X with one letter dropped or doubled."""
    rng = random.Random(seed)
    bounds = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]
    cases = []
    for i in range(count):
        n, max_len = bounds[i % len(bounds)]
        nbases = rng.randint(1, 4)
        while len(enumerate_classes(n, max_len)) ** nbases > 4000:
            nbases -= 1
        letters = [IVar(b, s) for b in rng.sample("hkstxyz", nbases)
                   for s in (False, True)]
        x = rng.choices(letters, k=rng.randint(2, 5))
        kind = i % 5
        if kind < 3:
            for _ in range(10):  # a different order, where one is found
                y = rng.sample(x, len(x))
                if y != x:
                    break
        elif kind == 3:
            y = rng.choices(letters, k=rng.randint(1, 4))
        else:
            j = rng.randrange(len(x))
            y = x[:j] + x[j + 1:] if rng.random() < 0.5 else x[:j + 1] + x[j:]
        ends = []
        for held in (x, x if kind == 1 else x[1:] if kind == 2 else []):
            end = rng.choices(letters, k=rng.randint(1, 3)) + list(held)
            ends.append(rng.sample(end, len(end)))
        p, s = ends
        if kind == 2:  # all of X in P, all but one letter id of it in S
            s = [a for a in s if a != x[0]] or [x[0].star()]
        cases.append((Identity(tuple(p + x + s), tuple(p + y + s)), n, max_len))
    return cases


def test_block_scan_matches_the_reference_on_random_splices():
    kinds = set()
    for seed, (idn, n, max_len) in enumerate(_spliced_corpus()):
        witness, count = ref.oracle_scan(idn, n, max_len)
        for jobs in (1, 2):
            res = brute_force_check(idn, n, max_len, jobs=jobs)
            assert (_reps(res.witness), res.evaluations, res.exhaustive) \
                == (_reps(witness), count, True), (idn, n, max_len, jobs)
        witness, count = ref.oracle_sample(idn, n, max_len, 100, seed)
        res = sample_check(idn, n, max_len, 100, seed)
        assert (_reps(res.witness), res.evaluations, res.exhaustive) \
            == (_reps(witness), count, False), (idn, n, max_len, seed)
        _, u, v = letter_ids(idn)
        cover = _cover(u, v, n, max_len)
        kinds.add(("none" if cover is None else "static" if cover[3] < 0
                   else "blocks", witness is None))
    # the statically covered grids hold; the rule is missing or fires on
    # grids that hold and on grids that are refuted
    assert kinds == {("static", True), ("blocks", True), ("blocks", False),
                     ("none", True), ("none", False)}


def test_block_scan_matches_the_reference_scan_on_random_identities():
    # 3,000 seeded random splices over 1-4 bases, each grid at most 4,000
    # assignments: the scan, with its blocks, both rules and its record of
    # dead blocks, finds the witness and count of a walk over the whole
    # grid that puts each assignment to the same refutation test
    cases = _spliced_corpus(3000, seed=37)
    kinds = set()
    for idn, n, max_len in cases:
        witness, count = ref.reference_scan(idn, n, max_len)
        res = brute_force_check(idn, n, max_len)
        assert (_reps(res.witness), res.evaluations) == (_reps(witness), count), \
            (idn, n, max_len)
        _, u, v = letter_ids(idn)
        cover = _cover(u, v, n, max_len)
        kinds.add(("none" if cover is None else "static" if cover[3] < 0
                   else "blocks", witness is None))
    assert len(cases) == 3000
    assert kinds == {("static", True), ("blocks", True), ("blocks", False),
                     ("none", True), ("none", False)}


def test_equal_image_words_are_decided_without_keys(monkeypatch):
    for n, max_len in ((3, 2), (4, 1), (2, 3)):
        enumerate_classes(n, max_len)  # cached before counting
    calls = []
    real = oracle.key_of

    def counting(symbols, n):
        calls.append(symbols)
        return real(symbols, n)
    monkeypatch.setattr(oracle, "key_of", counting)
    u = iword("x y* x")
    res = brute_force_check(Identity(u, u), 3, 2)
    assert calls == []
    assert not res.refuted and res.evaluations == len(enumerate_classes(3, 2)) ** 2
    # the content cover rule settles every assignment of a basis4 row, and
    # builds no image word
    built = _record_images(monkeypatch)
    # nor the predicate that would build them
    predicates = []
    refutes = oracle._refutes
    monkeypatch.setattr(oracle, "_refutes",
                        lambda *args: predicates.append(args) or refutes(*args))
    res = brute_force_check(basis4()[0], 4, 1)
    assert calls == [] and built == [] and predicates == []
    assert not res.refuted and res.evaluations == 15625
    res = brute_force_check(basis4()[1], 3, 2)
    assert calls == [] and built == [] and predicates == []
    assert not res.refuted and res.evaluations == 4826809
    # the sampler draws nothing on equal sides or a statically covered
    # identity, and builds image words only for the draws the rule declines
    for idn in (Identity(u, u), basis4()[1]):
        res = sample_check(idn, 3, 2, 10 ** 7)
        assert calls == [] and built == [] and predicates == []
        assert not res.refuted and res.evaluations == 10 ** 7
    idn = parse_identity(_COVERS[0])
    res = sample_check(idn, 2, 3, 300, seed=5)
    bases, u, v = letter_ids(idn)
    cover = _cover(u, v, 2, 3)
    rng, m = random.Random(5), len(enumerate_classes(2, 3))
    draws = [[rng.randrange(m) for _ in bases] for _ in range(300)]
    assert not res.refuted and res.evaluations == 300
    assert built == [a for a in draws if not oracle._settles(cover, a)]
    assert 0 < len(built) < 300
    # different image words are still compared by their keys
    assert brute_force_check(ident("x y", "y x"), 2, 1).refuted
    assert calls and built


def test_each_class_table_is_built_once(monkeypatch):
    # the class words and masks of one (n, max_len) serve every search over
    # it: one involution word per class, however many searches
    n, max_len = 3, 1
    classes = enumerate_classes(n, max_len)
    oracle._table_images.cache_clear()
    sharps = []
    real = oracle.sharp_word
    monkeypatch.setattr(oracle, "sharp_word",
                        lambda w: sharps.append(w) or real(w))
    idn = parse_identity(_COVERS[4])
    brute_force_check(idn, n, max_len)
    brute_force_check(ident("x y", "y x"), n, max_len)
    sample_check(idn, n, max_len, 50, seed=1)
    assert len(sharps) == len(classes)
    # every search still asks for the class table, so a search after the
    # table's cache is cleared enumerates it again
    for search in (lambda: brute_force_check(idn, n, max_len),
                   lambda: sample_check(idn, n, max_len, 20)):
        enumerate_classes.cache_clear()
        search()
        assert enumerate_classes.cache_info().misses == 1
    assert len(sharps) == len(classes)


def test_middle_first_refutation_matches_the_full_words():
    # sides P X S and P Y S have equal image words exactly when the
    # middles' images are equal; where those differ the full words' keys
    # decide, and congruent words can have middles that are not congruent
    equal = congruent = split = 0
    for idn, n, max_len in _differential_cases() + _spliced_corpus():
        m = len(enumerate_classes(n, max_len))
        bases, u, v = letter_ids(idn)
        if m ** len(bases) > 4000:
            continue
        words = oracle._table_images(n, max_len)[0]
        ends = common_ends(u, v)
        refutes = oracle._refutes(u, v, ends, words, n)
        images = oracle._side_images(u, v, words)
        middles = oracle._middle_images(u, v, ends, words)
        for sub in product(range(m), repeat=len(bases)):
            lhs, rhs = images(sub)
            differ = oracle.key_of(lhs, n) != oracle.key_of(rhs, n)
            x, y = middles(sub)
            assert (lhs == rhs) == (x == y), (idn, n, max_len, sub)
            assert refutes(sub, x, y) == differ, (idn, n, max_len, sub)
            equal += x == y
            if x != y and not differ:
                congruent += 1
                split += oracle.key_of(x, n) != oracle.key_of(y, n)
    assert equal and congruent and split


@pytest.mark.parametrize("idn, n, max_len", [
    # holds; the content cover rule leaves 260 assignments, all with equal
    # middles, and the equal-middles rule passes over them in blocks, so
    # no key is computed
    (pk_qk(2), 3, 1),
    # refuted at the 19th undecided assignment, the 7th with different
    # middles
    (parse_identity(_COVERS[3]), 3, 2),
])
def test_keys_only_where_the_middles_differ(monkeypatch, idn, n, max_len):
    # a scan up to its witness: the undecided assignments with equal
    # middles cost no key, the others one key per side
    classes = enumerate_classes(n, max_len)
    m = len(classes)
    bases, u, v = letter_ids(idn)
    p, s = common_ends(u, v)
    words = oracle._table_images(n, max_len)[0]
    middles = oracle._side_images(u[p:len(u) - s], v[p:len(v) - s], words)
    cover = _cover(u, v, n, max_len)
    undecided = [a for a in product(range(m), repeat=len(bases))
                 if not oracle._settles(cover, a)]
    calls = []
    real = oracle.key_of
    monkeypatch.setattr(oracle, "key_of",
                        lambda w, n: calls.append(w) or real(w, n))
    res = brute_force_check(idn, n, max_len)
    if res.refuted:
        witness = tuple(classes.index(res.witness[b]) for b in bases)
        undecided = undecided[:undecided.index(witness) + 1]
    differ = sum(x != y for x, y in map(middles, undecided))
    assert len(calls) == 2 * differ
    assert differ < len(undecided)


def test_witness_json():
    idn = ident("x y", "y x")
    res = brute_force_check(idn, 2, 1)
    obj = witness_to_json_obj(idn, res)
    assert obj == {
        "assignment": {"x": "1", "y": "2"},
        "lhs_key": {"ev": [1, 1], "lpi": [[1, 2, 1]], "rpi": [[2, 1, 1]]},
        "rhs_key": {"ev": [1, 1], "lpi": [], "rpi": []},
    }
    assert witness_to_json_obj(idn, brute_force_check(ident("x", "x"), 2, 1)) is None


def test_comm_eval():
    a = {"x": (1, 0)}
    assert comm_eval(iword("x x x*"), a) == (2, 1)
    assert comm_eval(iword("x* x x"), a) == (2, 1)
    assert len(list(comm_assignments(["x", "y"]))) == 81


def test_comm_check_examples():
    assert comm_check(ident("x x*", "x* x"))
    assert not comm_check(ident("x", "x x"))
    assert comm_check(ident("x y", "y x"))


@settings(max_examples=300)
@given(identities)
def test_comm_check_is_balancedness(idn):
    assert comm_check(idn) == is_balanced(idn)

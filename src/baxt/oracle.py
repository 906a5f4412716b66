"""Ground-truth engines for identity testing.

The brute-force engine substitutes every tuple of monoid classes (built from
words up to a length bound) for the variables of an identity and looks for a
falsifying assignment.  It is a bounded refuter, never a decision procedure:
its positive outcome only means no counterexample within the bound.  A
search yields only the assignments that the content cover rule and the
equal-middles rule leave undecided, stops at the first of them that
refutes the identity, and derives its evaluation count from that
witness's place in the enumeration.
Write the sides as P X S and P Y S, P and S their common prefix and suffix
of letters; when X and Y hold the same letters, an assignment sends them to
p x s and p y s with x and y holding the same letters of 1..n, and when
every letter of x occurs in p and in s the two are congruent (`_cover`
gives the proof).  The full scan assigns the sorted bases one at a time,
row-major, keeping the ORs of per-class content bitmasks of p, s and x so
far, and passes over a whole block of assignments when no completion can
uncover x; when every letter of X occurs in both P and S, the block is the
whole grid and nothing is visited.  The equal-middles rule passes over
whole blocks too: X and Y then have one length, and once the largest base
with a letter at a position where X and Y differ is assigned, if at each
such position the two letters' images are equal, then x and y are the
same concatenation and p x s == p y s for every completion
(`_middle_pairs`).  Each assignment that both rules leave builds the
middles' images, and full words and keys only where they differ: equal
middles give equal words, one class.  So a scan costs time in the blocks
it tries and the assignments left undecided, not in the grid.  The class
words and their content masks are built once per (n, max_len), like the
class table.  Sides that are one word visit nothing.  The full scan is
cut into chunks of first-base class indices, in order, and stops at the
first refuting chunk; the chunks run in this process, or with jobs > 1 in
a pool of processes, and give the same witness either way.  The sampler
checks the rule on each seeded random draw.

The second engine evaluates identities in the two-generator commutative
involution monoid a^m b^n (product adds exponents, star swaps them), whose
identities are exactly the balanced ones.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import product
from operator import or_
from typing import Optional

from .monoid import (BaxtElement, RankMismatchError, key_of, key_to_json_obj,
                     sharp_word)
from .words import AWord, Identity, IWord, _int_at_least, common_ends, letter_ids


class BudgetExceededError(ValueError):
    """What a step would build or evaluate exceeds DEFAULT_BUDGET."""


class UnassignedVariableError(ValueError):
    """The identity uses a base variable the substitution does not assign."""


DEFAULT_BUDGET = 10_000_000


def check_budget(size: int, what: str) -> None:
    """Refuse a step that would build or evaluate size things, counted in
    the plural phrase what, when size exceeds DEFAULT_BUDGET."""
    if size > DEFAULT_BUDGET:
        raise BudgetExceededError(f"{what} exceed the budget of {DEFAULT_BUDGET}")


@lru_cache(maxsize=None, typed=True)
def enumerate_classes(n: int, max_len: int) -> tuple[BaxtElement, ...]:
    """Distinct classes of all words over 1..n of length <= max_len, each
    carrying its first representative in length-then-lex order.  The cache
    is typed, so that True or 1.0 is refused, not read as a cached 1."""
    _int_at_least(max_len, 0, "max_len")
    classes = []
    seen = set()
    for length in range(max_len + 1):
        for tup in product(range(1, n + 1), repeat=length):
            k = key_of(tup, n)
            if k not in seen:
                seen.add(k)
                classes.append(BaxtElement(n, AWord(tup, n), k))
    return tuple(classes)


def _class_table(n: int, max_len: int) -> tuple[BaxtElement, ...]:
    """enumerate_classes(n, max_len), refused before it starts when the
    table it keeps, every word of length <= max_len with its n-entry
    evaluation vector, exceeds the budget.  The words are counted only
    until the table passes the budget, so a huge bound costs a few steps
    and prints a lower bound."""
    if n == 1:
        words = max_len + 1
    else:
        words, power = 0, 1
        for _ in range(max_len + 1):
            words += power
            power *= n
            if words * n > DEFAULT_BUDGET:
                break
    check_budget(words * n, f"at least {words * n} class table entries (words "
                 f"of length <= {max_len} with {n}-entry evaluation vectors)")
    return enumerate_classes(n, max_len)


def identity_bases(ident: Identity) -> list[str]:
    return letter_ids(ident)[0]


def _class_words(classes):
    """The symbols of each class's representative, and of its involution:
    the image words of a letter by its starred flag."""
    return (tuple(e.representative.symbols for e in classes),
            tuple(sharp_word(e.representative).symbols for e in classes))


@lru_cache(maxsize=None)
def _table_images(n: int, max_len: int):
    """The class words of enumerate_classes(n, max_len) (`_class_words`),
    and each one's content bitmask (bit a for letter a), indexed alike by
    starred flag: built once per class table, and read by every search
    over it."""
    words = _class_words(enumerate_classes(n, max_len))
    return words, tuple(tuple(sum(1 << a for a in set(w)) for w in side)
                        for side in words)


def _side_images(u, v, words):
    """A function of class indices (one per base) that gives the words of
    the sides u and v, letter ids (`words.letter_ids`), with each base sent
    to its class's word in words (`_class_words`); starred letters go to
    the involution of the base image."""
    # per letter id a: base a >> 1, class words by starred a & 1
    lhs_ops, rhs_ops = ([(a >> 1, words[a & 1]) for a in w] for w in (u, v))

    def image(ops, idxs):
        out = []
        for bi, w in ops:
            out.extend(w[idxs[bi]])
        return tuple(out)

    def images(idxs):
        return image(lhs_ops, idxs), image(rhs_ops, idxs)
    return images


def _cover(u, v, ends, masks, n):
    """The content cover rule on the sides u and v (letter ids) at rank n,
    made once per search from the class content masks of `_table_images`.
    None unless the rule can fire, that is unless the common prefix P and
    suffix S of letters, of lengths ends (`words.common_ends`), are both
    nonempty and the middles X and Y between them hold the same letters.
    Otherwise (p, s, x, last_x, full): p[b][c] is the content bitmask
    (bit a for letter a) of the image of base b's letters in P when b goes
    to class c, s and x likewise for S and for X less every letter id that
    occurs in both P and S, last_x is the largest base with a letter left
    in x (-1 if none), and full holds the bits of 1..n.

    The rule: with p, x, y and s the images of P, X, Y and S, x and y hold
    the same letters of 1..n, and if every letter of x occurs in p and in s
    then p x s and p y s are congruent.  They have one evaluation, since
    the sides are balanced.  Every letter first occurs at the same
    position of both words: in p if it occurs in x, and otherwise at one
    shared position of p or s.  The lpi triple of b is (a, b, l), where a
    is the largest letter below b that occurs before b's first
    occurrence; the letters before that position are the same on both
    sides, so a is too.  If b first occurs in p, then p fixes l;
    otherwise l is the count of a in p, plus its count in x (the same as
    in y), plus its count in s before that position.  The rpi triples
    agree by the mirror argument, with last occurrences in s.  So the
    rule needs the content bitmasks of p, s and x, ORed per base, and one
    AND.  A letter id in both P and S has its image's letters in p and in
    s whatever its class, so it is left out of x.  The masks only grow as
    more bases are assigned, so a block of assignments that fixes bases
    0..d is settled at once when the letters of x so far lie in p and s
    and either no later base has a letter in x or p and s already share
    all of 1..n."""
    p, s = ends
    mid = u[p:len(u) - s]
    if not (p and s and sorted(mid) == sorted(v[p:len(v) - s])):
        return None
    nbases = max(max(u), max(v)) // 2 + 1
    zero = [0] * len(masks[0])

    def table(ids):
        rows = [zero] * nbases
        for a in ids:
            row = rows[a >> 1]
            rows[a >> 1] = masks[a & 1] if row is zero else list(
                map(or_, row, masks[a & 1]))
        return rows
    in_p, in_s = set(u[:p]), set(u[len(u) - s:])
    in_x = set(mid) - (in_p & in_s)
    full = (1 << (n + 1)) - 2
    last_x = max(in_x) >> 1 if in_x else -1
    return table(in_p), table(in_s), table(in_x), last_x, full


def _settles(cover, idxs):
    """Does the content cover rule of `_cover` settle the assignment idxs,
    class indices in the order of bases?"""
    mp = ms = mx = 0
    for c, rp, rs, rx in zip(idxs, *cover[:3]):
        mp |= rp[c]
        ms |= rs[c]
        mx |= rx[c]
    return not mx & ~(mp & ms)


def _middle_pairs(u, v, ends, words):
    """The equal-middles rule on sides u = P X S and v = P Y S, letter ids
    whose middles X and Y hold the same letters (so `_cover` applies), made
    once per search over the class words of `_table_images`: (top, pairs),
    where pairs holds each distinct pair of letter ids at a position where
    X and Y differ, as (base, class words, base, class words) with the
    class words picked by starred flag, and top is the largest base among
    them.

    The rule: X and Y have one length, so once bases 0..top are assigned,
    if the two class words of every pair are equal then the images x and y
    are the same concatenation, and p x s == p y s whatever classes the
    later bases take.  No completion refutes."""
    p, s = ends
    pairs = sorted({(min(a, b), max(a, b)) for a, b in
                    zip(u[p:len(u) - s], v[p:len(v) - s]) if a != b})
    top = max(b for _, b in pairs) >> 1
    return top, tuple((a >> 1, words[a & 1], b >> 1, words[b & 1])
                      for a, b in pairs)


def _blocks(cover, m, first_range, same):
    """The assignments whose first-base class index lies in first_range,
    row-major over m classes for each remaining base, that the content cover
    rule of `_cover` leaves undecided, and that the equal-middles rule of
    same, `_middle_pairs`'s (top, pairs), leaves too (a top of -1 applies no
    such rule).  Bases 0..d are assigned one at a time, each depth keeps the
    ORs of the masks so far, and a block whose masks settle it is passed
    over whole.  The classes tried at depth top are filtered, lazily, to
    those under which some pair's two class words differ, so a block whose
    middles have equal images is passed over whole too.  When top is the
    last base that block is one assignment, whose middles `_refutes`
    compares anyway, so the filter is left out.  The loop is iterative, so
    any number of bases is safe."""
    p, s, x, last_x, full = cover
    last = len(p) - 1
    idxs = [0] * (last + 1)
    top, pairs = same if same[0] < last else (-1, ())

    def differs(c):  # at depth top, with bases 0..top - 1 in idxs
        idxs[top] = c
        for ea, wa, eb, wb in pairs:
            if wa[idxs[ea]] != wb[idxs[eb]]:
                return True
        return False
    # the masks of bases 0..d - 1, and the classes left to try, at depth d
    mp, ms, mx = [0] * (last + 1), [0] * (last + 1), [0] * (last + 1)
    todo = [filter(differs, first_range) if top == 0 else iter(first_range)]
    todo += [None] * last
    d = 0
    while d >= 0:
        c = next(todo[d], None)
        if c is None:
            d -= 1
            continue
        gp, gs, gx = mp[d] | p[d][c], ms[d] | s[d][c], mx[d] | x[d][c]
        both = gp & gs
        if not gx & ~both and (d >= last_x or both == full):
            continue
        idxs[d] = c
        if d == last:
            yield tuple(idxs)
            continue
        d += 1
        mp[d], ms[d], mx[d] = gp, gs, gx
        todo[d] = filter(differs, range(m)) if d == top else iter(range(m))


def _refutes(u, v, ends, words, n):
    """A predicate on assignments (class indices, one per base): do the
    sides u = P X S and v = P Y S, letter ids whose common prefix P and
    suffix S have lengths ends, have different classes under it?  Made
    once per search, over the class words of `_table_images`.  Per
    assignment it builds the images x and y of the middles, O(|X| + |Y|)
    max_len; the words p x s and p y s are equal iff x and y are.  Only
    where they differ does it build p and s and compare the keys of the
    full words: congruent words can have middles that are not congruent."""
    p, s = ends
    middles = _side_images(u[p:len(u) - s], v[p:len(v) - s], words)
    outer = _side_images(u[:p], u[len(u) - s:], words)

    def refutes(idxs):
        x, y = middles(idxs)
        if x == y:
            return False
        head, tail = outer(idxs)
        return key_of(head + x + tail, n) != key_of(head + y + tail, n)
    return refutes


def eval_substitution(ident: Identity, sub: dict[str, BaxtElement]) -> bool:
    """Multiply the images left to right on both sides and compare classes.
    Starred letters go to the involution of the base image."""
    bases, u, v = letter_ids(ident)
    for b in bases:
        if b not in sub:
            raise UnassignedVariableError(f"no image for {b}")
    if not bases:
        return True  # no variables: both sides are the empty word
    ranks = sorted({sub[b].rank for b in bases})
    if len(ranks) > 1:
        raise RankMismatchError(f"images of ranks {ranks} in one substitution")
    lhs_key, rhs_key = _substitution_keys(bases, u, v, sub)
    return lhs_key == rhs_key


def _substitution_keys(bases, u, v, sub):
    """The keys of the sides u and v, letter ids over the sorted bases, with
    each (nonempty) base b sent to sub[b]; the classes share one rank."""
    classes = [sub[b] for b in bases]
    n = classes[0].rank
    lhs, rhs = _side_images(u, v, _class_words(classes))(range(len(bases)))
    return key_of(lhs, n), key_of(rhs, n)


@dataclass(frozen=True)
class OracleResult:
    witness: Optional[dict]  # base -> BaxtElement, first in enumeration order
    evaluations: int
    n: int
    max_len: int
    exhaustive: bool

    @property
    def refuted(self) -> bool:
        return self.witness is not None


def _scan(u, v, ends, words, cover, nbases, n, first_range):
    """The first assignment (class indices in the order of the nbases
    bases) that refutes the identity, among those whose first-base class
    index lies in first_range, row-major over the remaining bases; None if
    there is none.  cover is `_cover`'s, and leaves some assignment
    undecided; where it applies, the blocks that the content cover rule or
    the equal-middles rule of `_middle_pairs` settles are passed over
    whole, since under both every assignment has congruent sides.  The
    cost is a few ORs per block tried, one comparison of class words per
    pair for each class tried at the equal-middles depth, and `_refutes`'s
    per assignment that no block settles."""
    m = len(words[0])
    if cover is None:
        undecided = product(first_range, *[range(m)] * (nbases - 1))
    else:
        undecided = _blocks(cover, m, first_range,
                            _middle_pairs(u, v, ends, words))
    return next(filter(_refutes(u, v, ends, words, n), undecided), None)


def brute_force_check(ident: Identity, n: int, max_len: Optional[int] = None,
                      jobs: int = 1) -> OracleResult:
    """Exhaustive refutation search over all class assignments.

    Bases are tried in sorted order and classes in length-then-lex order, so
    the reported witness is the first in that fixed enumeration.  The scan
    yields only the assignments that the content cover rule and the
    equal-middles rule leave, and stops at the first that refutes;
    evaluations is the witness's place in the enumeration, its row-major
    rank plus one, or the whole grid when there is none.  A grid larger
    than DEFAULT_BUDGET raises instead of silently truncating, and before
    the classes are enumerated when a lower bound on its size, or the class
    table itself, is already larger.  The grid is cut into one chunk per
    job, and jobs is first capped at the number of CPUs and of first-base
    classes.  The chunks come back in enumeration order, so the witness,
    and with it the count, does not depend on jobs.
    """
    _int_at_least(n, 1, "rank")
    _int_at_least(jobs, 1, "jobs")
    bases, u, v = letter_ids(ident)
    if max_len is None:
        max_len = 3 if len(bases) <= 2 else 2
    _int_at_least(max_len, 0, "max_len")
    if not bases:
        # no variables at all: both sides are the empty word
        return OracleResult(None, 1, n, max_len, True)
    # words with different letter counts are distinct classes, so there are
    # at least comb(n + max_len, max_len) classes: a grid too large even for
    # that many is refused before the enumeration.  That bound is built up
    # only until it passes the budget, which keeps huge bounds cheap and
    # printable; comb(n + max_len, i) grows with i up to min(n, max_len), so
    # each partial value is a lower bound too
    per_base = 1
    for i in range(1, min(n, max_len) + 1):
        per_base = per_base * (n + max_len + 1 - i) // i
        if per_base > DEFAULT_BUDGET:
            break
    least = 1
    for _ in bases:
        least *= per_base
        if least > DEFAULT_BUDGET:
            break
    check_budget(least, f"at least {least} evaluations")
    classes = _class_table(n, max_len)
    total = len(classes) ** len(bases)
    check_budget(total, f"{total} evaluations")
    if u == v:  # the sides are one word
        return OracleResult(None, total, n, max_len, True)
    words, masks = _table_images(n, max_len)
    ends = common_ends(u, v)
    cover = _cover(u, v, ends, masks, n)
    if cover is not None and cover[3] < 0:  # every assignment is settled
        return OracleResult(None, total, n, max_len, True)

    scan = partial(_scan, u, v, ends, words, cover, len(bases), n)
    m = len(classes)
    if jobs > 1:
        # at most one process per CPU and per first-base class, so no chunk
        # is empty (os.cpu_count reads the system, so one job skips it)
        jobs = min(jobs, m, os.cpu_count() or 1)
    bounds = [(i * m) // jobs for i in range(jobs + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # a witness is a nonempty tuple, and the chunks come back in order
    if jobs == 1:
        idxs = next(filter(None, map(scan, chunks)), None)
    else:
        # imported only here: the process pool machinery would add to the
        # memory of every run that does not use it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            idxs = next(filter(None, pool.map(scan, chunks)), None)
    if idxs is None:
        return OracleResult(None, total, n, max_len, True)
    rank = reduce(lambda r, c: r * m + c, idxs, 0)
    return OracleResult({b: classes[i] for b, i in zip(bases, idxs)}, rank + 1,
                        n, max_len, True)


def sample_check(ident: Identity, n: int, max_len: int, samples: int,
                 seed: int = 0) -> OracleResult:
    """Uniform random draws from the same grid; deterministic for a seed.
    evaluations is the witness's draw number, or samples when no draw
    refutes.  More samples than the budget, or a class table over it, are refused
    before anything is enumerated or drawn."""
    _int_at_least(n, 1, "rank")
    _int_at_least(max_len, 0, "max_len")
    _int_at_least(samples, 1, "samples")
    check_budget(samples, f"{samples} samples")
    bases, u, v = letter_ids(ident)
    classes = _class_table(n, max_len)
    if u == v:
        return OracleResult(None, samples, n, max_len, False)
    words, masks = _table_images(n, max_len)
    ends = common_ends(u, v)
    cover = _cover(u, v, ends, masks, n)
    if cover is not None and cover[3] < 0:  # every draw would be settled
        return OracleResult(None, samples, n, max_len, False)
    rng = random.Random(seed)
    refutes = _refutes(u, v, ends, words, n)
    for count in range(1, samples + 1):
        idxs = [rng.randrange(len(classes)) for _ in bases]
        if (cover is None or not _settles(cover, idxs)) and refutes(idxs):
            return OracleResult({b: classes[i] for b, i in zip(bases, idxs)},
                                count, n, max_len, False)
    return OracleResult(None, samples, n, max_len, False)


def witness_to_json_obj(ident: Identity, result: OracleResult):
    if result.witness is None:
        return None
    sub = result.witness
    lhs_key, rhs_key = _substitution_keys(*letter_ids(ident), sub)
    return {
        "assignment": {b: str(e.representative) for b, e in sorted(sub.items())},
        "lhs_key": key_to_json_obj(lhs_key),
        "rhs_key": key_to_json_obj(rhs_key),
    }


# ---------------------------------------------------------------------------
# The commutative involution monoid {a^m b^n}
# ---------------------------------------------------------------------------

def comm_eval(word: IWord, assignment: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """Image of a word when each base goes to a^m b^n and star swaps (m, n)."""
    m = n = 0
    for letter in word:
        a, b = assignment[letter.base]
        if letter.starred:
            a, b = b, a
        m += a
        n += b
    return (m, n)


def comm_assignments(bases):
    """Every assignment of some a^m b^n with m, n <= 2 to each base."""
    vals = list(product(range(3), repeat=2))
    for combo in product(vals, repeat=len(bases)):
        yield dict(zip(bases, combo))


def comm_check(ident: Identity) -> bool:
    """Does the identity hold in the commutative involution monoid?
    Checked over all assignments with exponents up to 2."""
    return all(comm_eval(ident.lhs, a) == comm_eval(ident.rhs, a)
               for a in comm_assignments(identity_bases(ident)))

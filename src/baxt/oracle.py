"""Ground-truth engines for identity testing.

The brute-force engine substitutes every tuple of monoid classes (built from
words up to a length bound) for the variables of an identity and looks for a
falsifying assignment.  It is a bounded refuter, never a decision procedure:
its positive outcome only means no counterexample within the bound.  One
loop evaluates assignments until one refutes the identity.  Most
assignments of an identity that holds are settled by the content cover
rule, with no image word and no key.  Write the sides as P X S and P Y S,
P and S their common prefix and suffix of letters; when X and Y hold the
same letters, an assignment sends them to p x s and p y s with x and y
holding the same letters of 1..n, and when every letter of x occurs in p
and in s the two are congruent (`_side_images` gives the proof).  That
takes one OR per distinct letter of P, S and X over per-class content
bitmasks, and one AND.  Only the other assignments build both image
words: equal words are one class, and different words have their keys
compared.  Sides that are one word only count the assignments.  The full
scan feeds the loop the grid in chunks of first-base class indices, in
order, and stops at the first refuting chunk; the chunks run in this
process, or with jobs > 1 in a pool of processes, and give the same
witness and evaluation count either way.  The sampler feeds it seeded
random draws.

The second engine evaluates identities in the two-generator commutative
involution monoid a^m b^n (product adds exponents, star swaps them), whose
identities are exactly the balanced ones.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from typing import Optional

from .monoid import (BaxtElement, RankMismatchError, key_of, key_to_json_obj,
                     sharp_word)
from .words import AWord, Identity, IWord, common_ends, letter_ids


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


@lru_cache(maxsize=None)
def enumerate_classes(n: int, max_len: int) -> tuple[BaxtElement, ...]:
    """Distinct classes of all words over 1..n of length <= max_len, each
    carrying its first representative in length-then-lex order."""
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


def _side_images(u, v, classes):
    """Two functions of class indices, one per base, for the sides u and v
    as letter ids (`words.letter_ids`).  images gives the words of both
    sides with each base sent to its class's representative; starred
    letters go to the involution of the base image.
    covered tells whether the content cover rule settles the assignment as
    congruent; it is None when the rule cannot fire, that is unless the
    common prefix P and suffix S of letters (`words.common_ends`) are both
    nonempty and the middles X and Y between them hold the same letters.

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
    rule needs the content bitmasks of p, s and x, an OR per distinct
    letter of P, S and X and one AND per assignment."""
    # once per search, per letter id a: base a >> 1, class words by starred a & 1
    words = ([e.representative.symbols for e in classes],
             [sharp_word(e.representative).symbols for e in classes])
    lhs_ops, rhs_ops = ([(a >> 1, words[a & 1]) for a in w] for w in (u, v))
    p, s = common_ends(u, v)
    mid = u[p:len(u) - s]

    def image(ops, idxs):
        out = []
        for bi, w in ops:
            out.extend(w[idxs[bi]])
        return tuple(out)

    def images(idxs):
        return image(lhs_ops, idxs), image(rhs_ops, idxs)

    if not (p and s and sorted(mid) == sorted(v[p:len(v) - s])):
        return images, None
    # content bitmasks per class, indexed by starred: bit a for letter a
    masks = tuple([sum(1 << a for a in set(w)) for w in side] for side in words)

    def ors(ids):
        return [(masks[a & 1], a >> 1) for a in set(ids)]
    in_p, in_s, in_x = ors(u[:p]), ors(u[len(u) - s:]), ors(mid)

    def covered(idxs):
        mp = ms = mx = 0
        for m, bi in in_p:
            mp |= m[idxs[bi]]
        for m, bi in in_s:
            ms |= m[idxs[bi]]
        for m, bi in in_x:
            mx |= m[idxs[bi]]
        return not mx & ~(mp & ms)
    return images, covered


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
    images, _ = _side_images(u, v, classes)
    lhs, rhs = images(range(len(bases)))
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


def default_max_len(num_bases: int) -> int:
    return 3 if num_bases <= 2 else 2


def _evaluate(bases, u, v, classes, n, assignments):
    """Evaluate the sides u and v (letter ids) on each assignment (class
    indices in the order of bases) up to the first that refutes the
    identity.  Returns it (None if there is none) and the number of
    evaluations.  Sides that are one word only count the assignments.
    Otherwise an assignment that the content cover rule settles costs
    O(|P| + |S| + |X|) ORs of bitmasks; the rest build both image words,
    O(|u| max_len), and only different words have their keys compared."""
    if u == v:
        return None, sum(1 for _ in assignments)
    images, covered = _side_images(u, v, classes)
    count = 0
    for count, idxs in enumerate(assignments, 1):
        if covered is not None and covered(idxs):
            continue
        lhs, rhs = images(idxs)
        if lhs != rhs and key_of(lhs, n) != key_of(rhs, n):
            return {b: classes[i] for b, i in zip(bases, idxs)}, count
    return None, count


def _scan(bases, u, v, classes, n, first_range):
    """_evaluate on the assignments whose first-base class index lies in
    first_range, row-major over the remaining bases."""
    grid = product(first_range, *[range(len(classes))] * (len(bases) - 1))
    return _evaluate(bases, u, v, classes, n, grid)


def brute_force_check(ident: Identity, n: int, max_len: Optional[int] = None,
                      jobs: int = 1) -> OracleResult:
    """Exhaustive refutation search over all class assignments.

    Bases are tried in sorted order and classes in length-then-lex order, so
    the reported witness is the first in that fixed enumeration.  A grid
    larger than DEFAULT_BUDGET raises instead of silently truncating, and
    before the classes are enumerated when a lower bound on its size, or
    the class table itself, is already larger.  The grid is cut into one
    chunk per job, and jobs is first capped at the number of CPUs and of
    first-base classes.  The chunks come back in enumeration order, and
    every chunk before the first refuting one was scanned in full, so the
    witness and the count do not depend on jobs.
    """
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    bases, u, v = letter_ids(ident)
    if max_len is None:
        max_len = default_max_len(len(bases))
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

    scan = partial(_scan, bases, u, v, classes, n)
    m = len(classes)
    if jobs > 1:
        # at most one process per CPU and per first-base class, so no chunk
        # is empty (os.cpu_count reads the system, so one job skips it)
        jobs = min(jobs, m, os.cpu_count() or 1)
    bounds = [(i * m) // jobs for i in range(jobs + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if jobs == 1:
        return _first_refutation(map(scan, chunks), n, max_len)
    # imported only here: the process pool machinery would add to the
    # memory of every run that does not use it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _first_refutation(pool.map(scan, chunks), n, max_len)


def _first_refutation(scans, n, max_len) -> OracleResult:
    """The first refuting chunk's witness, and the evaluations up to and
    including it."""
    count = 0
    for sub, c in scans:
        count += c
        if sub is not None:
            return OracleResult(sub, count, n, max_len, True)
    return OracleResult(None, count, n, max_len, True)


def sample_check(ident: Identity, n: int, max_len: int, samples: int,
                 seed: int = 0) -> OracleResult:
    """Uniform random draws from the same grid; deterministic for a seed.
    More samples than the budget, or a class table over it, are refused
    before anything is enumerated or drawn."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    check_budget(samples, f"{samples} samples")
    bases, u, v = letter_ids(ident)
    classes = _class_table(n, max_len)
    rng = random.Random(seed)
    # drawn one assignment at a time, so a refutation stops the draws
    draws = ([rng.randrange(len(classes)) for _ in bases] for _ in range(samples))
    sub, count = _evaluate(bases, u, v, classes, n, draws)
    return OracleResult(sub, count, n, max_len, False)


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

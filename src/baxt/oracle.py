"""Ground-truth engines for identity testing.

The brute-force engine substitutes every tuple of monoid classes (built from
words up to a length bound) for the variables of an identity and looks for a
falsifying assignment.  It is a bounded refuter, never a decision procedure:
its positive outcome only means no counterexample within the bound.  The
second engine evaluates identities in the two-generator commutative
involution monoid a^m b^n (product adds exponents, star swaps them), whose
identities are exactly the balanced ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .monoid import BaxtElement, key_of, key_to_json_obj, sharp_word
from .words import AWord, Identity, IWord


class BudgetExceededError(RuntimeError):
    """The enumeration grid exceeds the configured evaluation budget."""


class UnassignedVariableError(ValueError):
    """The identity uses a base variable the substitution does not assign."""


DEFAULT_BUDGET = 10_000_000


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


def identity_bases(ident: Identity) -> list[str]:
    return sorted({x.base for x in ident.lhs + ident.rhs})


def _side_keys(ident: Identity, bases, classes, n: int):
    """A function from class indices, one per base in the order of bases,
    to the keys of both sides with each base sent to its class.  Starred
    letters go to the involution of the base image."""
    plain = [e.representative.symbols for e in classes]
    starred = [sharp_word(e.representative).symbols for e in classes]
    base_pos = {b: i for i, b in enumerate(bases)}
    lhs_ops = [(base_pos[x.base], x.starred) for x in ident.lhs]
    rhs_ops = [(base_pos[x.base], x.starred) for x in ident.rhs]

    def image(ops, idxs):
        out = []
        for bi, st in ops:
            out.extend(starred[idxs[bi]] if st else plain[idxs[bi]])
        return tuple(out)

    def keys(idxs):
        return key_of(image(lhs_ops, idxs), n), key_of(image(rhs_ops, idxs), n)
    return keys


def eval_substitution(ident: Identity, sub: dict[str, BaxtElement]) -> bool:
    """Multiply the images left to right on both sides and compare classes.
    Starred letters go to the involution of the base image."""
    bases = identity_bases(ident)
    for b in bases:
        if b not in sub:
            raise UnassignedVariableError(f"no image for {b}")
    if not bases:
        return True  # no variables: both sides are the empty word
    images = [sub[b] for b in bases]
    keys = _side_keys(ident, bases, images, images[0].rank)
    lhs_key, rhs_key = keys(range(len(bases)))
    return lhs_key == rhs_key


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


def _scan(ident, bases, classes, n, first_range):
    """Scan assignments whose first-base class index lies in first_range,
    row-major over the remaining bases.  Returns the first refuting
    assignment (None if there is none) and the number of evaluations."""
    keys = _side_keys(ident, bases, classes, n)
    grid = product(first_range, *[range(len(classes))] * (len(bases) - 1))
    count = 0
    for count, idxs in enumerate(grid, 1):
        lhs_key, rhs_key = keys(idxs)
        if lhs_key != rhs_key:
            return {b: classes[i] for b, i in zip(bases, idxs)}, count
    return None, count


def brute_force_check(ident: Identity, n: int, max_len: Optional[int] = None,
                      budget: int = DEFAULT_BUDGET, jobs: int = 1) -> OracleResult:
    """Exhaustive refutation search over all class assignments.

    Bases are tried in sorted order and classes in length-then-lex order, so
    the reported witness is the first in that fixed enumeration.  A grid
    larger than the budget raises instead of silently truncating.
    """
    bases = identity_bases(ident)
    if max_len is None:
        max_len = default_max_len(len(bases))
    classes = enumerate_classes(n, max_len)
    if not bases:
        # no variables at all: both sides are the empty word
        return OracleResult(None, 1, n, max_len, True)
    total = len(classes) ** len(bases)
    if total > budget:
        raise BudgetExceededError(
            f"{total} evaluations exceed the budget of {budget}")

    if jobs > 1:
        return _brute_force_parallel(ident, n, max_len, bases, classes, jobs)

    sub, count = _scan(ident, bases, classes, n, range(len(classes)))
    return OracleResult(sub, count, n, max_len, True)


def _parallel_worker(args):
    ident, bases, classes, n, lo, hi = args
    return _scan(ident, bases, classes, n, range(lo, hi))


def _brute_force_parallel(ident, n, max_len, bases, classes, jobs):
    """Partition on the first base's class index.  The chunks come back in
    enumeration order, and every chunk before the first refuting one was
    scanned in full, so the witness and the count match a serial run."""
    from concurrent.futures import ProcessPoolExecutor

    m = len(classes)
    bounds = [(i * m) // jobs for i in range(jobs + 1)]
    chunks = [(ident, bases, classes, n, lo, hi)
              for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    count = 0
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for sub, c in pool.map(_parallel_worker, chunks):
            count += c
            if sub is not None:
                return OracleResult(sub, count, n, max_len, True)
    return OracleResult(None, count, n, max_len, True)


def sample_check(ident: Identity, n: int, max_len: int, samples: int,
                 seed: int = 0) -> OracleResult:
    """Uniform random draws from the same grid; deterministic for a seed."""
    bases = identity_bases(ident)
    classes = enumerate_classes(n, max_len)
    keys = _side_keys(ident, bases, classes, n)
    rng = random.Random(seed)
    for k in range(samples):
        idxs = [rng.randrange(len(classes)) for _ in bases]
        lhs_key, rhs_key = keys(idxs)
        if lhs_key != rhs_key:
            sub = {b: classes[i] for b, i in zip(bases, idxs)}
            return OracleResult(sub, k + 1, n, max_len, False)
    return OracleResult(None, samples, n, max_len, False)


def witness_to_json_obj(ident: Identity, result: OracleResult):
    if result.witness is None:
        return None
    sub = result.witness
    bases = identity_bases(ident)
    keys = _side_keys(ident, bases, [sub[b] for b in bases], result.n)
    lhs_key, rhs_key = keys(range(len(bases)))
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


def comm_assignments(bases, coord_bound: int = 2):
    vals = [(i, j) for i in range(coord_bound + 1) for j in range(coord_bound + 1)]
    for combo in product(vals, repeat=len(bases)):
        yield dict(zip(bases, combo))


def comm_check(ident: Identity, coord_bound: int = 2) -> bool:
    """Does the identity hold in the commutative involution monoid?
    Checked over all assignments with exponents up to coord_bound."""
    bases = identity_bases(ident)
    return all(comm_eval(ident.lhs, a) == comm_eval(ident.rhs, a)
               for a in comm_assignments(bases, coord_bound))

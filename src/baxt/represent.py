"""Faithful tropical matrix representations of the rank-n Baxter monoids.

Ranks 1..3 map straight into upper triangular tropical matrices (dims 2, 6,
15), block diagonal with 1x1 and 2x2 blocks built from four 2x2 generators.
The generator images are built once, at import, and all images of one rank
share one block split.  The generator fold multiplies the images of the
letters one at a time, block column by block column, and keeps that split,
for the empty word too.  The closed forms are an independent route to the
same matrices, with the same split: each 2x2 block is P^l K or J Q^r, and
its count l or r is one left or right precedence triple of the invariants.

For rank n >= 4 each index pair (i, j) with i < j yields a homomorphism into
rank-3 pairs.  Both components are interval letter maps: the map a/b on
lo..hi sends lo to a, hi to b, every letter strictly between to b a and every
other letter to the empty word.  They are chosen from the sorted points s of
{i, j, i#, j#}, where i# = n+1-i: 2 points give 1/3 on i..j twice; 3 points,
or 4 with i and j on the same side of the centre, give 1/2 on s0..s1 and 2/3
on s[-2]..s[-1]; 4 points on opposite sides give 1/2 on s0..s2 and 2/3 on
s1..s3.  The tuple of all components is a complete invariant, and can be
materialized as one block diagonal matrix of dimension 30 * n(n-1)/2
compatible with skew transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .monoid import (BaxtElement, RankMismatchError, canonical,
                     element_to_json_obj, invariant_key, sharp)
from .semiring import (NEG_INF, UTMatrix, _product, block_diag, from_rows, gen_J,
                       gen_K, gen_P, gen_Q, mat_mul, scalar)
from .words import AWord


def _check_rank(w: AWord, n: int):
    if w.rank != n:
        raise RankMismatchError(f"expected a rank-{n} word, got rank {w.rank}")


def _generator_table() -> dict[int, dict[int, UTMatrix]]:
    """{rank: {letter: image}} for ranks 1..3."""
    one, s = scalar(0), scalar(1)
    P, Q, J, K = gen_P(), gen_Q(), gen_J(), gen_K()
    # one 2x2 block: identity_matrix(2) is two 1x1 blocks, which would give
    # the rank-3 images different block splits
    E2 = from_rows([[0, NEG_INF], [NEG_INF, 0]])
    return {
        1: {1: mat_mul(P, Q)},
        2: {1: block_diag([s, P, J, one]),
            2: block_diag([one, K, Q, s])},
        3: {1: block_diag([s, P, P, E2, one, J, E2, J, one]),
            2: block_diag([one, K, K, P, s, Q, J, J, one]),
            3: block_diag([one, K, E2, K, one, E2, Q, Q, s])},
    }


_IMAGES = _generator_table()

# {rank: one (block size, {letter: block}) per block column of the images}
_COLUMNS = {n: tuple((len(b), {a: M.blocks[c] for a, M in images.items()})
                     for c, b in enumerate(images[1].blocks))
            for n, images in _IMAGES.items()}


def _fold(w: AWord, n: int) -> UTMatrix:
    """phi_n for n <= 3: the product of the letters' generator images, one
    letter at a time.  All images of one rank share a block split, so the
    product runs block column by block column, with no intermediate matrix,
    and keeps that split; the empty word gives the identity in it."""
    _check_rank(w, n)
    return UTMatrix._of(tuple(_product(map(column.__getitem__, w.symbols), k)
                              for k, column in _COLUMNS[n]))


def phi1(w: AWord) -> UTMatrix:
    return _fold(w, 1)


def phi2(w: AWord) -> UTMatrix:
    return _fold(w, 2)


def phi3(w: AWord) -> UTMatrix:
    return _fold(w, 3)


def generator_images(n: int) -> dict[int, UTMatrix]:
    if n not in _IMAGES:
        raise ValueError("generator matrices exist for ranks 1..3 only")
    return dict(_IMAGES[n])


# ---------------------------------------------------------------------------
# Closed-form block evaluators (independent route to the same matrices)
# ---------------------------------------------------------------------------
#
# In every 2x2 block each letter maps to one of P, K and the identity E, or
# to one of J, Q and E.  K X = K for X in {P, K, E}, so a P/K block is P^l K
# with l the P-letters before the first K-letter; X J = J for X in {Q, J, E},
# so a J/Q block is J Q^r with r the Q-letters after the last J-letter.  A
# block with no K- (no J-) letter is P^k (Q^k).  With s = 1 the tropical
# power s^k is k, and a missing count is 0: K = P^0 K, J = J Q^0, E = P^0.

def _P(k):
    return ((k, NEG_INF), (NEG_INF, 0))


def _Q(k):
    return ((0, NEG_INF), (NEG_INF, k))


def _PK(ell):
    return ((NEG_INF, ell), (NEG_INF, 0))


def _JQ(r):
    return ((0, r), (NEG_INF, NEG_INF))


def _invariants(w: AWord):
    """From one invariant key: ev, {(a, b): l} for the lpi triples and
    {(b, a): r} for the rpi triples."""
    ev, lp, rp = invariant_key(w)
    return ev, {(a, b): l for a, b, l in lp}, {(b, a): r for b, a, r in rp}


def phi2_closed(w: AWord) -> UTMatrix:
    """phi2 from (ev, lpi, rpi) alone, no letter-by-letter product: the P/K
    block reads (1, 2, l), the 1s before the first 2, and the J/Q block
    reads (2, 1, r), the 2s after the last 1."""
    _check_rank(w, 2)
    (e1, e2), lp, rp = _invariants(w)
    return UTMatrix([((e1,),),
                     _PK(lp.get((1, 2), 0)) if e2 else _P(e1),
                     _JQ(rp.get((2, 1), 0)) if e1 else _Q(e2),
                     ((e2,),)])


def phi3_closed(w: AWord) -> UTMatrix:
    """phi3 from the invariant triple, one precedence triple per 2x2 block.

    lpi holds (a, b, l) when a is the largest letter below b occurring
    before the first b, l counting those a's; rpi holds (b, a, r) when b is
    the smallest letter above a occurring after the last a, r counting those
    b's.  So the blocks [P/K/E] and [E/P/K] (the images of 1/2/3) read
    (1, 2) and (2, 3) of lpi: (2, 3) is there iff a 2 occurs before the
    first 3, as no letter lies between 2 and 3.  [P/K/K] reads (1, f), with
    f whichever of 2 and 3 comes first: it is there iff a 1 occurs before
    the first f, l counting those 1s.  Dually [J/Q/E] and [E/J/Q] read
    (2, 1) and (3, 2) of rpi, and [J/J/Q] reads (3, g), with g whichever of
    1 and 2 comes last: (2, 1) is there iff a 2 follows the last 1, and
    (3, g, r) iff a 3 follows the last g, r counting those 3s.
    """
    _check_rank(w, 3)
    (e1, e2, e3), lp, rp = _invariants(w)
    f = 2 if e2 and (not e3 or (2, 3) in lp) else 3
    g = 2 if e2 and (not e1 or (2, 1) in rp) else 1
    return UTMatrix([((e1,),),
                     _PK(lp.get((1, f), 0)) if e2 or e3 else _P(e1),
                     _PK(lp.get((1, 2), 0)) if e2 else _P(e1),
                     _PK(lp.get((2, 3), 0)) if e3 else _P(e2),
                     ((e2,),),
                     _JQ(rp.get((2, 1), 0)) if e1 else _Q(e2),
                     _JQ(rp.get((3, 2), 0)) if e2 else _Q(e3),
                     _JQ(rp.get((3, g), 0)) if e1 or e2 else _Q(e3),
                     ((e3,),)])


# ---------------------------------------------------------------------------
# Rank n >= 4: pairs of rank-3 elements, one per index pair (i, j)
# ---------------------------------------------------------------------------

class PairElement(NamedTuple):
    first: BaxtElement
    second: BaxtElement


def pair_sharp(p: PairElement) -> PairElement:
    """(e1, e2)# = (e2#, e1#)."""
    return PairElement(sharp(p.second), sharp(p.first))


def _interval(a: int, b: int, lo: int, hi: int) -> dict[int, tuple]:
    """The letter map lo -> a, hi -> b, every letter strictly between them
    -> b a; letters missing from the dict map to the empty word."""
    return {lo: (a,), **dict.fromkeys(range(lo + 1, hi), (b, a)), hi: (b,)}


def _letter_pair_words(n: int, i: int, j: int) -> dict[int, tuple[tuple, tuple]]:
    """For each letter k of 1..n, the pair of rank-3 words it maps to under
    the (i, j) component map.  The maps are chosen from the sorted points s
    of {i, j, i#, j#}, where i# = n+1-i and j# = n+1-j: with 2 points both
    components are the interval map 1/3 on i..j; with 3 points, or 4 with i
    and j on the same side of the centre, they are 1/2 on s0..s1 and 2/3 on
    s[-2]..s[-1]; with 4 points on opposite sides, 1/2 on s0..s2 and 2/3 on
    s1..s3."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    s = sorted({i, j, n + 1 - i, n + 1 - j})
    if len(s) == 2:
        first = second = _interval(1, 3, i, j)
    elif len(s) == 4 and (2 * i <= n) != (2 * j <= n):
        first, second = _interval(1, 2, s[0], s[2]), _interval(2, 3, s[1], s[3])
    else:
        first, second = _interval(1, 2, s[0], s[1]), _interval(2, 3, s[-2], s[-1])
    return {k: (first.get(k, ()), second.get(k, ())) for k in range(1, n + 1)}


def phi_ij(w: AWord, i: int, j: int) -> PairElement:
    """The (i, j) component: evaluate the selected letter map over w."""
    if w.rank < 4:
        raise RankMismatchError("component maps are for rank >= 4; use phi1..phi3")
    table = _letter_pair_words(w.rank, i, j)
    first: list[int] = []
    second: list[int] = []
    for a in w.symbols:
        fa, sa = table[a]
        first.extend(fa)
        second.extend(sa)
    return PairElement(canonical(AWord(tuple(first), 3)),
                       canonical(AWord(tuple(second), 3)))


@dataclass(frozen=True)
class TupleElement:
    """Image of a rank-n word: one PairElement per (i, j), 1 <= i < j <= n."""

    rank: int
    coords: tuple  # tuple of ((i, j), PairElement), lexicographic in (i, j)


def index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def phi_n(w: AWord) -> TupleElement:
    if w.rank < 4:
        raise RankMismatchError("phi_n needs rank >= 4; use phi1..phi3")
    n = w.rank
    coords = tuple(((i, j), phi_ij(w, i, j)) for (i, j) in index_pairs(n))
    return TupleElement(n, coords)


def tuple_equal(t1: TupleElement, t2: TupleElement) -> bool:
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    return t1.coords == t2.coords


def tuple_sharp(t: TupleElement) -> TupleElement:
    return TupleElement(t.rank, tuple((ij, pair_sharp(p)) for ij, p in t.coords))


def materialize(t: TupleElement) -> UTMatrix:
    """Flatten the tuple to one matrix: first components in lexicographic
    (i, j) order, then second components in reverse lexicographic order, each
    through the rank-3 representation, assembled block diagonally.

    With this arrangement skew transposition of the matrix matches the tuple
    involution: materialize(t#) == skew_transpose(materialize(t)).
    """
    firsts = [p.first for _, p in t.coords]
    seconds = [p.second for _, p in reversed(t.coords)]
    return block_diag(phi3(e.representative) for e in firsts + seconds)


def tuple_to_json_obj(t: TupleElement):
    return {
        "n": t.rank,
        "coords": [
            {"i": i, "j": j,
             "first": element_to_json_obj(p.first),
             "second": element_to_json_obj(p.second)}
            for (i, j), p in t.coords
        ],
    }

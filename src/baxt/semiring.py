"""The integer tropical semiring and block-diagonal upper triangular matrices.

The semiring is (Z u {-inf}, max, +): exact, idempotent, commutative, with 1
as an element of infinite multiplicative order (1^k = k).  Every matrix the
package builds is block diagonal with small upper triangular blocks, so a
UTMatrix stores only its diagonal blocks; every entry outside them is -inf.
Products go block by block, and every image the package builds has 1x1 and
2x2 blocks only, so those two sizes have unrolled products; a generic loop
takes larger dense blocks.  The skew transposition (reflection across the
secondary diagonal), an involution antihomomorphism on upper triangular
matrices, reverses the block order and skews each block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

from .words import _int_at_least

NEG_INF = float("-inf")


def add(a, b):
    """Tropical sum: the maximum; -inf is its identity."""
    return a if a >= b else b


def mul(a, b):
    """Tropical product: the integer sum; 0 is its identity and -inf absorbs.
    Values are arbitrary-precision ints, so products cannot silently wrap."""
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


@dataclass(frozen=True, eq=False, repr=False)
class UTMatrix:
    """Square upper triangular matrix stored as its diagonal blocks.

    ``blocks`` is a tuple of square upper triangular blocks, each a tuple of
    row tuples of ints (bool excluded) or -inf; every entry outside the
    blocks is -inf.  A dense matrix is a single block.  Equality and hashing
    compare the matrices themselves, whatever the block split.  Matrices are
    immutable.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(tuple(row) for row in b) for b in self.blocks)
        for b in blocks:
            for i, row in enumerate(b):
                if len(row) != len(b):
                    raise ValueError("blocks must be square")
                for x in row:
                    if isinstance(x, bool) or not (isinstance(x, int) or x == NEG_INF):
                        raise ValueError(f"entry {x!r} is not an int or -inf")
                if any(x != NEG_INF for x in row[:i]):
                    raise ValueError(f"block entry in row {i} below the diagonal "
                                     "is not -inf")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _of(cls, blocks: tuple) -> "UTMatrix":
        """Wrap blocks that are square and upper triangular by construction."""
        m = object.__new__(cls)
        object.__setattr__(m, "blocks", blocks)
        return m

    @property
    def sizes(self) -> tuple:
        return tuple(map(len, self.blocks))

    @property
    def dim(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def rows(self) -> tuple:
        """The dense rows; built on each access."""
        return _dense(self.blocks)

    def _entries(self):
        """(i, j, x) for every entry x != -inf, in row-major order."""
        off = 0
        for b in self.blocks:
            for i, row in enumerate(b, off):
                for j, x in enumerate(row, off):
                    if x != NEG_INF:
                        yield i, j, x
            off += len(b)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i},{j}) outside a {self.dim}x{self.dim} matrix")
        off = 0
        for b in self.blocks:
            if i < off + len(b):
                return b[i - off][j - off] if off <= j < off + len(b) else NEG_INF
            off += len(b)

    def __eq__(self, other):
        if not isinstance(other, UTMatrix):
            return NotImplemented
        return self.dim == other.dim and tuple(self._entries()) == tuple(other._entries())

    def __hash__(self):
        return hash(tuple(self._entries()))

    def __repr__(self):
        return f"UTMatrix({self.blocks!r})"

    def __str__(self):
        return "\n".join(" ".join(_fmt_entry(x) for x in row) for row in self.rows)


def _fmt_entry(x) -> str:
    return "-inf" if x == NEG_INF else str(x)


def _dense(blocks) -> tuple:
    """Rows of the block diagonal matrix with the given blocks."""
    n = sum(map(len, blocks))
    rows = []
    off = 0
    for b in blocks:
        pad = (NEG_INF,) * (n - off - len(b))
        rows.extend((NEG_INF,) * off + row + pad for row in b)
        off += len(b)
    return tuple(rows)


def from_rows(rows) -> UTMatrix:
    """A matrix from its dense rows, kept as one block."""
    return UTMatrix([rows])


def identity_matrix(n: int) -> UTMatrix:
    return UTMatrix._of((((0,),),) * _int_at_least(n, 0, "size"))


def scalar(value) -> UTMatrix:
    """A 1x1 block."""
    return UTMatrix([[[value]]])


def _product1(blocks) -> tuple:
    """Product of a sequence of 1x1 blocks: the sum of their entries, or
    -inf if one of them is -inf."""
    acc = 0
    for ((x,),) in blocks:
        acc = acc + x if acc != NEG_INF != x else NEG_INF
    return ((acc,),)


def _product2(blocks) -> tuple:
    """Product of a sequence of 2x2 upper triangular blocks, unrolled.  The
    running product ((p, q), (-inf, r)) times ((x, y), (-inf, z)) is
    ((p x, p y + q z), (-inf, r z)), tropically.  Each -inf test comes
    before the sum it guards: an int beyond float range plus -inf raises
    OverflowError."""
    p, q, r = 0, NEG_INF, 0
    for (x, y), (_, z) in blocks:
        pq = p + y if p != NEG_INF != y else NEG_INF
        if q != NEG_INF != z and q + z > pq:
            pq = q + z
        q = pq
        p = p + x if p != NEG_INF != x else NEG_INF
        r = r + z if r != NEG_INF != z else NEG_INF
    return ((p, q), (NEG_INF, r))


def _dense_mul(a: tuple, b: tuple) -> tuple:
    """Product of two upper triangular blocks of one size: C[i][j] is the
    tropical sum over i <= k <= j of A[i][k] * B[k][j].  Only blocks larger
    than 2x2 come here: dense matrices and merged blocks."""
    n = len(a)
    rows = []
    for i in range(n):
        arow = a[i]
        crow = [NEG_INF] * n
        for j in range(i, n):
            acc = NEG_INF
            for k in range(i, j + 1):
                x, y = arow[k], b[k][j]
                if x != NEG_INF and y != NEG_INF and x + y > acc:
                    acc = x + y
            crow[j] = acc
        rows.append(tuple(crow))
    return tuple(rows)


def _product(blocks, k: int) -> tuple:
    """Product of a sequence of k x k upper triangular blocks, in order.  For
    k = 1 and 2 the empty product is the identity; larger blocks come only
    in pairs, from mat_mul."""
    if k == 1:
        return _product1(blocks)
    if k == 2:
        return _product2(blocks)
    return reduce(_dense_mul, blocks)


def _regroup(A: UTMatrix, cuts: set) -> tuple:
    """A's blocks merged so that block boundaries fall only on ``cuts``."""
    out, group, off = [], [], 0
    for b in A.blocks:
        group.append(b)
        off += len(b)
        if off in cuts:
            out.append(group[0] if len(group) == 1 else _dense(group))
            group = []
    return tuple(out)


def mat_mul(A: UTMatrix, B: UTMatrix) -> UTMatrix:
    """Block by block when A and B share a block split; otherwise both are
    first merged up to the block boundaries they share."""
    a, b = A.blocks, B.blocks
    sa, sb = A.sizes, B.sizes
    if sa != sb:
        if sum(sa) != sum(sb):
            raise ValueError(f"dimension mismatch: {sum(sa)} vs {sum(sb)}")
        cuts = set(accumulate(sa)) & set(accumulate(sb))
        a, b = _regroup(A, cuts), _regroup(B, cuts)
    return UTMatrix._of(tuple(_product(pair, len(pair[0])) for pair in zip(a, b)))


def skew_transpose(A: UTMatrix) -> UTMatrix:
    """Reflect across the secondary diagonal: (A^D)[i][j] = A[n-1-j][n-1-i].
    The block order reverses and each block is reflected the same way."""
    def skew(b):
        k = len(b)
        return tuple(tuple(b[k - 1 - j][k - 1 - i] for j in range(k)) for i in range(k))
    return UTMatrix._of(tuple(skew(b) for b in reversed(A.blocks)))


def block_diag(matrices) -> UTMatrix:
    """Block diagonal assembly: the blocks of each matrix in turn.
    diag{} is 0x0."""
    return UTMatrix._of(tuple(b for m in matrices for b in m.blocks))


# The four 2x2 generator blocks used by every representation in this package.

def gen_P() -> UTMatrix:
    return from_rows([[1, NEG_INF], [NEG_INF, 0]])


def gen_Q() -> UTMatrix:
    return from_rows([[0, NEG_INF], [NEG_INF, 1]])


def gen_J() -> UTMatrix:
    return from_rows([[0, 0], [NEG_INF, NEG_INF]])


def gen_K() -> UTMatrix:
    return from_rows([[NEG_INF, 0], [NEG_INF, 0]])


def matrix_to_json(A: UTMatrix) -> str:
    entries = [["-inf" if x == NEG_INF else x for x in row] for row in A.rows]
    return json.dumps({"dim": A.dim, "entries": entries}, separators=(",", ":"))

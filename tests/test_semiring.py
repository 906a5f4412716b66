import json
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from baxt.represent import generator_images
from baxt.semiring import (NEG_INF, UTMatrix, _dense_mul, add, block_diag,
                           from_rows, gen_J, gen_K, gen_P, gen_Q,
                           identity_matrix, mat_mul, matrix_to_json, mul,
                           scalar, skew_transpose)

tvals = st.one_of(st.just(NEG_INF), st.integers(-50, 50))


# --- dense reference: the O(d^3) product on full rows -----------------------

def dense_mul(a, b):
    """C[i][j] = add over k of A[i][k] * B[k][j]; only k in i..j contributes."""
    n = len(a)
    return tuple(
        tuple(reduce(add, (mul(a[i][k], b[k][j]) for k in range(i, j + 1)), NEG_INF)
              if j >= i else NEG_INF for j in range(n))
        for i in range(n))


def dense_skew(a):
    n = len(a)
    return tuple(tuple(a[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n))


def dense_diag(a, b):
    n, m = len(a), len(b)
    return (tuple(row + (NEG_INF,) * m for row in a)
            + tuple((NEG_INF,) * n + row for row in b))


@st.composite
def ut_blocks(draw, k):
    return [[draw(tvals) if j >= i else NEG_INF for j in range(k)]
            for i in range(k)]


@st.composite
def block_matrices(draw, dim=None):
    """A random upper triangular matrix of the given (or a random) dimension,
    stored with a random block split; entries between blocks are -inf."""
    if dim is None:
        dim = draw(st.integers(0, 7))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    return UTMatrix([draw(ut_blocks(k)) for k in sizes])


@st.composite
def matrix_pairs(draw):
    dim = draw(st.integers(0, 7))
    return draw(block_matrices(dim)), draw(block_matrices(dim))


@given(tvals, tvals, tvals)
def test_tropical_axioms(a, b, c):
    assert add(a, a) == a
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, NEG_INF) == NEG_INF
    assert add(a, NEG_INF) == a
    assert mul(a, 0) == a


@given(matrix_pairs())
def test_blockwise_ops_match_the_dense_reference(pair):
    A, B = pair
    assert mat_mul(A, B).rows == dense_mul(A.rows, B.rows)
    assert skew_transpose(A).rows == dense_skew(A.rows)
    assert block_diag([A, B]).rows == dense_diag(A.rows, B.rows)
    dense = from_rows(A.rows)
    assert dense == A and hash(dense) == hash(A)
    assert (A == B) == (A.rows == B.rows)
    assert all(A[i, j] == A.rows[i][j] for i in range(A.dim) for j in range(A.dim))


def test_mixed_block_splits():
    E6 = identity_matrix(6)
    for g in generator_images(2).values():
        assert mat_mul(E6, g) == g == mat_mul(g, E6)
        assert mat_mul(E6, g).rows == dense_mul(E6.rows, g.rows)
        assert mat_mul(from_rows(g.rows), g).rows == dense_mul(g.rows, g.rows)


# entries that the block product must keep exact: -inf absorbs a sum even
# next to an int far beyond float range, where int + -inf raises
KERNEL_VALUES = (NEG_INF, NEG_INF, 0, 1, -7, 10**400, -10**400)


def seeded_block(rng, k):
    return tuple(tuple(rng.choice(KERNEL_VALUES) if j >= i else NEG_INF
                       for j in range(k)) for i in range(k))


def test_block_products_match_the_dense_reference():
    rng = random.Random(11)
    for k in (1, 2, 3):
        unit = identity_matrix(k).rows
        for _ in range(3000):
            a, b = seeded_block(rng, k), seeded_block(rng, k)
            assert _dense_mul(a, b) == dense_mul(a, b), (a, b)
        for length in list(range(6)) * 40:
            seq = [seeded_block(rng, k) for _ in range(length)]
            assert reduce(_dense_mul, seq, unit) == reduce(dense_mul, seq, unit), seq


def test_below_diagonal_entry_rejected():
    with pytest.raises(ValueError):
        UTMatrix([[[0]], [[1, NEG_INF], [3, 0]]])


def test_entries_are_ints_or_neg_inf():
    for bad in (1.5, float("nan"), float("inf"), True, "a"):
        with pytest.raises(ValueError):
            from_rows([[bad]])
    big = from_rows([[10**400]])
    assert mat_mul(big, big)[0, 0] == 2 * 10**400
    assert from_rows([[NEG_INF]])[0, 0] == NEG_INF


def test_negative_identity_size_rejected():
    with pytest.raises(ValueError, match="size must be >= 0, got -1"):
        identity_matrix(-1)
    assert identity_matrix(0).dim == 0


def test_matrices_are_immutable():
    m = block_diag([gen_P(), identity_matrix(2)])
    key = {m: "m"}
    with pytest.raises(AttributeError):
        m.blocks = identity_matrix(4).blocks
    with pytest.raises(AttributeError):
        del m.blocks
    assert key[from_rows(m.rows)] == "m"


def test_matrices_survive_pickle():
    m = block_diag([gen_P(), scalar(3), gen_K()])
    back = pickle.loads(pickle.dumps(m))
    assert back == m and hash(back) == hash(m)
    assert back.blocks == m.blocks and back.sizes == (2, 1, 2)
    with pytest.raises(AttributeError):
        back.blocks = ()


def test_generator_products():
    PQ = mat_mul(gen_P(), gen_Q())
    assert PQ.rows == ((1, NEG_INF), (NEG_INF, 1))
    JK = mat_mul(gen_J(), gen_K())
    assert JK.rows == ((NEG_INF, 0), (NEG_INF, NEG_INF))


def test_identity_is_neutral():
    A = gen_J()
    E = identity_matrix(2)
    assert mat_mul(E, A) == A == mat_mul(A, E)


def test_skew_transpose_examples():
    assert skew_transpose(gen_P()) == gen_Q()
    assert skew_transpose(gen_J()) == gen_K()
    E = identity_matrix(4)
    assert skew_transpose(E) == E


@given(block_matrices())
def test_skew_transpose_involution(A):
    assert skew_transpose(skew_transpose(A)) == A


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(tvals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(tvals, min_size=n, max_size=n), min_size=n, max_size=n))))
def test_skew_antihomomorphism(pair):
    rows_a, rows_b = pair
    n = len(rows_a)
    mask = lambda rows: [[rows[i][j] if j >= i else NEG_INF for j in range(n)]
                         for i in range(n)]
    A, B = from_rows(mask(rows_a)), from_rows(mask(rows_b))
    assert skew_transpose(mat_mul(A, B)) == mat_mul(skew_transpose(B),
                                                    skew_transpose(A))


def test_block_diag():
    E2 = identity_matrix(2)
    assert block_diag([E2, E2]) == identity_matrix(4)
    assert block_diag([from_rows(E2.rows)] * 2) == identity_matrix(4)
    assert block_diag([]).dim == 0
    m = block_diag([scalar(1), gen_P(), gen_J(), scalar(0)])
    assert m.dim == 6
    assert m[0, 0] == 1 and m[3, 4] == 0 and m[0, 1] == NEG_INF


def test_upper_triangularity_enforced():
    with pytest.raises(ValueError):
        from_rows([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        mat_mul(gen_P(), identity_matrix(3))


def test_s_power_injectivity():
    # tropical s = 1, so s^k = k: all powers up to 1e6 are distinct
    acc = 0
    prev = None
    for k in range(1, 1_000_001):
        acc = mul(acc, 1)
        assert acc != prev
        prev = acc
    assert acc == 1_000_000
    # the (1,1) entry of (PQ)^k is s^k; square twenty times for k = 2^20
    M = mat_mul(gen_P(), gen_Q())
    for _ in range(20):
        M = mat_mul(M, M)
    assert M[0, 0] == 1 << 20


def test_no_overflow():
    big = scalar(2**200)
    assert mat_mul(big, big)[0, 0] == 2**201


def test_matrix_json_roundtrip():
    A = block_diag([mat_mul(gen_P(), gen_K()), scalar(3)])
    obj = json.loads(matrix_to_json(A))
    assert obj["dim"] == A.dim == 3
    assert from_rows([[NEG_INF if x == "-inf" else x for x in row]
                      for row in obj["entries"]]) == A
    assert '"-inf"' in matrix_to_json(A)

"""Bit-packed GF(2) linear algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqlab.errors import DimensionError, RankError, SingularMatrix
from pqlab.f2linalg import (
    BinMatrix,
    BinVector,
    PermMatrix,
    RowSolver,
    invert,
    mat_mul,
    mat_vec_mul,
    null_space,
    rank,
    random_invertible,
    random_permutation,
    random_weight_vector,
    rref,
    vec_mat_mul,
)


# -- vectors --


def test_vector_construction_and_bits():
    v = BinVector.from_bits([1, 0, 1, 1, 0])
    assert v.n == 5
    assert v.bits == 0b01101
    assert v.to_bits() == [1, 0, 1, 1, 0]
    assert v.weight() == 3
    assert v.support() == [0, 2, 3]
    assert BinVector.from_support(5, [0, 2, 3]) == v


def test_vector_addition_is_xor():
    a = BinVector.from_bits([1, 1, 0, 0])
    b = BinVector.from_bits([1, 0, 1, 0])
    assert (a + b).to_bits() == [0, 1, 1, 0]
    assert a - b == a + b
    with pytest.raises(DimensionError):
        a + BinVector(3)


def test_vector_bounds():
    with pytest.raises(DimensionError):
        BinVector(3, 0b1000)
    with pytest.raises(DimensionError):
        BinVector.from_support(3, [3])
    v = BinVector(4, 0b1010)
    assert v[1] == 1 and v[0] == 0
    with pytest.raises(IndexError):
        v[4]
    assert len(v) == 4


# -- matrices --


def test_matrix_row_packing():
    m = BinMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.data == [0b101, 0b110]
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
    assert m.entry(0, 2) == 1
    assert m.row(1) == BinVector.from_bits([0, 1, 1])
    with pytest.raises(DimensionError):
        BinMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(DimensionError):
        BinMatrix(1, 2, [0b100])


def test_matrix_transpose_involution(rng):
    for _ in range(20):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = BinMatrix(rows, cols, [rng.randrange(1 << cols) for _ in range(rows)])
        assert m.transpose().transpose() == m


def test_mat_mul_identity(rng):
    m = BinMatrix(4, 6, [rng.randrange(64) for _ in range(4)])
    assert mat_mul(m, BinMatrix.identity(6)) == m
    assert mat_mul(BinMatrix.identity(4), m) == m
    with pytest.raises(DimensionError):
        mat_mul(m, BinMatrix.identity(4))


def test_vec_mat_associativity(rng):
    # (v.A).B == v.(AxB)
    for _ in range(30):
        v = BinVector(5, rng.randrange(32))
        a = BinMatrix(5, 7, [rng.randrange(128) for _ in range(5)])
        b = BinMatrix(7, 4, [rng.randrange(16) for _ in range(7)])
        assert vec_mat_mul(vec_mat_mul(v, a), b) == vec_mat_mul(v, mat_mul(a, b))


def test_mat_vec_mul_is_row_dot(rng):
    a = BinMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    v = BinVector.from_bits([1, 1, 1])
    # A.v^T: row i dot v
    assert mat_vec_mul(a, v).to_bits() == [0, 0]
    with pytest.raises(DimensionError):
        mat_vec_mul(a, BinVector(2))


def test_rank_and_invert(rng):
    for _ in range(20):
        m = random_invertible(5, rng)
        assert rank(m) == 5
        inv = invert(m)
        assert mat_mul(m, inv) == BinMatrix.identity(5)
        assert mat_mul(inv, m) == BinMatrix.identity(5)


def test_invert_singular():
    m = BinMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        invert(m)
    assert rank(m) == 1


def test_invert_requires_square():
    with pytest.raises(SingularMatrix):
        invert(BinMatrix(2, 3, [0, 0]))


def test_rref_pivots(rng):
    m = BinMatrix.from_rows([[0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    red, pivots = rref(m)
    assert pivots == [1, 2]  # rank 2: row3 = row1 + row2
    # zero rows are dropped: only rank rows remain
    assert red.rows == 2
    # pivot columns hold a lone 1
    for r_idx, c in enumerate(pivots):
        assert red.entry(r_idx, c) == 1
        for other in range(red.rows):
            if other != r_idx:
                assert red.entry(other, c) == 0


def test_null_space_orthogonal_and_complete(rng):
    for _ in range(20):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(rows, 9)
        m = BinMatrix(rows, cols, [rng.randrange(1 << cols) for _ in range(rows)])
        ns = null_space(m)
        assert ns.rows == cols - rank(m)
        for i in range(ns.rows):
            # every null-space row is orthogonal to every row of m
            prod = mat_vec_mul(m, ns.row(i))
            assert prod.bits == 0
        # null-space rows are independent
        if ns.rows:
            assert rank(ns) == ns.rows


# -- permutations --


def test_perm_entries_and_from_cols():
    cols = [2, 0, 3, 1]
    p = PermMatrix.from_cols(cols)
    m = p.to_matrix()
    for j, i in enumerate(cols):
        assert m.entry(i, j) == 1
    # matrix column j is e_{cols[j]}
    assert sum(m.data[r].bit_count() for r in range(4)) == 4


def test_perm_vec_roundtrip(rng):
    for _ in range(20):
        p = random_permutation(8, rng)
        v = BinVector(8, rng.randrange(256))
        assert p.apply_vec_inverse(p.apply_vec(v)) == v
        assert p.apply_vec(p.apply_vec_inverse(v)) == v
        # matrix route agrees
        assert vec_mat_mul(v, p.to_matrix()) == p.apply_vec(v)


def test_perm_preserves_weight(rng):
    p = random_permutation(10, rng)
    for _ in range(20):
        v = BinVector(10, rng.randrange(1 << 10))
        assert p.apply_vec(v).weight() == v.weight()


def test_perm_inverse_and_compose(rng):
    p = random_permutation(6, rng)
    q = random_permutation(6, rng)
    assert p.compose(p.inverse()) == PermMatrix.identity(6)
    v = BinVector(6, 0b101101 & ((1 << 6) - 1))
    # compose applies self first: v.(PxQ) = (v.P).Q
    assert p.compose(q).apply_vec(v) == q.apply_vec(p.apply_vec(v))


def test_perm_apply_mat_is_matrix_product(rng):
    p = random_permutation(7, rng)
    a = BinMatrix(3, 7, [rng.randrange(128) for _ in range(3)])
    assert p.apply_mat(a) == mat_mul(a, p.to_matrix())


def test_perm_validation():
    with pytest.raises(DimensionError):
        PermMatrix([0, 0, 1])
    with pytest.raises(DimensionError):
        PermMatrix([0, 2])


# -- random generators --


def test_random_invertible_deterministic():
    import random as _r

    a = random_invertible(6, _r.Random(3))
    b = random_invertible(6, _r.Random(3))
    assert a == b
    assert rank(a) == 6


def test_random_weight_vector(rng):
    for t in range(0, 5):
        v = random_weight_vector(10, t, rng)
        assert v.n == 10
        assert v.weight() == t
    with pytest.raises(DimensionError):
        random_weight_vector(4, 5, rng)


# -- row solver --


def test_row_solver_solves_combinations(rng):
    g = random_invertible(5, rng)
    solver = RowSolver(g)
    for _ in range(20):
        x = BinVector(5, rng.randrange(32))
        y = vec_mat_mul(x, g)
        assert solver.solve(y) == x


def test_row_solver_rejects_off_row_space(rng):
    # 2 x 4 full-rank G: half of GF(2)^4 lies outside the row space
    g = BinMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 1]])
    solver = RowSolver(g)
    words = {vec_mat_mul(BinVector(2, m), g).bits for m in range(4)}
    for y_bits in range(16):
        y = BinVector(4, y_bits)
        if y_bits in words:
            x = solver.solve(y)
            assert vec_mat_mul(x, g) == y
        else:
            with pytest.raises(RankError):
                solver.solve(y)


def test_row_solver_rank_deficient_matrix():
    g = BinMatrix.from_rows([[1, 1, 0], [1, 1, 0]])
    with pytest.raises(RankError):
        RowSolver(g)


# -- the eliminator against the independent rank --


@st.composite
def matrices(draw, max_dim=10):
    """Square, wide and tall matrices; a product through a narrow inner
    dimension makes singular and rank-deficient shapes common."""
    rows = draw(st.integers(1, max_dim))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, max_dim))
    inner = draw(st.integers(0, max_dim))
    left = [draw(st.integers(0, (1 << inner) - 1)) for _ in range(rows)]
    right = [draw(st.integers(0, (1 << cols) - 1)) for _ in range(inner)]
    return mat_mul(BinMatrix(rows, inner, left), BinMatrix(inner, cols, right))


@given(matrices())
def test_invert_matches_rank(a):
    if a.rows != a.cols or rank(a) < a.rows:
        with pytest.raises(SingularMatrix):
            invert(a)
        return
    inv = invert(a)
    assert mat_mul(a, inv) == BinMatrix.identity(a.rows)
    assert mat_mul(inv, a) == BinMatrix.identity(a.rows)


@given(matrices(), st.data())
def test_row_solver_matches_rank(g, data):
    if rank(g) < g.rows:
        with pytest.raises(RankError):
            RowSolver(g)
        return
    solver = RowSolver(g)
    x = BinVector(g.rows, data.draw(st.integers(0, (1 << g.rows) - 1)))
    assert solver.solve(vec_mat_mul(x, g)) == x


@given(matrices())
def test_rref_and_null_space_match_rank(a):
    red, pivots = rref(a)
    assert len(pivots) == red.rows == rank(a)
    assert rank(red) == red.rows
    ns = null_space(a)
    assert ns.rows == a.cols - len(pivots)
    assert mat_mul(a, ns.transpose()).is_zero()
    if ns.rows:
        assert rank(ns) == ns.rows

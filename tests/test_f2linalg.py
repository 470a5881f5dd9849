"""Bit-packed GF(2) linear algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab import f2linalg
from pqlab.errors import DimensionError, RankError
from pqlab.f2linalg import (
    BinMatrix,
    BinVector,
    PermMatrix,
    RowSolver,
    _rref,
    invert,
    mat_mul,
    mat_vec_mul,
    null_space,
    rank,
    random_invertible,
    random_permutation,
    random_weight_vector,
    transpose,
    vec_mat_mul,
)
from oracles import gauss_jordan, span_rank


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
    assert [[m.entry(i, j) for j in range(3)] for i in range(2)] == [[1, 0, 1], [0, 1, 1]]
    assert m.entry(0, 2) == 1
    assert m.row(1) == BinVector.from_bits([0, 1, 1])
    with pytest.raises(DimensionError):
        BinMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(DimensionError):
        BinMatrix(1, 2, [0b100])


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
    with pytest.raises(RankError):
        invert(m)
    assert rank(m) == 1


def test_invert_requires_square():
    with pytest.raises(DimensionError):
        invert(BinMatrix(2, 3, [0, 0]))


def test_rref_pivots(rng):
    m = BinMatrix.from_rows([[0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    pivots, rows = _rref(m.data, m.cols)
    assert pivots == [1, 2]  # rank 2: row3 = row1 + row2
    # the pivot rows come first, then the zero rows
    assert rows[2] == 0
    # pivot columns hold a lone 1
    for r_idx, c in enumerate(pivots):
        for other in range(2):
            assert (rows[other] >> c) & 1 == (other == r_idx)


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
    m = BinMatrix(4, 4, [1 << j for j in p.perm])
    for j, i in enumerate(cols):
        assert m.entry(i, j) == 1
    # matrix column j is e_{cols[j]}
    assert sum(m.data[r].bit_count() for r in range(4)) == 4


def test_perm_vec_roundtrip(rng):
    for _ in range(20):
        p = random_permutation(8, rng)
        v = BinVector(8, rng.randrange(256))
        forward = vec_mat_mul(v, BinMatrix(8, 8, [1 << j for j in p.perm]))  # v . P
        assert p.apply_vec_inverse(forward) == v
        # the one-row permuted matrix is v . P
        assert p.apply_mat(BinMatrix(1, 8, [v.bits])).data == [forward.bits]


def test_perm_preserves_weight(rng):
    p = random_permutation(10, rng)
    for _ in range(20):
        v = BinVector(10, rng.randrange(1 << 10))
        assert p.apply_vec_inverse(v).weight() == v.weight()


def test_perm_apply_mat_is_matrix_product(rng):
    p = random_permutation(7, rng)
    a = BinMatrix(3, 7, [rng.randrange(128) for _ in range(3)])
    assert p.apply_mat(a) == mat_mul(a, BinMatrix(7, 7, [1 << j for j in p.perm]))


def test_perm_validation():
    with pytest.raises(DimensionError):
        PermMatrix([0, 0, 1])
    with pytest.raises(DimensionError):
        PermMatrix([0, 2])


def test_length_mismatches_rejected():
    # each operand length is checked against the other before any bit moves
    p = PermMatrix([1, 2, 0])
    with pytest.raises(DimensionError):
        vec_mat_mul(BinVector(2), BinMatrix.identity(3))
    with pytest.raises(DimensionError):
        p.apply_vec_inverse(BinVector(4))
    with pytest.raises(DimensionError):
        p.apply_mat(BinMatrix.identity(4))
    with pytest.raises(DimensionError):
        p.apply_columns([0b1, 0b10], 2)
    with pytest.raises(DimensionError):
        BinMatrix(2, 3, [0b101])


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


# -- the eliminator against the span-enumeration rank --
#
# rank is the eliminator's forward pass, so the checks below count against
# span_rank, which enumerates the row span and eliminates nothing.


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


def test_span_rank_oracle():
    assert span_rank(BinMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert span_rank(BinMatrix.zero(3, 4)) == 0
    assert span_rank(BinMatrix.identity(6)) == 6
    rows = [[0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]  # row3 = row1 + row2
    assert span_rank(BinMatrix.from_rows(rows)) == 2


@given(matrices())
def test_rank_matches_span_oracle(a):
    assert rank(a) == span_rank(a)


@given(matrices())
def test_invert_matches_rank(a):
    # a non-square A is a shape error; a square one is singular (RankError)
    # exactly when its rank is below its row count
    if a.rows != a.cols:
        with pytest.raises(DimensionError):
            invert(a)
        return
    if span_rank(a) < a.rows:
        with pytest.raises(RankError):
            invert(a)
        return
    inv = invert(a)
    assert mat_mul(a, inv) == BinMatrix.identity(a.rows)
    assert mat_mul(inv, a) == BinMatrix.identity(a.rows)


@given(matrices(), st.data())
def test_row_solver_matches_rank(g, data):
    # the same tagged pass as invert, forward only: RankError exactly when
    # G's rank is below its row count
    if span_rank(g) < g.rows:
        with pytest.raises(RankError):
            RowSolver(g)
        return
    solver = RowSolver(g)
    x = BinVector(g.rows, data.draw(st.integers(0, (1 << g.rows) - 1)))
    assert solver.solve(vec_mat_mul(x, g)) == x


@given(matrices())
def test_rref_and_null_space_match_rank(a):
    pivots, rows = _rref(a.data, a.cols)
    red = BinMatrix(len(pivots), a.cols, rows[: len(pivots)])
    assert len(pivots) == span_rank(a)
    assert span_rank(red) == red.rows
    assert not any(rows[len(pivots) :])
    ns = null_space(a)
    assert ns.rows == a.cols - len(pivots)
    assert all(mat_vec_mul(a, ns.row(i)).bits == 0 for i in range(ns.rows))
    if ns.rows:
        assert span_rank(ns) == ns.rows


# -- the Four-Russians eliminator against textbook Gauss-Jordan --
#
# The eliminator works in windows of 8 columns; these shapes span several
# windows, with widths off the multiple of 8, zero rows, and columns zeroed
# at random so windows with fewer than 8 pivots fall mid-matrix.


@st.composite
def wide_matrices(draw, max_rows=40, max_cols=70):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    inner = draw(st.integers(0, max_rows))
    left = draw(st.lists(st.integers(0, (1 << inner) - 1), min_size=rows, max_size=rows))
    right = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=inner, max_size=inner))
    data = mat_mul(BinMatrix(rows, inner, left), BinMatrix(inner, cols, right)).data
    keep = draw(st.sampled_from([(1 << cols) - 1, draw(st.integers(0, (1 << cols) - 1))]))
    zero = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    return BinMatrix(rows, cols, [0 if i in zero else r & keep for i, r in enumerate(data)])


def _null_space_oracle(a):
    """Kernel basis from the textbook RREF, bit by bit: for each free column
    f, the vector with 1 at f and entry (i, f) of the RREF at pivot i."""
    reduced, pivots = gauss_jordan(a)
    basis = []
    for f in range(a.cols):
        if f in pivots:
            continue
        v = 1 << f
        for r, p in zip(reduced, pivots):
            v |= ((r >> f) & 1) << p
        basis.append(v)
    return basis


@given(wide_matrices())
def test_eliminator_matches_gauss_jordan(a):
    reduced, pivots = gauss_jordan(a)
    assert _rref(a.data, a.cols) == (pivots, reduced + [0] * (a.rows - len(pivots)))
    assert rank(a) == len(pivots)
    assert null_space(a).data == _null_space_oracle(a)


def test_eliminator_on_dense_matrices(rng):
    # dense rows fill most windows after a short scan, so the table clears
    # rows the scan never reached
    for rows, cols in [(30, 50), (45, 45), (60, 100), (100, 60)]:
        a = BinMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        reduced, pivots = gauss_jordan(a)
        assert _rref(a.data, cols) == (pivots, reduced + [0] * (rows - len(pivots)))
        assert rank(a) == len(pivots)
        assert null_space(a).data == _null_space_oracle(a)


@given(wide_matrices(max_cols=40), st.booleans())
def test_invert_matches_gauss_jordan(a, square_up):
    n = a.rows
    if square_up:  # unit lower triangular, so invertible
        a = BinMatrix(n, n, [(1 << i) ^ (r & ((1 << i) - 1)) for i, r in enumerate(a.data)])
    else:
        a = BinMatrix(n, n, [r & ((1 << n) - 1) for r in a.data])
    # [A | I] reduces to [I | A^-1] exactly when A is invertible
    augmented = BinMatrix(n, 2 * n, [r | 1 << (n + i) for i, r in enumerate(a.data)])
    reduced, pivots = gauss_jordan(augmented)
    if pivots != list(range(n)):
        with pytest.raises(RankError):
            invert(a)
        return
    assert invert(a).data == [r >> n for r in reduced]


@settings(deadline=None)
@given(st.integers(1, 70), st.booleans(), st.randoms(use_true_random=False), st.data())
def test_row_solver_unscrambles_like_gauss_jordan_inverse(k, triangular, rnd, data):
    # m . S = v through the forward factor against v . S^-1, with S^-1 read
    # off the textbook reduction of [S | I]; k crosses several 8-column
    # windows and is often off a multiple of 8.  A random S is singular
    # about 71% of the time, L x U with unit diagonals never
    rows = [rnd.getrandbits(k) for _ in range(k)]
    if triangular:
        low = [(1 << i) | (r & ((1 << i) - 1)) for i, r in enumerate(rows)]
        up = [(1 << i) | (rnd.getrandbits(k) >> (i + 1) << (i + 1)) for i in range(k)]
        rows = mat_mul(BinMatrix(k, k, low), BinMatrix(k, k, up)).data
    s = BinMatrix(k, k, rows)
    augmented = BinMatrix(k, 2 * k, [r | 1 << (k + i) for i, r in enumerate(rows)])
    reduced, pivots = gauss_jordan(augmented)
    if pivots != list(range(k)):
        with pytest.raises(RankError):
            RowSolver(s)
        return
    s_inv = BinMatrix(k, k, [r >> k for r in reduced])
    solver = RowSolver(s)
    for v in data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=4)):
        assert solver.solve(BinVector(k, v)) == vec_mat_mul(BinVector(k, v), s_inv)


def _transpose_oracle(a, cols):
    """Bit i of output row j is bit j of a[i], one bit at a time."""
    return [sum(((a[i] >> j) & 1) << i for i in range(len(a))) for j in range(cols)]


def _bit_rows(rows, cols):
    """rows values below 2^cols, often with the top bit set."""
    top = st.integers((1 << cols) >> 1, (1 << cols) - 1)
    return st.lists(st.integers(0, (1 << cols) - 1) | top, min_size=rows, max_size=rows)


@given(st.integers(0, 70), st.integers(0, 140), st.data())
def test_transpose_moves_every_bit(rows, cols, data):
    a = data.draw(_bit_rows(rows, cols))
    expected = _transpose_oracle(a, cols)
    assert transpose(a, cols) == expected
    assert transpose(expected, rows) == a


# each side empty, one and two byte planes and either side of them, the
# narrow limit and either side of it, and a tile
_EDGE_SIDES = [0, 1, 7, 8, 9, 15, 16, 17, 64]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_transpose_at_the_method_edges(data):
    # every pair of edge sides, each matrix drawn as one int of rows x cols
    # bits, plus a mask of the rows whose top bit is forced on
    for rows in _EDGE_SIDES:
        for cols in _EDGE_SIDES:
            bits = data.draw(st.integers(0, (1 << rows * cols) - 1))
            tops = data.draw(st.integers(0, (1 << rows) - 1)) if cols else 0
            mask = (1 << cols) - 1
            a = [bits >> (i * cols) & mask | (tops >> i & 1) << cols >> 1 for i in range(rows)]
            expected = _transpose_oracle(a, cols)
            assert transpose(a, cols) == expected
            assert transpose(expected, rows) == a


@settings(max_examples=60, deadline=None)
@given(st.integers(65, 200), st.integers(65, 200), st.data())
def test_transpose_in_a_grid_of_tiles(rows, cols, data):
    # with 64-bit tiles both sides span several, so tiles meet in a grid
    a = data.draw(_bit_rows(rows, cols))
    expected = _transpose_oracle(a, cols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2linalg, "_TILE", 64)
        assert transpose(a, cols) == expected
        assert transpose(expected, rows) == a


def test_transpose_edge_shapes():
    assert transpose([], 0) == []
    assert transpose([], 3) == [0, 0, 0]
    assert transpose([0b101], 3) == [1, 0, 1]
    assert transpose([1, 0, 1, 1], 1) == [0b1101]
    assert transpose([0b10, 0b01], 0) == []


@given(st.integers(0, 12), st.integers(0, 30), st.integers(0, 20), st.data())
def test_mat_mul_xors_the_selected_rows(rows, inner, cols, data):
    a = data.draw(st.lists(st.integers(0, (1 << inner) - 1), min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=inner, max_size=inner))
    expected = []
    for r in a:
        acc = 0
        for j in range(inner):
            if (r >> j) & 1:
                acc ^= b[j]
        expected.append(acc)
    product = mat_mul(BinMatrix(rows, inner, a), BinMatrix(inner, cols, b))
    assert (product.rows, product.cols) == (rows, cols)
    assert product.data == expected


# -- the bit-gather kernel against the per-bit definition --


@given(st.integers(1, 300), st.data())
def test_perm_moves_match_the_per_bit_rule(n, data):
    perm = data.draw(st.permutations(range(n)))
    p = PermMatrix(perm)
    v = BinVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    # (v . P)[perm[i]] = v[i], written out bit by bit
    forward = sum(((v.bits >> i) & 1) << perm[i] for i in range(n))
    backward = sum(((v.bits >> perm[i]) & 1) << i for i in range(n))
    assert p.apply_mat(BinMatrix(1, n, [v.bits])).data == [forward]
    assert p.apply_vec_inverse(v).bits == backward
    assert p.apply_vec_inverse(BinVector(n, forward)) == v
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    expected = [sum(((r >> i) & 1) << perm[i] for i in range(n)) for r in rows]
    assert p.apply_mat(BinMatrix(len(rows), n, rows)).data == expected


@given(st.integers(0, 40), st.integers(0, 40), st.randoms(use_true_random=False), st.data())
def test_row_solver_on_full_rank_generators(k, extra, rnd, data):
    # an identity on k random columns, random bits elsewhere: full row rank
    n = k + extra
    cols = rnd.sample(range(n), k)
    free = ((1 << n) - 1) ^ sum(1 << c for c in cols)
    g = BinMatrix(k, n, [(1 << c) | (rnd.getrandbits(n) & free) for c in cols])
    solver = RowSolver(g)
    x = BinVector(k, data.draw(st.integers(0, (1 << k) - 1)))
    y = vec_mat_mul(x, g)
    assert solver.solve(y) == x
    outside = data.draw(st.integers(0, (1 << n) - 1))
    # G holds an identity on cols, so the one candidate message is read there
    read = sum(((outside >> c) & 1) << i for i, c in enumerate(cols))
    if vec_mat_mul(BinVector(k, read), g).bits != outside:
        with pytest.raises(RankError):
            solver.solve(BinVector(n, outside))
    wrong_lengths = [BinVector(n + 1, y.bits), BinVector(n + 1, y.bits | 1 << n)]
    if n:
        wrong_lengths.append(BinVector(n - 1, y.bits & ((1 << (n - 1)) - 1)))
    for wrong in wrong_lengths:
        with pytest.raises(RankError):
            solver.solve(wrong)

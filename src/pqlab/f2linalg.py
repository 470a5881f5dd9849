"""Dense linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers: bit j of a row is
column j.  Bitwise XOR is whole-row addition, which keeps Gauss-Jordan and
multiplication fast at every size this package touches.  Messages are row
vectors and multiply matrices from the left, so every formula reads the way
the cryptosystem equations are written.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import DimensionError, RankError, SingularMatrix


class BinVector:
    """Row vector over GF(2): a bit-packed integer plus a length."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if bits < 0 or bits >> n:
            raise DimensionError(f"bits out of range for length {n}")
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BinVector":
        bits = 0
        n = 0
        for b in seq:
            if b & 1:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_support(cls, n: int, positions: Iterable[int]) -> "BinVector":
        bits = 0
        for p in positions:
            if not 0 <= p < n:
                raise DimensionError(f"position {p} out of range for length {n}")
            bits |= 1 << p
        return cls(n, bits)

    def to_bits(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        return [i for i in range(self.n) if (self.bits >> i) & 1]

    def __add__(self, other: "BinVector") -> "BinVector":
        if self.n != other.n:
            raise DimensionError("vector length mismatch")
        return BinVector(self.n, self.bits ^ other.bits)

    __sub__ = __add__

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinVector)
            and other.n == self.n
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BinVector({self.to_bits()})"


class BinMatrix:
    """Dense GF(2) matrix; data[i] is row i as a bit-packed integer."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        if len(data) != rows:
            raise DimensionError("row count mismatch")
        for r in data:
            if r < 0 or (cols < r.bit_length()):
                raise DimensionError("row value exceeds column count")
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinMatrix":
        if not rows:
            return cls(0, 0, [])
        cols = len(rows[0])
        data = []
        for row in rows:
            if len(row) != cols:
                raise DimensionError("ragged rows")
            bits = 0
            for j, b in enumerate(row):
                if b & 1:
                    bits |= 1 << j
            data.append(bits)
        return cls(len(rows), cols, data)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols, [0] * rows)

    def row(self, i: int) -> BinVector:
        return BinVector(self.cols, self.data[i])

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"BinMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shape mismatch")
        return BinMatrix(
            self.rows, self.cols, [a ^ b for a, b in zip(self.data, other.data)]
        )

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)


def gather(indices: Sequence[int], n: int) -> Callable[[int], int]:
    """Bit picker: maps an n-bit int to the int whose bit i is bit
    indices[i] of the input.

    The input is formatted once as an n-character bit string (most
    significant bit first), one itemgetter picks the characters, and
    int(..., 2) parses them back, so no Python loop runs per bit.
    """
    if not indices:
        return lambda bits: 0
    # output bit i is string position n-1-indices[i]; the string built from
    # the picks is read most significant first, so pick in reverse order
    pick = itemgetter(*[n - 1 - j for j in reversed(indices)])
    fmt = f"0{n}b"
    join = "".join  # one pick is a 1-char str, which joins like a tuple
    return lambda bits: int(join(pick(format(bits, fmt))), 2)


def _xor_rows(rows: Sequence[int], bits: int) -> int:
    """XOR of rows[j] over the set bits j of `bits`."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """A x B: row i of the product XORs the rows of B selected by row i of A."""
    if a.cols != b.rows:
        raise DimensionError(f"inner dimensions {a.cols} != {b.rows}")
    return BinMatrix(a.rows, b.cols, [_xor_rows(b.data, r) for r in a.data])


def vec_mat_mul(v: BinVector, a: BinMatrix) -> BinVector:
    """v . A with v a row vector."""
    if v.n != a.rows:
        raise DimensionError(f"vector length {v.n} != row count {a.rows}")
    return BinVector(a.cols, _xor_rows(a.data, v.bits))


def mat_vec_mul(a: BinMatrix, v: BinVector) -> BinVector:
    """A . v^T, returned as a length-rows vector (used for parity checks)."""
    if v.n != a.cols:
        raise DimensionError(f"vector length {v.n} != column count {a.cols}")
    out = 0
    for i, r in enumerate(a.data):
        if (r & v.bits).bit_count() & 1:
            out |= 1 << i
    return BinVector(a.rows, out)


def rank(a: BinMatrix) -> int:
    rows = [r for r in a.data if r]
    rk = 0
    while rows:
        pivot = rows.pop()
        rk += 1
        low = pivot & -pivot
        rows = [(r ^ pivot if r & low else r) for r in rows]
        rows = [r for r in rows if r]
    return rk


def _rref(rows: list[int], cols: int) -> list[int]:
    """Gauss-Jordan on the low `cols` bits of each row, in place.

    Bits at and above `cols` ride along with their row, so reducing a packed
    [A | T] reduces A and applies the same row operations to T.  Returns the
    pivot columns; rows[:len(pivots)] are the pivot rows, and every later row
    is zero in its low `cols` bits.
    """
    pivots = []
    n = len(rows)
    r = 0
    for col in range(cols):
        if r == n:
            break
        mask = 1 << col
        for i in range(r, n):
            if rows[i] & mask:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pr = rows[r]
        for i in range(n):
            if i != r and rows[i] & mask:
                rows[i] ^= pr
        pivots.append(col)
        r += 1
    return pivots


def _reduce_with_identity(a: BinMatrix) -> tuple[list[int], list[int]]:
    """Reduce A with an identity tagging along; returns (pivots, U) with
    U x A = rref(A) padded by zero rows."""
    shift = a.cols
    rows = [r | (1 << (shift + i)) for i, r in enumerate(a.data)]
    pivots = _rref(rows, shift)
    return pivots, [r >> shift for r in rows]


def invert(a: BinMatrix) -> BinMatrix:
    """Gauss-Jordan inverse over GF(2)."""
    if a.rows != a.cols:
        raise SingularMatrix("only square matrices can be inverted")
    pivots, inv = _reduce_with_identity(a)
    if len(pivots) < a.rows:
        raise SingularMatrix(f"matrix is singular (rank {len(pivots)} < {a.rows})")
    return BinMatrix(a.rows, a.rows, inv)


def rref(a: BinMatrix) -> tuple[BinMatrix, list[int]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    rows = list(a.data)
    pivots = _rref(rows, a.cols)
    return BinMatrix(len(pivots), a.cols, rows[: len(pivots)]), pivots


def null_space(a: BinMatrix) -> BinMatrix:
    """Basis of the right kernel {x : A . x^T = 0}, one row per basis vector.

    Rows come out in free-column order with an identity pattern on the free
    columns, so solving v . K = y for a kernel matrix K is a column lookup.
    """
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [j for j in range(a.cols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        v = fm = 1 << f
        for r, p in zip(reduced.data, pivots):
            if r & fm:
                v |= 1 << p
        basis.append(v)
    return BinMatrix(len(basis), a.cols, basis)


class PermMatrix:
    """Permutation matrix stored as an index sequence.

    perm[i] is the image of basis vector e_i, i.e. entry (i, perm[i]) is 1.
    For a row vector v, (v . P)[perm[i]] = v[i].
    """

    __slots__ = ("perm", "_fwd", "_bwd")

    def __init__(self, perm: Sequence[int]):
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise DimensionError("not a permutation of 0..n-1")
        self.perm = tuple(perm)
        inv = [0] * n
        for i, j in enumerate(self.perm):
            inv[j] = i
        self._fwd = gather(inv, n)  # v . P: bit j of the result is v[inv[j]]
        self._bwd = gather(self.perm, n)  # v . P^-1: bit i is v[perm[i]]

    @classmethod
    def from_cols(cls, cols: Sequence[int]) -> "PermMatrix":
        """Build from the column description: column j of the matrix is
        basis vector e_cols[j] (an identity matrix with columns scrambled).
        Entry (cols[j], j) = 1, so perm[cols[j]] = j."""
        n = len(cols)
        perm = [0] * n
        for j, i in enumerate(cols):
            perm[i] = j
        return cls(perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply_vec(self, v: BinVector) -> BinVector:
        """v . P"""
        if v.n != self.n:
            raise DimensionError("length mismatch")
        return BinVector(self.n, self._fwd(v.bits))

    def apply_vec_inverse(self, v: BinVector) -> BinVector:
        """v . P^-1 (= v . P^T)"""
        if v.n != self.n:
            raise DimensionError("length mismatch")
        return BinVector(self.n, self._bwd(v.bits))

    def apply_mat(self, a: BinMatrix) -> BinMatrix:
        """A x P (permute columns: new column perm[i] = old column i)."""
        if a.cols != self.n:
            raise DimensionError("column count mismatch")
        return BinMatrix(a.rows, a.cols, list(map(self._fwd, a.data)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermMatrix) and other.perm == self.perm

    def __repr__(self) -> str:
        return f"PermMatrix({list(self.perm)})"


class RowSolver:
    """Solve v . G = y for a fixed full-row-rank G (message recovery)."""

    def __init__(self, g: BinMatrix):
        # u with u x G = rref(G): the pivot rows come first
        pivots, u = _reduce_with_identity(g)
        if len(pivots) != g.rows:
            raise RankError("generator does not have full row rank")
        self.g = g
        self.pivots = pivots
        self.u = BinMatrix(g.rows, g.rows, u)
        self._pick = gather(pivots, g.cols)

    def solve(self, y: BinVector) -> BinVector:
        """Return v with v . G = y; raises RankError if y is outside the row
        space or its length is not G's column count."""
        # y = w . rref(G) with w read off the pivot columns, then v = w . U;
        # the re-encryption check also catches a y of the wrong length
        v = vec_mat_mul(BinVector(self.g.rows, self._pick(y.bits)), self.u)
        if vec_mat_mul(v, self.g) != y:
            raise RankError("vector is not in the row space")
        return v


def random_invertible(k: int, rng: random.Random) -> BinMatrix:
    """Uniform invertible k x k matrix by rejection sampling on the rank."""
    while True:
        m = BinMatrix(k, k, [rng.getrandbits(k) for _ in range(k)])
        if rank(m) == k:
            return m


def random_permutation(n: int, rng: random.Random) -> PermMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return PermMatrix(perm)


def random_weight_vector(n: int, t: int, rng: random.Random) -> BinVector:
    """Uniform vector of weight exactly t."""
    if not 0 <= t <= n:
        raise DimensionError(f"weight {t} out of range for length {n}")
    return BinVector.from_support(n, rng.sample(range(n), t))

"""Dense linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers: bit j of a row is
column j.  Bitwise XOR is whole-row addition.  Elimination is one pass of
the Method of Four Russians (Bard; Albrecht, Bard and Hart): 8 columns at a
time, a 256-entry table of the window's pivot combinations clears every
other row with one lookup, and products use the same tables.  `invert` and
`RowSolver` share one tagged pass of [A | I] (full for the inverse, forward
for the solver's factor), and a rank below the row count is a RankError in
both.  Every bit reshape of the package goes through one transpose kernel:
column moves, bit lists, and the bit-sliced field elements and ring
residues of the other modules.  Messages are row vectors and multiply
matrices from the left, so every formula reads the way the cryptosystem
equations are written.
"""

from __future__ import annotations

import random
import struct
from functools import reduce
from itertools import compress
from operator import itemgetter, xor
from typing import Callable, Iterable, Sequence

from .errors import DimensionError, RankError


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
        """The vector whose entry i is seq[i], each 0 or 1."""
        bits = list(seq)
        return cls(len(bits), transpose(bits, 1)[0])

    @classmethod
    def from_support(cls, n: int, positions: Iterable[int]) -> "BinVector":
        bits = 0
        for p in positions:
            if not 0 <= p < n:
                raise DimensionError(f"position {p} out of range for length {n}")
            bits |= 1 << p
        return cls(n, bits)

    def to_bits(self) -> list[int]:
        return transpose([self.bits], self.n)

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
        if any(len(row) != cols for row in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), cols, [transpose(row, 1)[0] for row in rows])

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


_PICKS = bytes.maketrans(b"01", b"\x00\x01")  # bit characters to 0/1 bytes


def _xor_rows(rows: Sequence[int], bits: int) -> int:
    """XOR of rows[j] over the set bits j of `bits`.  Past 16 bits, where
    that is faster, bin(bits) reversed, as 0/1 bytes, picks the rows at C
    level; field-element masks (gf2m's packed gcd) take the bit loop."""
    if bits >> 16:
        return reduce(xor, compress(rows, bin(bits).encode().translate(_PICKS)[:1:-1]), 0)
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def _span_table(base: Sequence[int]) -> list[int]:
    """The 2^len(base) XOR combinations of `base`: entry x is the XOR of
    base[j] over the set bits j of x, built by doubling."""
    table = [0]
    for v in base:
        table += [u ^ v for u in table] if v else table
    return table


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """A x B: row i of the product XORs the rows of B selected by row i of A.

    Four Russians: each group of 8 rows of B becomes a 256-entry table of
    its XOR combinations, and one lookup per row of A folds the group in.
    The tables are built one at a time, so only one is alive.
    """
    if a.cols != b.rows:
        raise DimensionError(f"inner dimensions {a.cols} != {b.rows}")
    out = [0] * a.rows
    for g in range(0, b.rows, 8):
        table = _span_table(b.data[g : g + 8])
        out = [o ^ table[(r >> g) & 255] for o, r in zip(out, a.data)]
    return BinMatrix(a.rows, b.cols, out)


def vec_mat_mul(v: BinVector, a: BinMatrix) -> BinVector:
    """v . A with v a row vector."""
    if v.n != a.rows:
        raise DimensionError(f"vector length {v.n} != row count {a.rows}")
    return BinVector(a.cols, _xor_rows(a.data, v.bits))


def mat_vec_mul(a: BinMatrix, v: BinVector) -> BinVector:
    """A . v^T, returned as a length-rows vector (used for parity checks)."""
    if v.n != a.cols:
        raise DimensionError(f"vector length {v.n} != column count {a.cols}")
    bits = v.bits
    return BinVector(a.rows, transpose([(r & bits).bit_count() & 1 for r in a.data], 1)[0])


# side of the largest square that transpose swaps as one int
_TILE = 1024
# the widest side that transpose reshapes as byte planes: two of them
_NARROW = 16
# _BIT_CHARS[b][x] is b"1" if bit b of the byte x is set, else b"0"
_BIT_CHARS = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def _transpose_square(data: bytes, size: int) -> bytes:
    """Transpose the size x size bit square packed in `data`, entry (i, j)
    at bit i*size + j, by log2(size) delta swaps on one int.

    For d = size/2, ..., 2, 1 one swap trades the off-diagonal d x d
    blocks: entry (i, j) with bit d clear in i and set in j moves to
    (i + d, j - d), s = d*(size - 1) bits up.  Each level's mask is built
    from repeated bytes and dropped after use.
    """
    step = size // 8  # bytes per packed row
    x = int.from_bytes(data, "little")
    d = size // 2
    while d:
        reps = size // (2 * d)
        if d >= 8:
            row = (bytes(d // 8) + b"\xff" * (d // 8)) * reps
        else:  # the same byte throughout: its bits j with j & d set
            row = bytes([{4: 0xF0, 2: 0xCC, 1: 0xAA}[d]]) * step
        # that row in the rows i with bit d clear, zero rows between
        mask = int.from_bytes((row * d + bytes(step * d)) * reps, "little")
        s = d * (size - 1)
        t = ((x >> s) ^ x) & mask
        x ^= t ^ (t << s)
        d //= 2
    return x.to_bytes(step * size, "little")


def transpose(rows: Sequence[int], cols: int) -> list[int]:
    """The cols rows of the transpose of the len(rows) x cols matrix `rows`:
    bit j of output row b is bit b of rows[j].

    A side of at most _NARROW bits is at most two byte planes, which C-level
    bytes operations reshape.  With few columns, the rows become one byte
    (or little-endian word) each, last row first; output row b is bit b & 7
    of every byte of plane b >> 3, which one translate writes as an ASCII
    bit string for int(..., 2).  With up to 8 rows, row j's bit string
    masked to 0/1 bytes is an int holding bit b of the row in byte b:
    shifted j bits up and OR-ed, byte b is output row b, read back by
    to_bytes; 9 to 16 rows are two such planes.

    Any other matrix is cut into W x W tiles, W the smallest power of two
    that fits the shorter side (and at least 64, or the longer side when
    that is less), at most _TILE; so a long thin matrix is a strip of
    squares, a big one a grid of them.  The rows go through int.to_bytes
    once; each tile is joined from their byte slices and transposed as one
    int (_transpose_square), and the output rows are joined from the tiles'
    row slices down each column strip.  Tiling bounds the big ints at
    _TILE^2 bits, where one square of the shorter side would take 8192^2
    bits at 5413 x 6960: that transpose peaks at 12 MiB under tracemalloc.
    """
    n = len(rows)
    if not n or not cols:
        return [0] * cols
    if cols <= n and cols <= _NARROW:
        if cols <= 8:
            planes = (bytes(rows)[::-1],)
        else:  # big-endian words reversed byte by byte: little-endian, last row first
            raw = struct.pack(f">{n}H", *rows)[::-1]
            planes = raw[::2], raw[1::2]
        return [int(planes[b >> 3].translate(_BIT_CHARS[b & 7]), 2) for b in range(cols)]
    if n <= 8:
        fmt = f"0{cols}b"
        ones = int.from_bytes(b"\1" * cols, "big")
        plane = 0
        for j, r in enumerate(rows):
            plane |= (int.from_bytes(format(r, fmt).encode(), "big") & ones) << j
        return list(plane.to_bytes(cols, "little"))
    if n <= _NARROW:
        low, high = transpose(rows[:8], cols), transpose(rows[8:], cols)
        return [a | b << 8 for a, b in zip(low, high)]
    short, long = sorted((n, cols))
    side = min(long, max(short, 64))
    size = min(_TILE, max(8, 1 << (side - 1).bit_length()))
    step = size // 8
    width = -(-cols // size) * step  # bytes per packed row, whole tiles
    packed = [r.to_bytes(width, "little") for r in rows]
    out: list[int] = []
    for c in range(0, width, step):
        tiles = [
            _transpose_square(b"".join([p[c : c + step] for p in packed[i : i + size]]), size)
            for i in range(0, n, size)
        ]
        # output row 8c + j is row j of each tile down the strip, in order
        end = min(size, cols - 8 * c) * step
        chunks = zip(*[[t[j : j + step] for j in range(0, end, step)] for t in tiles])
        out += [int.from_bytes(b"".join(ch), "little") for ch in chunks]
    return out


def _rref(rows: Iterable[int], cols: int, back: bool = True) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on the low `cols` bits by the Method of Four Russians:
    the one elimination loop.

    The columns go in windows of w = 8 (fewer at the right edge).  The rows
    not yet pivots are scanned, each reduced by the window's pivots found so
    far, until the window has w pivots or the rows run out; a row left nonzero in the window becomes
    a pivot on its lowest window bit and clears that bit from the window's
    earlier pivots.  The 2^w XOR combinations of the window's pivots then
    clear the window from every other row with one table lookup each.
    Bits at and above `cols` ride along with their row, so reducing a
    packed [A | T] applies the same row operations to T.

    Returns (pivot columns, rows): the rows are the pivot rows in ascending
    pivot order, then the rows whose low `cols` bits are zero.  back=False
    clears only the rows below each window's pivots, which leaves an
    echelon form: enough for the rank and the row solver.
    """
    rows = list(rows)
    n = len(rows)
    pivots: list[int] = []
    top = 0  # rows[:top] are the pivot rows of the windows done so far
    for c in range(0, cols, 8):
        if top == n:
            break
        w = min(8, cols - c)
        mask = (1 << w) - 1
        window: dict[int, int] = {}  # pivot bit -> pivot row
        i = top
        while i < n and len(window) < w:
            r = rows[i]
            for bit, p in window.items():
                if r & bit:
                    r ^= p
            x = (r >> c) & mask
            if x:
                bit = (x & -x) << c
                for b, p in window.items():
                    if p & bit:
                        window[b] = p ^ r
                window[bit] = r
                # park the scanned row from the next pivot slot in row i
                r = rows[top + len(window) - 1]
            rows[i] = r
            i += 1
        if not window:
            continue
        table = _span_table([window.get(1 << j, 0) for j in range(c, c + w)])
        # rows[top:i] are scanned, so only the rest need the window cleared
        rows[i:] = [r ^ table[(r >> c) & mask] for r in rows[i:]]
        if back:
            rows[:top] = [r ^ table[(r >> c) & mask] for r in rows[:top]]
        for bit in sorted(window):
            rows[top] = window[bit]
            pivots.append(bit.bit_length() - 1)
            top += 1
    return pivots, rows


def rank(a: BinMatrix) -> int:
    return len(_rref(a.data, a.cols, back=False)[0])


def _reduce_tagged(a: BinMatrix, back: bool) -> tuple[list[int], list[int]]:
    """_rref of [A | I]: row i of A carries the tag bit a.cols + i, so the
    bits at and above a.cols of each reduced row say which rows of A it
    sums.  RankError below full row rank; returns (pivots, rows)."""
    pivots, rows = _rref([r | 1 << (a.cols + i) for i, r in enumerate(a.data)], a.cols, back)
    if len(pivots) < a.rows:
        raise RankError(f"matrix does not have full row rank ({len(pivots)} < {a.rows})")
    return pivots, rows


def invert(a: BinMatrix) -> BinMatrix:
    """Gauss-Jordan inverse over GF(2): [A | I] reduces to [I | A^-1].
    DimensionError if A is not square, RankError if it is singular."""
    if a.rows != a.cols:
        raise DimensionError("only square matrices can be inverted")
    return BinMatrix(a.rows, a.rows, [r >> a.cols for r in _reduce_tagged(a, True)[1]])


def kernel_columns(a: BinMatrix) -> tuple[list[int], list[int]]:
    """The right kernel of A by columns, with the free columns of A.

    Returns (free, columns): basis vector k is 1 at free column f_k =
    free[k] and carries column f_k of the reduced rows on the pivot
    columns, and bit k of columns[j] is its entry j.  Two transposes move
    the reduced rows' columns into place, with no loop per bit.
    """
    pivots, rows = _rref(a.data, a.cols)
    rank_a = len(pivots)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    columns = transpose(rows[:rank_a], a.cols)
    # z[i]: the free bits of pivot row i, bit k read at free column f_k
    z = transpose([columns[f] for f in free], rank_a)
    stacked = [0] * a.cols
    for p, zi in zip(pivots, z):
        stacked[p] = zi
    for k, f in enumerate(free):
        stacked[f] = 1 << k
    return free, stacked


def null_space(a: BinMatrix) -> BinMatrix:
    """Basis of the right kernel {x : A . x^T = 0}, one row per basis vector.

    Rows come out in free-column order with an identity pattern on the free
    columns, so solving v . K = y for a kernel matrix K is a column lookup:
    the transpose of kernel_columns.
    """
    free, columns = kernel_columns(a)
    return BinMatrix(len(free), a.cols, transpose(columns, len(free)))


class PermMatrix:
    """Permutation matrix stored as an index sequence.

    perm[i] is the image of basis vector e_i, i.e. entry (i, perm[i]) is 1.
    For a row vector v, (v . P)[perm[i]] = v[i].
    """

    __slots__ = ("perm", "_inv", "_bwd")

    def __init__(self, perm: Sequence[int]):
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise DimensionError("not a permutation of 0..n-1")
        self.perm = tuple(perm)
        inv = [0] * n
        for i, j in enumerate(self.perm):
            inv[j] = i
        self._inv = tuple(inv)  # column j of A x P is column inv[j] of A
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

    def apply_vec_inverse(self, v: BinVector) -> BinVector:
        """v . P^-1 (= v . P^T)"""
        if v.n != self.n:
            raise DimensionError("length mismatch")
        return BinVector(self.n, self._bwd(v.bits))

    def apply_mat(self, a: BinMatrix) -> BinMatrix:
        """A x P (permute columns: new column perm[i] = old column i)."""
        if a.cols != self.n:
            raise DimensionError("column count mismatch")
        return self.apply_columns(transpose(a.data, a.cols), a.rows)

    def apply_columns(self, columns: Sequence[int], rows: int) -> BinMatrix:
        """A x P for the rows x n matrix A given by its columns (bit i of
        columns[j] is entry (i, j)): the columns move, then one transpose."""
        if len(columns) != self.n:
            raise DimensionError("column count mismatch")
        return BinMatrix(rows, self.n, transpose([columns[i] for i in self._inv], rows))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermMatrix) and other.perm == self.perm

    def __repr__(self) -> str:
        return f"PermMatrix({list(self.perm)})"


class RowSolver:
    """Solve v . G = y for a fixed full-row-rank G by one forward pass of
    [G | I]; RankError if G's rank is below its row count."""

    def __init__(self, g: BinMatrix):
        pivots, rows = _reduce_tagged(g, False)
        # at[p]: the tagged echelon row whose lowest set bit, its pivot, is p
        self.k, self.cols, self.at = g.rows, g.cols, dict(zip(pivots, rows))

    def solve(self, y: BinVector) -> BinVector:
        """v with v . G = y: the tags of the rows that clear y's lowest bit in
        turn.  RankError if y is outside the row space or of the wrong length."""
        if y.n != self.cols:
            raise RankError(f"vector length {y.n} != column count {self.cols}")
        x, at, mask = y.bits, self.at, (1 << self.cols) - 1
        try:
            while x & mask:
                x ^= at[(x & -x).bit_length() - 1]
        except KeyError:
            raise RankError("vector is not in the row space") from None
        return BinVector(self.k, x >> self.cols)


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

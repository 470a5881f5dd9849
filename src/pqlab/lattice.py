"""Integer lattices: circulants, the NTRU modular lattice, LLL, enumeration.

Vectors are rows throughout: a basis is a list of integer row vectors, and
a lattice point is an integer combination of rows.  The NTRU public basis
pairs each unit row e_i with the i-th cyclic shift of h, so row
combinations produce exactly the pairs (a, a*h + q*k), the membership set
{(a, b) : a*h = b (mod q)}.  LLL runs in exact integer arithmetic, so
every acceptance run is deterministic; the rational Gram-Schmidt data
(Fractions) serves only as the independent check of its output.  As in
Cohen's integral LLL, it keeps k_max, the highest row reached so far: the
Gram-Schmidt integers of a row are formed when LLL first reaches it, and a
swap updates only the rows up to k_max.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import add, getitem, mul, sub
from typing import Iterator, Sequence

from . import ntru
from .errors import (
    DimensionError,
    MessageRangeError,
    NotInvertible,
    RankError,
    SamplingExhausted,
)
from .convring import Operand, center_mod, conv_mul, invert_mod, sample_ternary, ternary_shape

IntVector = list[int]
IntMatrix = list[list[int]]


# -- circulant matrices --


def cyclic_shift(v: Sequence[int], k: int) -> IntVector:
    """Coefficients of x^k * v in Z[x]/(x^N - 1)."""
    n = len(v)
    k %= n
    return [v[(i - k) % n] for i in range(n)]


def circulant(v: Sequence[int]) -> IntMatrix:
    """Rows are the cyclic shifts v, x*v, x^2*v, ..."""
    return [cyclic_shift(v, i) for i in range(len(v))]


def circulant_mul(v: Sequence[int], w: Sequence[int], q: int | None = None) -> IntVector:
    """w times the circulant of v (row vector times matrix).

    Built literally from the matrix rows, so it is an independent
    realization of the cyclic convolution w * v.
    """
    n = len(v)
    if len(w) != n:
        raise DimensionError(f"length mismatch: {n} != {len(w)}")
    rows = circulant(v)
    out = [0] * n
    for i, wi in enumerate(w):
        if wi:
            row = rows[i]
            for j in range(n):
                out[j] += wi * row[j]
    if q is not None:
        out = center_mod(out, q)
    return out


# -- lattices --


@dataclass(frozen=True)
class ConvModLattice:
    """Pairs (a, b) in Z^2N with a * c = b (mod q)."""

    c: tuple[int, ...]
    q: int

    @property
    def n(self) -> int:
        return len(self.c)

    @cached_property
    def _packed_c(self) -> Operand:
        return Operand(self.c)

    def contains(self, a: Sequence[int], b: Sequence[int]) -> bool:
        if len(a) != self.n or len(b) != self.n:
            raise DimensionError("member halves must have length N")
        prod_ = conv_mul(a, self._packed_c)
        return all((x - y) % self.q == 0 for x, y in zip(prod_, b))


def build_public_basis(h: Sequence[int], q: int) -> IntMatrix:
    """2N x 2N row basis [[I, C(h)], [0, q*I]] with C(h) rows = shifts x^i*h.

    Row combinations (a, k) give (a, a*h + q*k), so the row span is exactly
    the membership set of ConvModLattice(h, q); the determinant is q^N.
    """
    n = len(h)
    basis = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        basis.append(row + cyclic_shift(h, i))
    for i in range(n):
        row = [0] * (2 * n)
        row[n + i] = q
        basis.append(row)
    return basis


# -- lattice-form NTRU --


@dataclass(frozen=True)
class NtruLatticeKey:
    """Lattice-form key: f = e_1 + p*t_f, g = p*t_g, public h = f^-1*g mod q.

    The circulant of f is the identity mod p and the circulant of g vanishes
    mod p, which is what lets decryption strip the blinding term.
    """

    params: ntru.NtruParams
    f: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]


def lattice_keygen(params, rng: random.Random) -> NtruLatticeKey:
    n, p, q = params.n, params.p, params.q
    d_plus, d_minus = params.shape
    for _ in range(ntru.KEYGEN_TRIES):
        t_f = sample_ternary(n, d_plus, d_minus, rng)
        f = [p * c for c in t_f]
        f[0] += 1
        try:
            f_q_inv = invert_mod(f, q)
        except NotInvertible:
            continue
        t_g = sample_ternary(n, d_plus, d_minus, rng)
        g = [p * c for c in t_g]
        h = conv_mul(f_q_inv, g, q)
        return NtruLatticeKey(params, tuple(f), tuple(g), tuple(h))
    raise SamplingExhausted(f"no invertible f in {ntru.KEYGEN_TRIES} draws")


def _check_ternary_bounded(v: Sequence[int], shape: tuple[int, int], label: str) -> None:
    counts = ternary_shape(v)
    if counts is None:
        c = next(c for c in v if c not in (-1, 0, 1))
        raise MessageRangeError(f"{label} coefficient {c} is not ternary")
    plus, minus = counts
    if plus > shape[0] or minus > shape[1]:
        raise MessageRangeError(
            f"{label} has {plus} ones / {minus} minus-ones, "
            f"allowed at most {shape[0]} / {shape[1]}"
        )


def lattice_encrypt(key: NtruLatticeKey, m: Sequence[int], r: Sequence[int]) -> IntVector:
    """c = m + r * h, centered mod q (blinding folded into h via g = p*t_g)."""
    params = key.params
    if len(m) != params.n or len(r) != params.n:
        raise DimensionError("message and blinding must have length N")
    _check_ternary_bounded(m, params.shape, "message")
    _check_ternary_bounded(r, params.shape, "blinding")
    rh = circulant_mul(key.h, r)
    return center_mod([a + b for a, b in zip(m, rh)], params.q)


def lattice_decrypt(key: NtruLatticeKey, c: Sequence[int]) -> IntVector:
    """t = center(c * C(f) mod q), then m = t mod p (centered).

    Correct whenever the integer vector m + p*(t_f*m + t_g*r) stays inside
    (-q/2, q/2], which the test harness checks via the identity predicate.
    """
    params = key.params
    if len(c) != params.n:
        raise DimensionError("ciphertext must have length N")
    t = circulant_mul(key.f, c, params.q)
    return center_mod(t, params.p)


def lattice_identity_check(key: NtruLatticeKey, m: Sequence[int], r: Sequence[int]) -> bool:
    """True iff f*m + g*r over the integers is inside (-q/2, q/2]: ntru's
    check with g = p*t_g."""
    p = key.params.p
    return ntru.decryption_identity_check(key.f, [c // p for c in key.g], r, m, key.params)


# -- exact Gram-Schmidt and LLL --


def gram_schmidt(
    basis: IntMatrix,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact GS data: (mu, B) with mu[i][j] the projection coefficients and
    B[i] = ||b*_i||^2 as Fractions.  RankError on dependent rows."""
    n = len(basis)
    mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    bstar: list[list[Fraction]] = []
    bnorm: list[Fraction] = []
    for i in range(n):
        star = [Fraction(x) for x in basis[i]]
        for j in range(i):
            dot = sum(Fraction(x) * y for x, y in zip(basis[i], bstar[j]))
            mu[i][j] = dot / bnorm[j]
            star = [s - mu[i][j] * t for s, t in zip(star, bstar[j])]
        bstar.append(star)
        norm = sum(s * s for s in star)
        if norm == 0:
            raise RankError("dependent rows in basis")
        bnorm.append(norm)
        mu[i][i] = Fraction(1)
    return mu, bnorm


def is_size_reduced(mu: list[list[Fraction]]) -> bool:
    return all(
        abs(mu[i][j]) <= Fraction(1, 2)
        for i in range(len(mu))
        for j in range(i)
    )


def lovasz_holds(mu: list[list[Fraction]], bnorm: list[Fraction], delta: Fraction) -> bool:
    return all(
        bnorm[k] >= (delta - mu[k][k - 1] ** 2) * bnorm[k - 1]
        for k in range(1, len(bnorm))
    )


def lll_reduce(basis: IntMatrix, delta: Fraction | float = Fraction(3, 4)) -> IntMatrix:
    """LLL reduction in exact integer arithmetic (integral LLL, Cohen,
    GTM 138, Alg. 2.6.7).

    The state is d[0] = 1, d[i+1] = d[i] * ||b*_i||^2 and, for j < i,
    lam[i][j] = d[j+1] * mu[i][j]; all are integers for an integer basis,
    and every division below is exact.  As in Cohen, k_max is the highest
    row reached so far: row i's lam and d are formed when k first exceeds
    k_max, and a swap updates only rows up to k_max, since the rows beyond
    are still the input rows and their data is formed from the current
    rows when they are reached.  Row k is reduced by row l iff
    |mu[k][l]| > 1/2, by q = mu[k][l] rounded half to even, so each step is
    the one rational LLL would take.  Output rows span the same lattice, are
    size-reduced (|mu| <= 1/2), and satisfy the Lovasz condition for the
    given delta.  RankError on dependent rows, raised when LLL reaches the
    first row that depends on the rows before it.
    """
    delta = Fraction(delta).limit_denominator(10**6) if not isinstance(delta, Fraction) else delta
    num, den = delta.numerator, delta.denominator
    if not den < 4 * num < 4 * den:
        raise ValueError("delta must lie in (1/4, 1)")
    b = [list(row) for row in basis]
    n = len(b)
    if n == 0:
        return b
    dim = len(b[0])
    if any(len(row) != dim for row in b):
        raise DimensionError("ragged basis")

    d = [1] * (n + 1)
    # lam[i][j] is data for j < i only; the entries from i on are never read
    lam = [[0] * n for _ in range(n)]

    def reach(i: int) -> None:
        # row i's lam and d, from rows 0..i as they stand now
        bi, lam_i = b[i], lam[i]
        for j in range(i + 1):
            lam_j = lam[j]
            u = sum(map(mul, bi, b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam_i[l] * lam_j[l]) // d[l]
            if j < i:
                lam_i[j] = u
            elif u <= 0:
                raise RankError("dependent rows in basis")
            else:
                d[i + 1] = u

    def size_reduce(k: int, l: int) -> None:
        # called only when 2 |lam[k][l]| > d[l+1]
        lam_k, lam_l, dl = lam[k], lam[l], d[l + 1]
        q, r = divmod(lam_k[l], dl)
        if 2 * r > dl or (2 * r == dl and q & 1):
            q += 1
        if q == 1:  # three reductions in four are by +-1
            b[k] = list(map(sub, b[k], b[l]))
        elif q == -1:
            b[k] = list(map(add, b[k], b[l]))
        else:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        for j in range(l):
            lam_k[j] -= q * lam_l[j]
        lam_k[l] -= q * dl

    reach(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            reach(k)
        lam_k = lam[k]
        lk = lam_k[k - 1]
        dk = d[k]
        if 2 * abs(lk) > dk:
            size_reduce(k, k - 1)
            lk = lam_k[k - 1]
        dk1 = d[k + 1]
        if den * (dk1 * d[k - 1] + lk * lk) >= num * dk * dk:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lam_k[l]) > d[l + 1]:
                    size_reduce(k, l)
            k += 1
        else:
            # swap rows k-1, k: their lam rows trade places whole (only the
            # entries j < k-1 move), and lam[k][k-1] is unchanged by the swap
            b[k - 1], b[k] = b[k], b[k - 1]
            lam[k - 1], lam[k] = lam_k, lam[k - 1]
            lam[k][k - 1] = lk
            new_dk = (d[k - 1] * dk1 + lk * lk) // dk
            for i in range(k + 1, k_max + 1):
                lam_i = lam[i]
                t = lam_i[k]
                lam_i[k] = u = (dk1 * lam_i[k - 1] - lk * t) // dk
                lam_i[k - 1] = (new_dk * t + lk * u) // dk1
            d[k] = new_dk
            if k > 1:
                k -= 1
    return b


# -- exact solvers and enumeration oracles --


def det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def solve_integer(basis: IntMatrix, target: Sequence[int]) -> IntVector | None:
    """x with x . basis = target if one exists over the integers, else None.

    Exact rational elimination; used to certify that a reduced basis still
    spans every original row (unimodular equivalence).
    """
    rows = len(basis)
    cols = len(basis[0]) if rows else 0
    if len(target) != cols:
        raise DimensionError("target length mismatch")
    # solve A^T y = t^T where A rows are basis vectors
    aug = [[Fraction(basis[i][j]) for i in range(rows)] + [Fraction(target[j])]
           for j in range(cols)]
    pivots = []
    r = 0
    for c in range(rows):
        piv = None
        for i in range(r, cols):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(cols):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    # consistency: zero rows must have zero rhs
    for i in range(r, cols):
        if aug[i][rows] != 0:
            return None
    x = [Fraction(0)] * rows
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][rows]
    if any(v.denominator != 1 for v in x):
        return None
    return [int(v) for v in x]


def _box(basis: IntMatrix, bound: int) -> Iterator[tuple[tuple[int, ...], IntVector]]:
    """(coefficients, vector) for every integer combination of the rows with
    coefficients in [-bound, bound], in itertools.product order.  The size
    checks run at the call, before any enumeration."""
    if len(basis) > 6:
        raise DimensionError("enumeration limited to dimension <= 6")
    if bound > 8:
        raise ValueError("coefficient box limited to bound <= 8")
    dim = len(basis[0])

    def walk():
        steps = range(-bound, bound + 1)
        scaled = [
            {c: [c * row[j] for j in range(dim)] if c else [0] * dim for c in steps}
            for row in basis
        ]
        for coeffs in product(steps, repeat=len(basis)):
            yield coeffs, [sum(col) for col in zip(*map(getitem, scaled, coeffs))]

    return walk()


def svp_bruteforce(basis: IntMatrix, bound: int = 3) -> IntVector:
    """Shortest nonzero vector among integer combinations with coefficients
    in [-bound, bound]; ties go to the lexicographically smallest ones.  Exact
    only if the box covers the optimum, as the desk-scale tests choose it to."""
    best = min(
        ((sum(x * x for x in v), coeffs, v) for coeffs, v in _box(basis, bound) if any(v)),
        default=None,
    )
    if best is None:
        raise RankError("no nonzero vector in the enumeration box")
    return best[2]


def cvp_bruteforce(basis: IntMatrix, x: Sequence[int], bound: int = 3) -> IntVector:
    """Closest lattice point to x with coefficients in [-bound, bound];
    ties broken by lexicographically smallest coefficient vector."""
    box = _box(basis, bound)
    if len(x) != len(basis[0]):
        raise DimensionError("target length mismatch")
    return min(
        ((sum((a - b) * (a - b) for a, b in zip(v, x)), coeffs, v) for coeffs, v in box),
        default=(None, None, None),  # a negative bound leaves the box empty
    )[2]

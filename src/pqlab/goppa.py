"""Binary Goppa codes: parity-check construction, syndromes, and decoding.

A code is defined by an irreducible polynomial g of degree t over GF(2^m)
and a support L of distinct field elements where g does not vanish.  The
codewords are the binary vectors whose rational syndrome

    s(x) = sum over set bits i of 1/(x - alpha_i)  (mod g)

is zero.  Each code computes the table of position inverses
(x - alpha_j)^-1 mod g once, by synthetic division; the syndrome sums its
entries.  Coefficient t-1-r of (x - alpha_j)^-1 is entry (r, j) of the
classic X*Y*Z parity-check product, so the binary parity-check matrix is
that table expanded bit-wise over GF(2); the generator is its null space.
Decoding of up to t errors uses Patterson's split of the key equation, with
an exhaustive decoder available as a desk-scale oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import f2linalg
from .errors import DecodingFailure, DimensionError, SupportError
from .f2linalg import BinMatrix, BinVector
from .gf2m import FieldCtx, FieldPoly, poly_eea_partial, poly_inv_mod, sqrt_mod_g


def build_parity_check(
    g: FieldPoly, support: Sequence[int]
) -> tuple[list[list[int]], BinMatrix]:
    """Position inverses (x - alpha_j)^-1 mod g and the binary parity check.

    Synthetic division g(x) = (x - a) q(x) + g(a) gives (x - a)^-1 = q(x) /
    g(a) mod g, so g(a) = 0 marks a root of g.  Coefficient t-1-r of that
    inverse is entry (r, j) of the classic H = X*Y*Z: X is t x t lower
    triangular holding g's coefficients (row r has g_t .. g_{t-r} ending on
    the diagonal), Y the t x n matrix of powers alpha_j^i, Z the diagonal of
    1/g(alpha_j).  Bit b of that coefficient is bit j of binary row r*m + b,
    giving an (m*t) x n matrix whose kernel is exactly the kernel of the
    rational syndrome.
    """
    ctx = g.ctx
    mul = ctx.mul
    gc = g.coeffs
    t = g.degree
    m = ctx.m
    n = len(support)
    if len(set(support)) != n:
        raise SupportError("support elements must be distinct")
    inverses = []
    rows = [0] * (m * t)
    for j, a in enumerate(support):
        q = [0] * t
        acc = gc[t]
        for i in range(t - 1, -1, -1):
            q[i] = acc
            acc = mul(acc, a) ^ gc[i]
        if acc == 0:
            raise SupportError(f"support element {a} is a root of g")
        scale = ctx.inv(acc)
        inv = [mul(scale, c) for c in q]
        inverses.append(inv)
        bit = 1 << j
        for r in range(t):
            c = inv[t - 1 - r]
            b = r * m
            while c:
                if c & 1:
                    rows[b] |= bit
                c >>= 1
                b += 1
    return inverses, BinMatrix(m * t, n, rows)


class GoppaCode:
    """The code C(g, L) with derived parity-check and generator matrices."""

    def __init__(self, ctx: FieldCtx, g: FieldPoly, support: Sequence[int]):
        if g.ctx != ctx:
            raise DimensionError("polynomial context mismatch")
        self.ctx = ctx
        self.g = g
        self.support = tuple(support)
        self.t = g.degree
        self.n = len(self.support)
        self.inverses, self.h_bin = build_parity_check(g, self.support)
        self.generator = f2linalg.null_space(self.h_bin)
        self.k = self.generator.rows
        self._solver: f2linalg.RowSolver | None = None

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.t)

    def is_codeword(self, word: BinVector) -> bool:
        return f2linalg.mat_vec_mul(self.h_bin, word).bits == 0

    def syndrome(self, word: BinVector) -> FieldPoly:
        """Sum of (x - alpha_i)^-1 mod g over the set bits of word."""
        if word.n != self.n:
            raise DimensionError("word length mismatch")
        inv = self.inverses
        acc = [0] * self.t
        bits = word.bits
        while bits:
            i = (bits & -bits).bit_length() - 1
            for d, c in enumerate(inv[i]):
                acc[d] ^= c
            bits &= bits - 1
        return FieldPoly(acc, self.ctx)

    def message_of(self, codeword: BinVector) -> BinVector:
        """Recover v with v . G = codeword."""
        if self._solver is None:
            self._solver = f2linalg.RowSolver(self.generator)
        return self._solver.solve(codeword)

    def encode(self, message: BinVector) -> BinVector:
        return f2linalg.vec_mat_mul(message, self.generator)


def patterson_decode(
    code: GoppaCode, received: BinVector
) -> tuple[BinVector, BinVector]:
    """Decode up to t errors; returns (codeword, error) or DecodingFailure.

    Key equation split: with T = 1/s mod g, either T = x (error locator x)
    or R = sqrt(T + x) is split by a partial EEA into a = b*R (mod g) with
    deg a <= t/2, deg b <= (t-1)/2, giving sigma = a^2 + x b^2 whose roots
    over the support mark the error positions.
    """
    if received.n != code.n:
        raise DimensionError("received word length mismatch")
    s = code.syndrome(received)
    if s.is_zero():
        return received, BinVector(code.n, 0)
    g = code.g
    t = code.t
    x = FieldPoly.x(code.ctx)
    T = poly_inv_mod(s, g)
    if T == x:
        sigma = x
    else:
        r = sqrt_mod_g(T + x, g)
        a, b = poly_eea_partial(g, r, t // 2)
        sigma = a.square() + b.square().shift(1)
    if sigma.is_zero():
        raise DecodingFailure("error locator degenerated to zero")
    err_bits = 0
    nroots = 0
    for i, alpha in enumerate(code.support):
        if sigma.eval(alpha) == 0:
            err_bits |= 1 << i
            nroots += 1
    if nroots != sigma.degree:
        raise DecodingFailure(
            f"locator of degree {sigma.degree} has {nroots} support roots"
        )
    error = BinVector(code.n, err_bits)
    codeword = received + error
    if not code.is_codeword(codeword):
        raise DecodingFailure("corrected word fails the parity check")
    return codeword, error


def bruteforce_decode(
    code, received: BinVector, t: int
) -> tuple[BinVector, BinVector]:
    """Exhaustive nearest-codeword search over error patterns of weight <= t.

    Works for any object exposing n and is_codeword (Goppa codes and opaque
    linear codes alike).  Desk-scale only: n <= 24, t <= 3.
    """
    n = code.n
    if n > 24 or t > 3:
        raise DimensionError("enumeration bounds are n <= 24, t <= 3")
    if received.n != n:
        raise DimensionError("received word length mismatch")
    for w in range(t + 1):
        for positions in combinations(range(n), w):
            e = 0
            for p in positions:
                e |= 1 << p
            cand = BinVector(n, received.bits ^ e)
            if code.is_codeword(cand):
                return cand, BinVector(n, e)
    raise DecodingFailure(f"no codeword within distance {t}")


class LinearCode:
    """A plain linear code given by a generator matrix (no Goppa structure).

    Used where a code must be decoded without knowing (g, L): membership
    comes from the null space of G serving as a parity check.
    """

    def __init__(self, generator: BinMatrix):
        self.generator = generator
        self.n = generator.cols
        self.k = generator.rows
        self.h_rows = f2linalg.null_space(generator)
        self._solver: f2linalg.RowSolver | None = None

    def is_codeword(self, word: BinVector) -> bool:
        return f2linalg.mat_vec_mul(self.h_rows, word).bits == 0

    def message_of(self, codeword: BinVector) -> BinVector:
        if self._solver is None:
            self._solver = f2linalg.RowSolver(self.generator)
        return self._solver.solve(codeword)

    def encode(self, message: BinVector) -> BinVector:
        return f2linalg.vec_mat_mul(message, self.generator)

"""Binary Goppa codes: parity-check construction, syndromes, and decoding.

A code is defined by an irreducible polynomial g of degree t over GF(2^m)
and a support L of distinct field elements where g does not vanish.  The
codewords are the binary vectors whose rational syndrome

    s(x) = sum over set bits i of 1/(x - alpha_i)  (mod g)

is zero.  Coefficient t-1-r of (x - alpha_j)^-1 mod g is entry (r, j) of
the classic X*Y*Z parity-check product, so each code builds that matrix
once, expanded bit-wise over GF(2), from one bit-sliced synthetic division
of g by x - alpha_j for every position at once (see gf2m) and the inverses
1/g(alpha_j) read from the field's log/antilog tables; the syndrome is
H.v.  H is eliminated once per code, and only as far as its user needs.
The generator (the null space of H) is kept by columns, from one full
pass, when keygen or an encode first asks for it; k and the free columns,
where the generator holds an identity, are then read off it.  A loaded
key, which only decodes, takes them from the pivots of one echelon pass.
Decoding of up to t errors uses Patterson's split of the key equation, with
an exhaustive decoder available as a desk-scale oracle.  Each code also keeps
sqrt(x) mod g, so Patterson's square root mod g is one split and one
product (Huber's identity, see gf2m); computing it rejects a g that is not
squarefree.  Each code keeps its support bit-sliced too, and on first
decode the span tables of the sliced powers alpha^0..alpha^t, so the error
locator is evaluated over the whole support as one GF(2)-linear map of its
coefficients: one table lookup per coefficient, slice and slice group.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from . import f2linalg
from .errors import DecodingFailure, DimensionError, RankError, SupportError
from .f2linalg import BinMatrix, BinVector
from .gf2m import (
    FieldCtx,
    FieldPoly,
    poly_eea_partial,
    poly_inv_mod,
    sliced_eval,
    sliced_horner,
    sliced_mul,
    sliced_power_tables,
    sliced_zeros,
    sqrt_mod_g,
    sqrt_x_mod_g,
)


def build_parity_check(
    g: FieldPoly, support: Sequence[int]
) -> tuple[BinMatrix, list[int]]:
    """The binary parity check H of C(g, L), whose syndrome is H.v, and the
    support bit-sliced, which the decoder's root search reuses.

    Division gives g(x) = (x - a) q(x) + g(a), so (x - a)^-1 = q(x) / g(a)
    mod g, and g(a) = 0 marks a root of g.  Coefficient t-1-r of that
    inverse is entry (r, j) of the classic H = X*Y*Z: X is t x t lower
    triangular holding g's coefficients (row r has g_t .. g_{t-r} ending on
    the diagonal), Y the t x n matrix of powers alpha_j^i, Z the diagonal of
    1/g(alpha_j).  Bit b of that coefficient is bit j of binary row r*m + b,
    giving an (m*t) x n matrix whose kernel is exactly the kernel of the
    rational syndrome.

    The support is bit-sliced (see gf2m), so one sliced synthetic division
    divides g by every x - alpha_j at once.  The values g(alpha_j) are
    transposed back to one element per lane and inverted through the
    field's log/antilog tables, and their sliced inverses scale the
    quotients: slice b of the scaled quotient coefficient t-1-r is binary
    row r*m + b as it stands.
    """
    ctx = g.ctx
    n = len(support)
    if len(set(support)) != n:
        raise SupportError("support elements must be distinct")
    if n and not (0 <= min(support) and max(support) < ctx.order):
        raise SupportError(f"support elements must lie in [0, {ctx.order})")
    full = (1 << n) - 1
    support_slices = f2linalg.transpose(support, ctx.m)
    quotient, g_alpha = sliced_horner(g, support_slices, full)
    roots = sliced_zeros(g_alpha, full)
    if roots:
        first = support[(roots & -roots).bit_length() - 1]
        raise SupportError(f"support element {first} is a root of g")
    # no lane of g_alpha is 0, so each 1/g(alpha_j) is one log/antilog lookup
    exp, log, n1 = ctx.exp, ctx.log, ctx.order - 1
    lanes = f2linalg.transpose(g_alpha, n)
    z = f2linalg.transpose([exp[n1 - log[v]] for v in lanes], ctx.m)
    rows = []
    for q in quotient:
        rows.extend(sliced_mul(ctx, q, z))
    return BinMatrix(ctx.m * g.degree, n, rows), support_slices


class GoppaCode:
    """The code C(g, L) with derived parity-check and generator matrices."""

    def __init__(self, ctx: FieldCtx, g: FieldPoly, support: Sequence[int]):
        if g.ctx != ctx:
            raise DimensionError("polynomial context mismatch")
        self.ctx = ctx
        self.g = g
        self.sqrt_x = sqrt_x_mod_g(g)
        self.support = tuple(support)
        self.t = g.degree
        self.n = len(self.support)
        self.h_bin, self.support_slices = build_parity_check(g, self.support)

    @cached_property
    def kernel(self) -> tuple[list[int], list[int]]:
        """(free columns, G by columns) from the one full elimination of H
        (f2linalg.kernel_columns); formed on first use only (keygen and
        encode read it, a loaded key's decrypt does not)."""
        return f2linalg.kernel_columns(self.h_bin)

    @cached_property
    def _free(self) -> list[int]:
        """The free columns, where G holds an identity: read off the kernel
        when it is formed, else the pivots of one echelon pass."""
        if "kernel" in vars(self):
            return self.kernel[0]
        pivots = set(f2linalg._rref(self.h_bin.data, self.n, back=False)[0])
        return [j for j in range(self.n) if j not in pivots]

    @property
    def k(self) -> int:
        return len(self._free)

    @cached_property
    def _read_message(self):
        return f2linalg.gather(self._free, self.n)

    @property
    def generator_columns(self) -> list[int]:
        return self.kernel[1]

    @cached_property
    def generator(self) -> BinMatrix:
        """The null space of H, rows in free-column order: one transpose
        of the kernel's columns."""
        free, columns = self.kernel
        return BinMatrix(len(free), self.n, f2linalg.transpose(columns, len(free)))

    @cached_property
    def power_tables(self) -> list[list[int]]:
        """Span tables of the sliced powers alpha^0..alpha^t of the support,
        which the root search reads (see gf2m.sliced_eval); built on first
        decode."""
        return sliced_power_tables(self.ctx, self.support_slices, self.t, (1 << self.n) - 1)

    def is_codeword(self, word: BinVector) -> bool:
        return f2linalg.mat_vec_mul(self.h_bin, word).bits == 0

    def syndrome(self, word: BinVector) -> FieldPoly:
        """s(x) read off H.v: coefficient t-1-r is bits r*m .. r*m+m-1."""
        if word.n != self.n:
            raise DimensionError("word length mismatch")
        bits = f2linalg.mat_vec_mul(self.h_bin, word).bits
        m = self.ctx.m
        mask = (1 << m) - 1
        return FieldPoly(
            [(bits >> (r * m)) & mask for r in reversed(range(self.t))], self.ctx
        )

    def message_of(self, codeword: BinVector) -> BinVector:
        """v with v . G = codeword, read off the free columns, where G holds an
        identity; RankError if the word is not a codeword."""
        if not self.is_codeword(codeword):
            raise RankError("word is not a codeword")
        return BinVector(self.k, self._read_message(codeword.bits))

    def encode(self, message: BinVector) -> BinVector:
        return f2linalg.vec_mat_mul(message, self.generator)


def patterson_decode(
    code: GoppaCode, received: BinVector
) -> tuple[BinVector, BinVector]:
    """Decode up to t errors; returns (codeword, error) or DecodingFailure.

    Key equation split: with T = 1/s mod g, R = sqrt(T + x) is split by a
    partial EEA into a = b*R (mod g) with deg a <= t/2, deg b <= (t-1)/2,
    giving sigma = a^2 + x b^2 whose roots over the support mark the error
    positions.  T = x needs no branch: R = 0 splits as (0, 1), so sigma = x.
    Nor does a zero sigma: its odd part x b^2 vanishes only with b, which
    the partial EEA never returns as zero, and the root count would reject
    it anyway, as every lane is a root of it and its degree is -1.

    The corrected word needs no parity check: sigma = b^2 T (mod g), so
    sigma * s = sigma' (mod g), and a sigma with deg(sigma) distinct roots
    on the support is prime to g and has sigma'/sigma = sum 1/(x - alpha_i)
    over its roots, which is the syndrome of the error it marks.
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
    r = sqrt_mod_g(T + x, g, code.sqrt_x)
    a, b = poly_eea_partial(g, r, t // 2)
    sigma = a.square() + b.square().shift(1)
    # sigma (deg <= t) at every support element at once: the error bits are
    # the lanes where it vanishes
    err_bits = sliced_zeros(sliced_eval(sigma, code.power_tables), (1 << code.n) - 1)
    nroots = err_bits.bit_count()
    if nroots != sigma.degree:
        raise DecodingFailure(
            f"locator of degree {sigma.degree} has {nroots} support roots"
        )
    error = BinVector(code.n, err_bits)
    return received + error, error


def bruteforce_decode(
    code, received: BinVector, t: int
) -> tuple[BinVector, BinVector]:
    """Exhaustive nearest-codeword search over error patterns of weight <= t.

    Works for any object exposing n and is_codeword: a Goppa code tests H.v,
    a linear code solves v . G = word.  Desk-scale only: n <= 24, t <= 3.
    """
    n = code.n
    if n > 24 or t > 3:
        raise DimensionError("enumeration bounds are n <= 24, t <= 3")
    if received.n != n:
        raise DimensionError("received word length mismatch")
    for w in range(t + 1):
        for positions in combinations(range(n), w):
            e = BinVector.from_support(n, positions)
            cand = received + e
            if code.is_codeword(cand):
                return cand, e
    raise DecodingFailure(f"no codeword within distance {t}")


class LinearCode:
    """A plain linear code given by a generator matrix (no Goppa structure).

    Used where a code must be decoded without knowing (g, L): one RowSolver
    of G, formed here (RankError below full row rank), reads messages off
    codewords, and a word is a codeword exactly when that solve succeeds.
    """

    def __init__(self, generator: BinMatrix):
        self.generator = generator
        self.n = generator.cols
        self.k = generator.rows
        self._solver = f2linalg.RowSolver(generator)

    @cached_property
    def generator_columns(self) -> list[int]:
        return f2linalg.transpose(self.generator.data, self.n)

    def is_codeword(self, word: BinVector) -> bool:
        if word.n != self.n:
            raise DimensionError("word length mismatch")
        try:
            self._solver.solve(word)
        except RankError:
            return False
        return True

    def message_of(self, codeword: BinVector) -> BinVector:
        return self._solver.solve(codeword)

    def encode(self, message: BinVector) -> BinVector:
        return f2linalg.vec_mat_mul(message, self.generator)

"""Arithmetic in GF(2^m) and in the polynomial ring GF(2^m)[x].

Field elements are plain machine integers in polynomial basis: bit i is the
coefficient of x^i.  A FieldCtx fixes the extension degree m and the
irreducible modulus, and carries log/antilog tables for fast multiplication.
Polynomials over the field are FieldPoly values: an immutable coefficient
tuple, lowest degree first, with no trailing zeros.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import DivisionByZero

# Primitive polynomial for each supported extension degree, as an integer
# bit mask (bit i = coefficient of x^i).  Primitivity means x generates the
# multiplicative group, which the log-table build below re-verifies.
MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
}


class FieldCtx:
    """The field GF(2^m) for 2 <= m <= 13, with a fixed modulus."""

    def __init__(self, m: int, modulus: int | None = None):
        if m not in MODULI:
            raise ValueError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self.modulus = MODULI[m] if modulus is None else modulus
        if self.modulus.bit_length() != m + 1:
            raise ValueError("modulus degree does not match m")
        self._build_tables()

    def _build_tables(self) -> None:
        # exp[i] = x^i; log[exp[i]] = i for i in [0, 2^m - 1).
        # x must have order 2^m - 1, which also proves the modulus
        # irreducible (a reducible quotient has too few units).
        n1 = self.order - 1
        exp = [0] * (2 * n1)
        log = [0] * self.order
        a = 1
        for i in range(n1):
            exp[i] = a
            if a == 1 and i > 0:
                raise ValueError("modulus is not primitive over GF(2)")
            log[a] = i
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        if a != 1:
            raise ValueError("modulus is not primitive over GF(2)")
        # doubled table spares a reduction of log sums in mul
        for i in range(n1):
            exp[n1 + i] = exp[i]
        self.exp = exp
        self.log = log

    # -- element operations (elements are ints in [0, 2^m)) --

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        return self.exp[self.order - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        n1 = self.order - 1
        return self.exp[(self.log[a] * e) % n1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={bin(self.modulus)})"


class FieldPoly:
    """Polynomial over GF(2^m): immutable, trailing zeros stripped."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs: Iterable[int], ctx: FieldCtx):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.ctx = ctx

    # -- construction helpers --

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "FieldPoly":
        return cls((), ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "FieldPoly":
        return cls((1,), ctx)

    @classmethod
    def x(cls, ctx: FieldCtx) -> "FieldPoly":
        return cls((0, 1), ctx)

    # -- basic queries --

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldPoly)
            and self.coeffs == other.coeffs
            and self.ctx == other.ctx
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx))

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"FieldPoly({list(self.coeffs)}, m={self.ctx.m})"

    # -- arithmetic --

    def __add__(self, other: "FieldPoly") -> "FieldPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return FieldPoly(out, self.ctx)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldPoly") -> "FieldPoly":
        if self.is_zero() or other.is_zero():
            return FieldPoly.zero(self.ctx)
        ctx = self.ctx
        mul = ctx.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] ^= mul(a, b)
        return FieldPoly(out, ctx)

    def scale(self, c: int) -> "FieldPoly":
        mul = self.ctx.mul
        return FieldPoly([mul(c, a) for a in self.coeffs], self.ctx)

    def shift(self, k: int) -> "FieldPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return FieldPoly((0,) * k + self.coeffs, self.ctx)

    def divmod(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        ctx = self.ctx
        mul, inv = ctx.mul, ctx.inv
        dlead = inv(other.coeffs[-1])
        dd = other.degree
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = mul(c, dlead)
            quo[i - dd] = q
            for j, b in enumerate(other.coeffs):
                if b:
                    rem[i - dd + j] ^= mul(q, b)
        return FieldPoly(quo, ctx), FieldPoly(rem, ctx)

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[0]

    def monic(self) -> "FieldPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.ctx.inv(lead))

    def square(self) -> "FieldPoly":
        # Frobenius: (sum a_i x^i)^2 = sum a_i^2 x^(2i) in characteristic 2
        ctx = self.ctx
        out = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                out[2 * i] = ctx.mul(a, a)
        return FieldPoly(out, ctx)

    def eval(self, x: int) -> int:
        ctx = self.ctx
        mul = ctx.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = mul(acc, x) ^ c
        return acc


def poly_gcd(p: FieldPoly, q: FieldPoly) -> FieldPoly:
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


def poly_eea_partial(
    p: FieldPoly, q: FieldPoly, stop_deg: int
) -> tuple[FieldPoly, FieldPoly]:
    """Run EEA on (p, q) and stop at the first remainder of degree <= stop_deg.

    Returns (r, v) with r = u*p + v*q for some u, i.e. r = v*q (mod p).
    The decoder calls this with p = g and q = R to split the key equation.
    """
    ctx = p.ctx
    r0, r1 = p, q
    v0, v1 = FieldPoly.zero(ctx), FieldPoly.one(ctx)
    if r0.degree <= stop_deg:
        return r0, v0
    while r1.degree > stop_deg:
        quo, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        v0, v1 = v1, v0 + quo * v1
    return r1, v1


def poly_inv_mod(p: FieldPoly, mod: FieldPoly) -> FieldPoly:
    """Inverse of p modulo mod.  The partial EEA stops at a remainder r of
    degree <= 0 with r = v*p (mod mod): r = 0 means gcd(p, mod) != 1, and a
    nonzero constant r gives the inverse v/r."""
    r, v = poly_eea_partial(mod, p % mod, 0)
    if r.is_zero():
        raise DivisionByZero("polynomial is not invertible modulo the given modulus")
    return v.scale(p.ctx.inv(r.coeffs[0]))


def is_irreducible(p: FieldPoly) -> bool:
    """Irreducibility over GF(2^m) via gcd with Frobenius powers.

    p is irreducible iff gcd(p, x^((2^m)^i) - x) = 1 for every
    i <= deg(p)/2: any nontrivial factorization has a factor of degree
    <= deg(p)/2, and x^(q^i) - x collects all irreducibles of degree
    dividing i.
    """
    d = p.degree
    if d < 1:
        return False
    if d == 1:
        return True
    if p.coeffs[0] == 0:
        return False  # divisible by x
    ctx = p.ctx
    x = FieldPoly.x(ctx)
    r = x % p
    for _ in range(d // 2):
        # r <- r^(2^m) mod p, by m squarings
        for _ in range(ctx.m):
            r = r.square() % p
        if poly_gcd(p, r + x).degree != 0:
            return False
    return True


def random_poly(ctx: FieldCtx, deg: int, rng: random.Random) -> FieldPoly:
    coeffs = [rng.randrange(ctx.order) for _ in range(deg)] + [1]
    return FieldPoly(coeffs, ctx)


def random_irreducible(ctx: FieldCtx, t: int, rng: random.Random) -> FieldPoly:
    """Uniform-ish monic irreducible of degree exactly t (rejection loop)."""
    if t < 1:
        raise ValueError("degree must be >= 1")
    while True:
        p = random_poly(ctx, t, rng)
        if is_irreducible(p):
            return p


def sqrt_mod_g(u: FieldPoly, g: FieldPoly) -> FieldPoly:
    """Square root of u modulo an irreducible g: u^(2^(mt-1)) mod g.

    The quotient field has 2^(mt) elements, so squaring is a bijection and
    mt-1 further squarings of u yield its square root.
    """
    r = u % g
    for _ in range(g.ctx.m * g.degree - 1):
        r = r.square() % g
    return r

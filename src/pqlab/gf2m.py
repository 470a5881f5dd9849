"""Arithmetic in GF(2^m) and in the polynomial ring GF(2^m)[x].

Field elements are plain machine integers in polynomial basis: bit i is the
coefficient of x^i.  There is one field per extension degree m: a FieldCtx
takes m alone, reduces modulo the fixed primitive polynomial MODULI[m], and
carries log/antilog tables and a table of square roots.  Polynomials over
the field are FieldPoly values: an immutable coefficient tuple, lowest
degree first, with no trailing zeros.  Their product, division and
square root mod g go through two list kernels that index the log/antilog
tables directly; a fixed operand is read as its (index, log) terms, made
once per FieldPoly, so a modulus kept by its owner (goppa's g and sqrt(x))
is taken apart once.

Square roots modulo g use Huber's identity: split u = U0^2 + x*U1^2 by
field square roots of u's even and odd coefficients, then
sqrt(u) = U0 + sqrt(x)*U1 (mod g), with sqrt(x) = G0/G1 (mod g) from the
same split of g (Huber, Electronics Letters 32, 1996; Bernstein, Chou and
Schwabe, "McBits", CHES 2013).

A vector of n field elements can also be bit-sliced into m Python ints
by `f2linalg.transpose(elements, m)`: bit j of slice b is bit b of element
j, so one AND or XOR acts on all n lanes.  The sliced product is m^2 ANDs
into 2m-1 partial slices, the high ones folded down through the taps of
the modulus, and a constant is added by XORing the all-ones lane mask into
the slices of its set bits.  Inverses are not sliced: a caller transposes
its lanes back to elements and reads the log/antilog tables (see goppa).
Horner's rule on sliced vectors divides a polynomial by x - a
and evaluates it at every lane a at once (McBits' bitsliced field
arithmetic and root finding).  Where only the
value is wanted and the lanes are fixed, the sliced powers a^i are held as
span tables over groups of their slices, and a polynomial's value is a
GF(2)-linear map of its coefficients: a per-field table gives, for each
coefficient c, which slices of a^i sum to each slice of c*a^i.

The irreducibility test starts with Ben-Or's first gcd as a root test: one
such evaluation with every field element a lane (tables kept per field)
rejects a candidate with a root, x | p among them, as lane 0 holds p(0).
The rest runs on packed polynomials: one int with a 16-bit slot per
coefficient (slot i holds the coefficient of x^i), packed and unpacked
through `array` and `int.from_bytes`/`int.to_bytes`.  One shift and XOR
adds a shifted polynomial, and alpha times every slot at once is a
slot-parallel xtime: shift left by one bit and fold bit m of each slot back
through the modulus.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import cached_property
from operator import xor
from typing import Iterable, Sequence

from .errors import DivisionByZero
from .f2linalg import _span_table, _xor_rows, transpose

# slices of a sliced power spanned by one table of sliced_eval: 2^4 entries
# per 4 slices keeps the tables within 4x the powers they index
EVAL_GROUP = 4

# The primitive polynomial of each supported extension degree, as an integer
# bit mask (bit i = coefficient of x^i).  Primitivity means x generates the
# multiplicative group, so the log tables below index every nonzero element.
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
    """The field GF(2^m) for 2 <= m <= 13, modulo MODULI[m]: one field per m."""

    def __init__(self, m: int):
        if m not in MODULI:
            raise ValueError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self.modulus = MODULI[m]
        # x^m = sum of x^i over these i: the fold of a sliced product
        self.taps = [i for i in range(m) if self.modulus >> i & 1]
        self._root_tables: list[list[int]] = []
        self._build_tables()

    def _build_tables(self) -> None:
        # exp[i] = x^i; log[exp[i]] = i for i in [0, 2^m - 1), x having
        # order 2^m - 1 as the modulus is primitive
        n1 = self.order - 1
        exp = [0] * (2 * n1)
        log = [0] * self.order
        a = 1
        for i in range(n1):
            exp[i] = a
            log[a] = i
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        # doubled table spares a reduction of log sums in mul
        for i in range(n1):
            exp[n1 + i] = exp[i]
        self.exp = exp
        self.log = log
        # sqrt(x^i) = x^(i/2), with i + n1 in place of an odd i (n1 is odd)
        self.sqrt = [0] + [exp[(i + (i & 1) * n1) >> 1] for i in log[1:]]

    @cached_property
    def squares(self) -> list[int]:
        """squares[a] = a^2, the Frobenius map on coefficients."""
        exp = self.exp
        return [0] + [exp[2 * i] for i in self.log[1:]]

    @cached_property
    def mul_masks(self) -> list[bytes]:
        """Entry c packs the m masks of multiplication by c, cut into the
        groups of EVAL_GROUP slices that sliced_eval's tables span.

        Bit j of mask b is bit b of c*x^j, so slice b of c times a sliced
        vector is the XOR of the vector's slices j over mask b.  Byte
        g*m + b holds bits EVAL_GROUP*g onwards of mask b, plus the offset
        g*2^EVAL_GROUP of group g's table, so each byte indexes one
        concatenated table directly.  Multiplication is linear in c, so
        the table is the span of its m basis entries c = x^k.
        """
        m, exp = self.m, self.exp
        basis = []
        for k in range(m):
            packed = 0
            for j in range(m):
                g, i = divmod(j, EVAL_GROUP)
                for b in range(m):
                    if exp[k + j] >> b & 1:
                        packed |= 1 << (8 * (g * m + b) + i)
            basis.append(packed)
        groups = -(-m // EVAL_GROUP)
        offsets = sum(g << (EVAL_GROUP + 8 * (g * m + b)) for g in range(groups) for b in range(m))
        size = groups * m
        return [(v | offsets).to_bytes(size, "little") for v in _span_table(basis)]

    def root_tables(self, deg: int) -> list[list[int]]:
        """sliced_power_tables of the whole field, every element a lane,
        to degree deg or more: sliced_eval of a polynomial of degree <= deg
        with them is its value at every field element.  Kept for the
        largest degree asked so far."""
        tables = self._root_tables
        if len(tables) <= deg:
            elements = transpose(range(self.order), self.m)
            tables = sliced_power_tables(self, elements, deg, (1 << self.order) - 1)
            self._root_tables = tables
        return tables

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
        return isinstance(other, FieldCtx) and other.m == self.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m})"


_Terms = list[tuple[int, int]]  # (j, log c_j) for each nonzero c_j


class FieldPoly:
    """Polynomial over GF(2^m): immutable, trailing zeros stripped."""

    __slots__ = ("coeffs", "ctx", "_logs")

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

    def _terms(self) -> _Terms:
        """This polynomial as the kernels below read an operand."""
        try:
            return self._logs
        except AttributeError:
            log = self.ctx.log
            self._logs = [(j, log[c]) for j, c in enumerate(self.coeffs) if c]
            return self._logs

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
        ctx = self.ctx
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        return FieldPoly(_mul_add(out, self.coeffs, other._terms(), ctx), ctx)

    def scale(self, c: int) -> "FieldPoly":
        if not c:
            return FieldPoly.zero(self.ctx)
        exp, log = self.ctx.exp, self.ctx.log
        lc = log[c]
        return FieldPoly([exp[log[a] + lc] if a else 0 for a in self.coeffs], self.ctx)

    def divmod(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        quo = _divide(rem, other._terms(), self.ctx)
        return FieldPoly(quo, self.ctx), FieldPoly(rem[: other.degree], self.ctx)

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[1]

    def monic(self) -> "FieldPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.ctx.inv(lead))

    def square(self) -> "FieldPoly":
        # Frobenius: (sum a_i x^i)^2 = sum a_i^2 x^(2i) in characteristic 2
        out = [0] * (2 * len(self.coeffs))
        out[::2] = map(self.ctx.squares.__getitem__, self.coeffs)
        return FieldPoly(out, self.ctx)

    def sqrt_split(self) -> tuple["FieldPoly", "FieldPoly"]:
        """(U0, U1) with self = U0^2 + x*U1^2: U0 takes the field square
        roots of the even coefficients, U1 those of the odd ones."""
        ctx = self.ctx
        sq = ctx.sqrt
        cs = self.coeffs
        return (
            FieldPoly([sq[a] for a in cs[0::2]], ctx),
            FieldPoly([sq[a] for a in cs[1::2]], ctx),
        )


def _mul_add(out: list[int], a: Sequence[int], b: _Terms, ctx: FieldCtx) -> list[int]:
    """out + a*b in place, b given by its _terms(); out reaches deg a + deg b."""
    exp, log = ctx.exp, ctx.log
    for i, c in enumerate(a):
        if c:
            la = log[c]
            for j, lb in b:
                out[i + j] ^= exp[la + lb]
    return out


def _divide(rem: list[int], divisor: _Terms, ctx: FieldCtx) -> list[int]:
    """Divide rem in place by a nonzero divisor of degree d given by its
    _terms(): returns the quotient and leaves the remainder in rem[:d].  The
    lead cancels by construction, so only the lower terms are subtracted."""
    exp, log = ctx.exp, ctx.log
    n1 = ctx.order - 1
    *terms, (d, lead) = divisor
    inv_lead = n1 - lead
    quo = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            lq = log[c] + inv_lead
            if lq >= n1:
                lq -= n1
            base = i - d
            quo[base] = exp[lq]
            for j, lb in terms:
                rem[base + j] ^= exp[lq + lb]
    return quo


def poly_eea_partial(
    p: FieldPoly, q: FieldPoly, stop_deg: int
) -> tuple[FieldPoly, FieldPoly]:
    """Run EEA on (p, q) and stop at the first remainder of degree <= stop_deg.

    Returns (r, v) with r = u*p + v*q for some u, i.e. r = v*q (mod p).
    The decoder calls this with p = g and q = R to split the key equation.

    Each pair (r, v) is one coefficient list w = r + x^k v, k above every
    degree r reaches, so one fused step cancels the lead of r0 with a
    shifted multiple of r1 and adds the same multiple of v1 to v0, in
    place and in the log domain.  When deg r0 drops below deg r1 the pairs
    swap: the steps between swaps are one division of the remainder
    sequence, so r and v are those of the textbook loop.
    """
    ctx = p.ctx
    if p.degree <= stop_deg:
        return p, FieldPoly.zero(ctx)
    exp, log = ctx.exp, ctx.log
    n1 = ctx.order - 1
    k = max(len(p.coeffs), len(q.coeffs))
    w0 = list(p.coeffs) + [0] * (2 * k - len(p.coeffs))
    w1 = list(q.coeffs) + [0] * (2 * k - len(q.coeffs))
    w1[k] = 1
    d0, d1 = p.degree, q.degree
    while d1 > stop_deg:
        logs = [(j, log[c]) for j, c in enumerate(w1) if c]
        inv_lead = n1 - log[w1[d1]]
        while d0 >= d1:
            lq = log[w0[d0]] + inv_lead
            if lq >= n1:
                lq -= n1
            s = d0 - d1
            for j, lb in logs:
                w0[s + j] ^= exp[lq + lb]
            d0 -= 1
            while d0 >= 0 and not w0[d0]:
                d0 -= 1
        w0, w1, d0, d1 = w1, w0, d1, d0
    return FieldPoly(w1[:k], ctx), FieldPoly(w1[k:], ctx)


def poly_inv_mod(p: FieldPoly, mod: FieldPoly) -> FieldPoly:
    """Inverse of p modulo mod.  The partial EEA stops at a remainder r of
    degree <= 0 with r = v*p (mod mod): r = 0 means gcd(p, mod) != 1, and a
    nonzero constant r gives the inverse v/r.  An unreduced p needs no
    p % mod first: the EEA's first division reduces it."""
    r, v = poly_eea_partial(mod, p, 0)
    if r.is_zero():
        raise DivisionByZero("polynomial is not invertible modulo the given modulus")
    return v.scale(p.ctx.inv(r.coeffs[0]))


_BIG_ENDIAN = sys.byteorder == "big"


def _pack(coeffs: Iterable[int]) -> int:
    """Coefficients, lowest degree first, as one int of 16-bit slots."""
    words = array("H", coeffs)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(x: int, n: int) -> array:
    """The coefficients of a packed polynomial of degree < n as an
    array("H") of n slots."""
    words = array("H", x.to_bytes(2 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _multiples(y: int, ctx: FieldCtx, ones: int) -> list[int]:
    """alpha^i * y for i < m, y packed and `ones` holding a 1 in each of
    its slots: each step shifts every slot up one bit and XORs the modulus
    into the slots whose bit m is now set, clearing it."""
    m, modulus = ctx.m, ctx.modulus
    out = [y]
    for _ in range(m - 1):
        y = (y << 1) ^ (y >> m - 1 & ones) * modulus
        out.append(y)
    return out


def _coprime(a: int, b: int, ctx: FieldCtx, ones: int) -> bool:
    """gcd(a, b) = 1 for packed a, b with deg a > deg b, by Euclid.

    A polynomial's degree is the slot of its top bit.  Each divisor b gets
    its m multiples alpha^i * b once; the quotient term q*x^s that cancels
    the lead of a is then the XOR of the multiples over the set bits of q,
    shifted s slots.
    """
    exp, log = ctx.exp, ctx.log
    n1 = ctx.order - 1
    while b:
        db = (b.bit_length() - 1) >> 4
        if db == 0:
            return True  # a nonzero constant
        multiples = _multiples(b, ctx, ones)
        inv_lead = n1 - log[b >> 16 * db]
        da = (a.bit_length() - 1) >> 4
        while da >= db:
            q = exp[log[a >> 16 * da] + inv_lead]
            a ^= _xor_rows(multiples, q) << 16 * (da - db)
            da = (a.bit_length() - 1) >> 4
        a, b = b, a
    return False  # the last divisor has degree >= 1


def is_irreducible(p: FieldPoly) -> bool:
    """Ben-Or's irreducibility test over GF(q), q = 2^m.

    p is irreducible iff gcd(p, x^(q^i) - x) = 1 for every
    i <= deg(p)/2: any nontrivial factorization has a factor of degree
    <= deg(p)/2, and x^(q^i) - x collects all irreducibles of degree
    dividing i.  The loop stops at the first i with a common factor.

    Step i = 1 is a root test: x^q - x is the product of x - a over the
    field, so its gcd with p is 1 iff p has no root.  sliced_eval of p over
    the whole field (FieldCtx.root_tables) gives every p(a) at once, p(0)
    too (so x | p), and the gcds run from i = 2 (McBits' bit-sliced evaluation).

    The rest runs on packed polynomials, p made monic (scaling keeps its
    factors).  r = x^(q^i) mod p advances by m squarings: the squares of
    r's coefficients go into the even slots, and the slots from 2d - 2
    down to d are cleared one at a time, a slot holding c by XORing in
    c*p shifted into place.  c*p comes from two span tables over the
    multiples alpha^b * p, one indexed by the low m//2 bits of c and one
    by the rest (Ben-Or, FOCS 1981).
    """
    d = p.degree
    if d < 1:
        return False
    if d == 1:
        return True
    ctx = p.ctx
    if sliced_zeros(sliced_eval(p, ctx.root_tables(d)), (1 << ctx.order) - 1):
        return False
    m = ctx.m
    packed = _pack(p.monic().coeffs)
    ones = ((1 << 16 * (d + 1)) - 1) // 0xFFFF
    multiples = _multiples(packed, ctx, ones)
    h = m // 2
    lo, hi = _span_table(multiples[:h]), _span_table(multiples[h:])
    mask = (1 << h) - 1
    squares = ctx.squares
    square = array("H", bytes(4 * d - 2))  # 2d - 1 slots, the odd ones 0
    steps = [(16 * i, 16 * (i - d)) for i in range(2 * d - 2, d - 1, -1)]
    x = 1 << 16
    r = x
    for i in range(1, d // 2 + 1):
        for _ in range(m):
            square[::2] = array("H", map(squares.__getitem__, _unpack(r, d)))
            r = _pack(square)
            for top, shift in steps:
                c = r >> top & 0xFFFF
                if c:
                    r ^= (lo[c & mask] ^ hi[c >> h]) << shift
        if i > 1 and not _coprime(packed, r ^ x, ctx, ones):
            return False
    return True


def random_poly(ctx: FieldCtx, deg: int, rng: random.Random) -> FieldPoly:
    coeffs = [rng.randrange(ctx.order) for _ in range(deg)] + [1]
    return FieldPoly(coeffs, ctx)


def random_irreducible(ctx: FieldCtx, t: int, rng: random.Random) -> FieldPoly:
    """Uniform-ish monic irreducible of degree exactly t (rejection loop).

    The candidates share ctx's root tables, which are dropped once one is
    found: a key draws one g per field, and the tables (0.3 MiB at m = 10,
    t = 50) would otherwise stay alive through the rest of its keygen."""
    if t < 1:
        raise ValueError("degree must be >= 1")
    try:
        while True:
            p = random_poly(ctx, t, rng)
            if is_irreducible(p):
                return p
    finally:
        ctx._root_tables = []


def sqrt_x_mod_g(g: FieldPoly) -> FieldPoly:
    """sqrt(x) modulo a squarefree g.

    From g = G0^2 + x*G1^2 = 0 (mod g), x = (G0/G1)^2 (mod g).  G1^2 is the
    derivative g', so G1 is invertible mod g exactly when gcd(g, g') = 1;
    otherwise poly_inv_mod raises DivisionByZero.
    """
    g0, g1 = g.sqrt_split()
    return g0 * poly_inv_mod(g1, g) % g


def sqrt_mod_g(u: FieldPoly, g: FieldPoly, sqrt_x: FieldPoly) -> FieldPoly:
    """Square root of u modulo g, given sqrt_x = sqrt_x_mod_g(g).

    With u = U0^2 + x*U1^2, sqrt(u) = U0 + sqrt(x)*U1 (mod g).  The root is
    unique when g is irreducible: squaring is then a bijection of the
    quotient field GF(2^(mt)).
    """
    ctx, sq, t = g.ctx, g.ctx.sqrt, g.degree
    cs = u.coeffs
    # U0 + sqrt(x)*U1 formed whole, then reduced once
    out = [sq[c] for c in cs[0::2]] + [0] * (len(cs) // 2 + t)
    _mul_add(out, [sq[c] for c in cs[1::2]], sqrt_x._terms(), ctx)
    _divide(out, g._terms(), ctx)
    return FieldPoly(out[:t], ctx)


# -- bit-sliced vectors of field elements --


def sliced_mul(ctx: FieldCtx, a: list[int], b: list[int]) -> list[int]:
    """Lane-by-lane product of two sliced vectors: m^2 ANDs into 2m-1
    partial slices, the ones of degree >= m then folded down through the
    taps of the modulus."""
    m = ctx.m
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] ^= ai & bj
    taps = ctx.taps
    for k in range(2 * m - 2, m - 1, -1):
        high = prod[k]
        if high:
            for i in taps:
                prod[k - m + i] ^= high
    del prod[m:]
    return prod


def sliced_horner(
    p: FieldPoly, alpha: list[int], full: int
) -> tuple[list[list[int]], list[int]]:
    """Synthetic division of p by (x - a) for every lane a of alpha at once.

    Horner's steps q_{d-1} = p_d, q_{i-1} = p_i + a*q_i are the quotient's
    coefficients, returned highest first, and the last step p_0 + a*q_0 is
    the remainder p(a).  full has a set bit for every lane; adding a
    constant XORs it into the slices of the constant's set bits.
    """
    ctx = p.ctx
    acc = [0] * ctx.m
    steps = []
    for c in reversed(p.coeffs):
        acc = sliced_mul(ctx, acc, alpha)
        acc = [s ^ full if c >> b & 1 else s for b, s in enumerate(acc)]
        steps.append(acc)
    value = steps.pop() if steps else acc
    return steps, value


def sliced_power_tables(
    ctx: FieldCtx, alpha: list[int], deg: int, full: int
) -> list[list[int]]:
    """For i = 0..deg, the span tables of the sliced power alpha^i: its
    slices in groups of EVAL_GROUP, each group's table of XOR combinations
    concatenated into one list at offsets g*2^EVAL_GROUP (see mul_masks)."""
    power = [full] + [0] * (ctx.m - 1)
    tables = []
    for i in range(deg + 1):
        if i:
            power = sliced_mul(ctx, power, alpha)
        table: list[int] = []
        for g in range(0, ctx.m, EVAL_GROUP):
            table += _span_table(power[g : g + EVAL_GROUP])
        tables.append(table)
    return tables


def sliced_eval(p: FieldPoly, tables: list[list[int]]) -> list[int]:
    """p at every lane a at once, given the span tables of the sliced
    powers a^0..a^d, d >= deg p (sliced_power_tables).

    p(a) = sum of p_i * a^i is GF(2)-linear in the slices of the powers:
    mul_masks[p_i] indexes one table entry per output slice and slice
    group, so each nonzero coefficient costs one lookup and one XOR per
    (slice, group), and the groups are XORed together at the end.
    """
    ctx = p.ctx
    m = ctx.m
    masks = ctx.mul_masks
    acc = [0] * len(masks[0])
    for c, table in zip(p.coeffs, tables):
        if c:
            acc = list(map(xor, acc, map(table.__getitem__, masks[c])))
    value = acc[:m]
    for g in range(m, len(acc), m):
        value = list(map(xor, value, acc[g : g + m]))
    return value


def sliced_zeros(a: list[int], full: int) -> int:
    """The lanes of a sliced vector that hold 0, as a mask within full."""
    for s in a:
        full &= ~s
    return full

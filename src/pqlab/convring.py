"""Arithmetic in Z[x]/(x^N - 1): cyclic convolution and modular inverses.

Polynomials are plain lists of N integers, index i holding the coefficient
of x^i.  Reduction modulo q is always to the centered interval (-q/2, q/2]
unless a function says otherwise.  Inverses modulo a prime come from the
extended Euclidean algorithm in GF(p)[x], one step at a time, each step
cancelling the leading term of the larger remainder.  The step has three
representations: mod 2 a polynomial is one int, mod 3 it is two lane masks
(the +1 lanes and the -1 lanes), and every other prime runs on lists.
Prime-power moduli are reached by Hensel lifting, covering the power-of-two
q used at recommended sizes.

A convolution is one bignum multiply (Kronecker substitution): each operand
becomes an integer with one fixed-width slot per coefficient, and the slots
of the product hold the polynomial product.  An `Operand` is a polynomial
offset by its minimum, so every slot value is >= 0: a ternary r is packed
as r + 1 in {0, 1, 2}.  One constant per product undoes the offsets, since
J*a = (sum a)*J for the all-ones polynomial J.  A slot has as many bytes as
about N * max(f') * max(g') needs for the offset operands f', g', so at
N = 443, q = 2048 a ternary times a centered operand takes 3 bytes where
the worst case (q - 1)^2 takes 4.  Packing goes through `struct`, one
`bytes.translate` of one byte lane (the offset) and stride copies into a
`bytearray`.  A product mod q is reduced in its slots by whole-int
operations (`_reduce`), and its centered values come out through one signed
`struct.unpack`: while q fits in 8 bytes, no pass over the coefficients runs
in Python; an exact product comes out the same way, mod a power of two past
twice its range.  `conv_mul` is the one product-and-centre and `lift` the
one product left in its slots (NTRU decryption's f*c mod q, then mod p); no
other module reads them.  A key keeps its operands, and each operand its
packed int per slot width.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from typing import Sequence

from .errors import DimensionError, NotInvertible
from .f2linalg import transpose

Coeffs = Sequence[int]


def center_mod(f: Coeffs, q: int) -> list[int]:
    """Coefficient-wise centered reduction; idempotent."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    half = (q - 1) // 2
    return [(c + half) % q - half for c in f]


def centered(f: Coeffs, q: int) -> bool:
    """True iff every coefficient of f lies in (-q/2, q/2] (f empty included)."""
    return not f or (-q < 2 * min(f) and 2 * max(f) <= q)


# struct codes of little-endian signed items
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}
# the item size holding each byte count up to 8
_ITEM_BYTES = [0, 1, 2, 4, 4, 8, 8, 8, 8]


@lru_cache(maxsize=None)
def _add_table(t: int) -> bytes:
    """bytes.translate table adding t to every byte, mod 256."""
    return bytes(range(t, 256)) + bytes(range(t))


def _restride(data: bytes, n: int, src: int, dst: int, keep: int) -> bytes:
    """n slots of src bytes laid dst bytes apart: bytes 0 to keep - 1 of each
    slot copied, the rest zero (data itself when nothing moves)."""
    if src == dst == keep:
        return data
    buf = bytearray(n * dst)
    for j in range(keep):
        buf[j::dst] = data[j::src]
    return buf


class Operand:
    """A ring element packed for `conv_mul`: the values a_i - low >= 0.

    [lo, hi] holds every a_i: their least and greatest, or bounds a caller
    knows.  Each a_i takes E bytes, the fewest that hold [lo, hi] signed,
    as the low bytes of a `struct` item of 1, 2, 4 or 8 bytes (of
    `int.to_bytes` past 8).  low is lo rounded down to a multiple of
    256^(E-1), so subtracting it is one `bytes.translate` of byte E - 1 of
    each item.  top and total are the largest offset value and their sum.
    The values are packed as given, of any size: products stay exact.
    `packed(width)` is one int of `width`-byte slots, kept per width.
    """

    __slots__ = ("n", "low", "top", "total", "size", "stride", "data", "_ints")

    def __init__(self, a: Coeffs, bounds: tuple[int, int] | None = None):
        lo, hi = (min(a), max(a)) if bounds is None else bounds
        n = len(a)
        size = max(hi, ~lo).bit_length() // 8 + 1  # E
        if size <= 8:
            stride = _ITEM_BYTES[size]
            raw = struct.pack(f"<{n}{_SIGNED[stride]}", *a)
        else:
            stride = size
            raw = b"".join(c.to_bytes(size, "little", signed=True) for c in a)
        unit = 1 << 8 * size - 8
        shift = -(lo // unit)
        add = _add_table(shift & 0xFF)
        if stride == 1:
            data = raw.translate(add)
        else:
            data = bytearray(raw)
            data[size - 1::stride] = raw[size - 1::stride].translate(add)
        low = -shift * unit
        self.n = n
        self.low = low
        self.top = hi - low
        self.total = sum(a) - n * low
        self.size = size
        self.stride = stride
        self.data = data
        self._ints = {}

    def __len__(self) -> int:
        return self.n

    def packed(self, width: int) -> int:
        x = self._ints.get(width)
        if x is None:
            # bytes E and up of an item are sign bits: copy bytes 0 to E - 1
            data = _restride(self.data, self.n, self.stride, width, min(self.size, width))
            x = self._ints[width] = int.from_bytes(data, "little")
        return x


def _product(f: Operand, g: Operand, extra: Operand | None = None) -> tuple[int, int, int, int]:
    """(x, width, top, offset): x holds n width-byte slots s_k <= top with
    (f*g + extra)_k = s_k + offset.

    For f = f' + a*J and g = g' + b*J, a and b the lows, f*g = f'*g' +
    (a*sum(g') + b*sum(f') + N*a*b)*J.  One multiply of the packed offset
    values, the high N slots added onto the low N (x^N = 1) and extra's
    offset values added in give the slots.  A slot has as many bytes as
    N*top(f)*top(g) + top(f) + top(g) + top(extra) needs, so it holds the
    product and each operand.
    """
    n = f.n
    top = n * f.top * g.top + f.top + g.top
    offset = f.low * g.total + g.low * f.total + n * f.low * g.low
    if extra is not None:
        top += extra.top
        offset += extra.low
    width = -(-top.bit_length() // 8) or 1
    size = n * width
    x = f.packed(width) * g.packed(width)
    x = (x & ((1 << 8 * size) - 1)) + (x >> 8 * size)
    if extra is not None:
        x += extra.packed(width)
    return x, width, top, offset


@lru_cache(maxsize=None)
def _barrett(n: int, width: int, k: int, q: int) -> tuple:
    """`_reduce`'s constants for n width-byte slots below 2^k, mod q: W, the
    fewest bytes that hold x*M for M = floor(2^k/q), the carry bit 2^b >= q
    and a centered E-byte item r - half kept as r + 2^(8E) - half (so its
    carry stays in the slot); then per W-byte slot 1, M, the quotient mask,
    b, 2^b - q, 2^(8E) - half, and the reader of the centered items."""
    m = (1 << k) // q
    b = (q - 1).bit_length()
    half = (q - 1) // 2
    item = max(e := (q - 1 - half).bit_length() // 8 + 1, _ITEM_BYTES[min(e, 8)])
    bits = max((((1 << k) - 1) * m).bit_length(), b + 1, 8 * item + 1)
    size = max(width, -(-bits // 8))
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    if item <= 8:
        unpack = struct.Struct("<" + f"{_SIGNED[item]}{size - item}x" * n).unpack
    else:
        def unpack(d):
            return [int.from_bytes(d[i:i + item], "little", signed=True)
                    for i in range(0, len(d), size)]
    mask = ((1 << 8 * size - k) - 1) * ones
    return size, ones, m, mask, b, ((1 << b) - q) * ones, ((1 << 8 * item) - half) * ones, unpack


def _reduce(x: int, n: int, width: int, top: int, q: int, add: int) -> tuple[int, tuple]:
    """(y, `_barrett`'s constants): y's W-byte slots hold (s_k + add) mod q for
    x's n width-byte slots s_k <= top.  Barrett (1986) per slot, SWAR (Lamport
    1975): for x_k = s_k + (add mod q) < 2^k, (x_k*M) >> k is floor(x_k/q) or
    one less, so x_k less that many q is r in [0, 2q); bit b of r + 2^b - q,
    set iff r >= q, times q is the one conditional subtract."""
    k = (top + q - 1).bit_length()
    const = _barrett(n, width, k, q)
    size, ones, m, mask, b, carry, _, _ = const
    if size != width:
        data = _restride(x.to_bytes(n * width, "little"), n, width, size, width)
        x = int.from_bytes(data, "little")
    x += add % q * ones
    x -= (x * m >> k & mask) * q
    x -= (x + carry >> b & ones) * q
    return x, const


def conv_mul(
    f: Coeffs | Operand, g: Coeffs | Operand, q: int | None = None, extra: Operand | None = None
) -> list[int]:
    """Cyclic convolution h_k = sum over i+j = k (mod N) of f_i g_j, plus
    extra_k when given.

    Exact over the integers when q is None (centred mod a power of two past
    twice its range); otherwise reduced to centered representatives mod q.
    Either factor may be an `Operand`, and extra is added into the slots.
    """
    n = len(f)
    if len(g) != n:
        raise DimensionError(f"ring degree mismatch: {n} != {len(g)}")
    if n == 0:
        return []
    if not isinstance(f, Operand):
        f = Operand(f)
    if not isinstance(g, Operand):
        g = Operand(g)
    x, width, top, offset = _product(f, g, extra)
    if q is None:
        q = 2 << max(-offset, top + offset).bit_length()
    return _centred(x, n, width, top, q, offset)


def _centred(x: int, n: int, width: int, top: int, q: int, offset: int) -> list[int]:
    """Centered residues mod q of s_k + offset, s_k <= top the slots of x."""
    half = (q - 1) // 2
    x, (size, _, _, _, _, _, centre, unpack) = _reduce(x, n, width, top, q, offset + half)
    return list(unpack((x + centre).to_bytes(n * size, "little")))


def lift(f: Operand, g: Operand, q: int, p: int) -> Operand:
    """f*g centred mod q, then reduced into [0, p) in its slots: the operand
    of the product mod p that follows (NTRU decryption's a = f*c)."""
    n, half = f.n, (q - 1) // 2
    x, width, top, offset = _product(f, g)
    x, (width, *_) = _reduce(x, n, width, top, q, offset + half)
    x, (width, *_) = _reduce(x, n, width, q - 1, p, -half)
    a = Operand.__new__(Operand)
    a.n, a.low, a.top, a.stride, a._ints = n, 0, p - 1, width, {width: x}
    a.size = size = (p - 1).bit_length() // 8 + 1
    a.data = data = x.to_bytes(n * width, "little")
    a.total = sum(sum(data[j::width]) << 8 * j for j in range(size))
    return a


def invert_mod_prime(f: Coeffs, p: int) -> list[int]:
    """Inverse of f in (Z/p)[x]/(x^N - 1) via the extended Euclidean
    algorithm against x^N - 1.  Coefficients returned in [0, p).

    The loop keeps u0*f = r0 and u1*f = r1 (mod x^N - 1) with deg r0 >=
    deg r1.  Each step cancels the leading term of r0 with c*x^s*r1 and
    makes the same move on the cofactor; the pair swaps once r0 drops below
    r1.  When r1 is a nonzero constant, u1/r1 is the inverse; when it
    reaches zero, r0 is the gcd with x^N - 1.

    The step has three representations.  Mod 2 a polynomial is one int
    (bit i is the coefficient of x^i), so the step is two XORs of shifted
    ints.  Mod 3 it is two lane masks, the +1 lanes and the -1 lanes: c is
    +-1, multiplying by -1 swaps the masks, and the subtraction is one
    lane-wise GF(3) add (`_invert_mod3`).  Every other prime runs on lists
    of residues (`_invert_lists`).
    """
    if p == 2:
        return _invert_mod2(f)
    if p == 3:
        return _invert_mod3(f)
    return _invert_lists(f, p)


def _not_coprime(n: int, d: int) -> NotInvertible:
    return NotInvertible(f"gcd with x^{n} - 1 has degree {d}")


# The packed kernels shift the cofactor where the list loop rotates it: the
# steps keep deg u0 + deg r1 <= N and deg u1 + deg r0 <= N, and deg r1 >= 1
# inside the loop, so x^s*u1 never reaches x^N and no bit wraps.


def _invert_mod2(f: Coeffs) -> list[int]:
    """invert_mod_prime(f, 2) with each polynomial one int."""
    n = len(f)
    r1 = transpose([c % 2 for c in f], 1)[0]
    if not r1:
        raise NotInvertible("zero is not invertible")
    r0, u0, u1 = 1 << n | 1, 0, 1  # x^N - 1 = x^N + 1 over GF(2)
    d0, d1 = n, r1.bit_length() - 1
    while d1 > 0:
        s = d0 - d1
        r0 ^= r1 << s
        u0 ^= u1 << s
        d0 = r0.bit_length() - 1
        if d0 < d1:
            r0, r1, u0, u1, d0, d1 = r1, r0, u1, u0, d1, d0
    if d1 < 0:
        raise _not_coprime(n, d0)
    return transpose([u1], n)


def _invert_mod3(f: Coeffs) -> list[int]:
    """invert_mod_prime(f, 3) with each polynomial a pair of lane masks
    (+1 lanes, -1 lanes).

    The sum a + b is one lane-wise add of seven logic ops: its +1 lanes are
    a+ | b+ and its -1 lanes a- | b-, each toggled on the lanes where both a
    and b are nonzero (1 + 1 = -1, -1 + -1 = 1 and 1 + -1 = 0).
    """
    n = len(f)
    # residue 1 sets bit 0 and residue 2 bit 1: the +1 and the -1 lanes
    p1, m1 = transpose([c % 3 for c in f], 2)
    if not p1 | m1:
        raise NotInvertible("zero is not invertible")
    p0, m0 = 1 << n, 1  # x^N - 1
    up0 = um0 = um1 = 0
    up1 = 1
    d0, d1 = n, (p1 | m1).bit_length() - 1
    while d1 > 0:
        s = d0 - d1
        # r0 - c*x^s*r1 with c = lc(r0)/lc(r1): add x^s*r1 when the leading
        # signs differ (c = -1), and x^s*(-r1) when they agree (c = 1)
        if (p0 >> d0 ^ p1 >> d1) & 1:
            bp, bm, vp, vm = p1 << s, m1 << s, up1 << s, um1 << s
        else:
            bp, bm, vp, vm = m1 << s, p1 << s, um1 << s, up1 << s
        both = (p0 | m0) & (bp | bm)
        p0, m0 = (p0 | bp) ^ both, (m0 | bm) ^ both
        both = (up0 | um0) & (vp | vm)
        up0, um0 = (up0 | vp) ^ both, (um0 | vm) ^ both
        d0 = (p0 | m0).bit_length() - 1
        if d0 < d1:
            p0, m0, p1, m1, d0, d1 = p1, m1, p0, m0, d1, d0
            up0, um0, up1, um1 = up1, um1, up0, um0
    if d1 < 0:
        raise _not_coprime(n, d0)
    if m1:  # r1 = -1: the inverse is -u1
        up1, um1 = um1, up1
    return transpose([up1, um1], n)  # lane value a + 2b: -1 is 2


def _invert_lists(f: Coeffs, p: int) -> list[int]:
    """invert_mod_prime on lists of residues mod p, for any prime p; the
    cofactor's x^s*u1 is a cyclic shift of the length-N list."""
    n = len(f)
    r1 = [c % p for c in f]
    while r1 and r1[-1] == 0:
        r1.pop()
    if not r1:
        raise NotInvertible("zero is not invertible")
    r0 = [p - 1] + [0] * (n - 1) + [1]  # x^N - 1 over GF(p)
    u0, u1 = [0] * n, [1] + [0] * (n - 1)
    while len(r1) > 1:
        s = len(r0) - len(r1)
        c = r0[-1] * pow(r1[-1], -1, p) % p
        r0[s:] = [(a - c * b) % p for a, b in zip(r0[s:], r1)]
        while r0 and r0[-1] == 0:
            r0.pop()
        u0 = [(a - c * b) % p for a, b in zip(u0, u1[n - s:] + u1[:n - s])]
        if len(r0) < len(r1):
            r0, r1, u0, u1 = r1, r0, u1, u0
    if not r1:
        raise _not_coprime(n, len(r0) - 1)
    scale = pow(r1[0], -1, p)
    return [c * scale % p for c in u1]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for odd n < _MR_EXACT_BELOW."""
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p, or None if q is not a prime power
    (q < 2 included).

    A power of two is read off its bits.  Otherwise p is odd and is the
    e-th root of q for the one e at which the root is exact and prime; below
    _MR_EXACT_BELOW the float root rounds to it exactly.  A larger odd q
    raises ValueError.
    """
    if q < 2:
        return None
    if not q & (q - 1):
        return 2, q.bit_length() - 1
    if not q & 1:
        return None
    if q >= _MR_EXACT_BELOW:
        raise ValueError(f"modulus {q} is too large to test for a prime power")
    if _is_prime(q):
        return q, 1
    for e in range(2, q.bit_length()):
        p = round(q ** (1 / e))
        if p < 3:
            break
        if p**e == q and _is_prime(p):
            return p, e
    return None


def invert_mod(f: Coeffs, q: int) -> list[int]:
    """Inverse mod q for q prime or a prime power p^e (covers powers of
    two): the mod-p inverse, Hensel-lifted by b <- b*(2 - f*b), which
    doubles the precision each round."""
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"modulus {q} is not a prime power")
    mod = pe[0]
    b = invert_mod_prime(f, mod)
    while mod < q:
        mod = min(mod * mod, q)
        two_minus = [-c for c in conv_mul(f, b, mod)]
        two_minus[0] += 2
        b = [c % mod for c in conv_mul(b, two_minus, mod)]
    return b


def sample_ternary(
    n: int, d_plus: int, d_minus: int, rng: random.Random
) -> list[int]:
    """Ternary polynomial with exactly d_plus coefficients +1 and d_minus
    coefficients -1, uniformly placed."""
    if d_plus < 0 or d_minus < 0 or d_plus + d_minus > n:
        raise DimensionError("ternary shape does not fit the ring degree")
    out = [0] * n
    positions = rng.sample(range(n), d_plus + d_minus)
    for p in positions[:d_plus]:
        out[p] = 1
    for p in positions[d_plus:]:
        out[p] = -1
    return out


def ternary_shape(f: Coeffs) -> tuple[int, int] | None:
    """(count of +1, count of -1) if f is ternary, else None."""
    plus, minus = f.count(1), f.count(-1)
    if plus + minus + f.count(0) != len(f):
        return None
    return plus, minus


def poly_to_text(f: Coeffs) -> str:
    return " ".join(str(c) for c in f)

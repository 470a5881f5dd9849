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
of the product hold the polynomial product.  The slots are 1, 2, 4 or 8
bytes, or k 8-byte words when a slot is wider than 64 bits, so packing and
unpacking go through `array` and `int.from_bytes`/`int.to_bytes` in C
rather than through a Python shift per slot.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from typing import Sequence

from .errors import DimensionError, NotInvertible
from .f2linalg import transpose

Coeffs = Sequence[int]


def center(value: int, q: int) -> int:
    """Representative of value mod q in (-q/2, q/2]."""
    r = value % q
    if 2 * r > q:
        r -= q
    return r


def center_mod(f: Coeffs, q: int) -> list[int]:
    """Coefficient-wise centered reduction; idempotent."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    return [r - q if 2 * (r := c % q) > q else r for c in f]


# array typecode for each item size: 1, 2, 4 and 8 bytes
_CODES = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


def conv_mul(f: Coeffs, g: Coeffs, q: int | None = None) -> list[int]:
    """Cyclic convolution h_k = sum over i+j = k (mod N) of f_i g_j.

    Exact over the integers when q is None; otherwise reduced to centered
    representatives mod q.  An exact product is the product mod Q = 2B + 2,
    where B = N * max|f_i| * max|g_j| bounds every |h_k|: the centered
    residues in (-Q/2, Q/2] cover [-B, B], so they are the integer
    coefficients.

    Both operands' residues go into one big integer, a slot of at least
    (N * (q-1)^2).bit_length() + 1 bits per coefficient, so one bignum
    multiply performs the whole convolution and no slot overflows.  A slot
    is 1, 2, 4 or 8 bytes, or k 8-byte words (low word first) past 64 bits;
    packing and unpacking go through an `array` of that item size and
    `int.from_bytes`/`int.to_bytes`, and the high N slots of the product
    are added onto the low N (x^N = 1).
    """
    n = len(f)
    if len(g) != n:
        raise DimensionError(f"ring degree mismatch: {n} != {len(g)}")
    if n == 0:
        return []
    if q is None:
        q = 2 * n * max(map(abs, f)) * max(map(abs, g)) + 2
    width = (n * (q - 1) * (q - 1)).bit_length() + 1
    word = min(8, 1 << (max(width, 8) - 1).bit_length() - 3)  # 1, 2, 4 or 8 bytes
    k = -(-width // (8 * word))  # words per slot: 1 unless the slot is wide
    code = _CODES[word]
    size = n * k * word  # bytes of one packed operand

    def pack(a: Coeffs) -> int:
        words = array(code, bytes(size))
        res = [c % q for c in a]
        for j in range(k - 1):
            words[j::k] = array(code, [r & 0xFFFFFFFFFFFFFFFF for r in res])
            res = [r >> 64 for r in res]
        words[k - 1::k] = array(code, res)
        if _BIG_ENDIAN:
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")

    prod = pack(f) * pack(g)
    # x^N = 1: add the high N slots onto the low N (no slot overflows)
    prod = (prod & ((1 << 8 * size) - 1)) + (prod >> 8 * size)
    words = array(code, prod.to_bytes(size, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    slots = words[k - 1::k]
    for j in range(k - 2, -1, -1):
        slots = [s << 64 | w for s, w in zip(slots, words[j::k])]
    return [r - q if 2 * (r := s % q) > q else r for s in slots]


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


def invert_mod_prime_power(f: Coeffs, p: int, e: int) -> list[int]:
    """Inverse of f mod p^e by Hensel lifting of the mod-p inverse:
    b <- b*(2 - f*b) doubles the precision each round."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    target = p**e
    b = invert_mod_prime(f, p)
    mod = p
    while mod < target:
        mod = min(mod * mod, target)
        two_minus = [-c for c in conv_mul(f, b, mod)]
        two_minus[0] += 2
        b = [c % mod for c in conv_mul(b, two_minus, mod)]
    return b


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p, or None if q is not a prime power
    (q < 2 included)."""
    if q < 2:
        return None
    # the smallest divisor >= 2 is the only prime p^e can have
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def invert_mod(f: Coeffs, q: int) -> list[int]:
    """Inverse mod q for q prime or a prime power (covers powers of two)."""
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"modulus {q} is not a prime power")
    return invert_mod_prime_power(f, *pe)


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
    plus = minus = 0
    for c in f:
        if c == 1:
            plus += 1
        elif c == -1:
            minus += 1
        elif c != 0:
            return None
    return plus, minus


def poly_to_text(f: Coeffs) -> str:
    return " ".join(str(c) for c in f)

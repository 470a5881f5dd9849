"""Arithmetic in Z[x]/(x^N - 1): cyclic convolution and modular inverses.

Polynomials are plain lists of N integers, index i holding the coefficient
of x^i.  Reduction modulo q is always to the centered interval (-q/2, q/2]
unless a function says otherwise.  Inverses modulo a prime come from the
extended Euclidean algorithm in GF(p)[x]; prime-power moduli are reached by
Hensel lifting, covering the power-of-two q used at recommended sizes.

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
    makes the same move on the cofactor, where x^s*u1 is a cyclic shift of
    the length-N list; the pair swaps once r0 drops below r1.  When r1 is a
    nonzero constant, u1/r1 is the inverse; when it reaches zero, r0 is the
    gcd with x^N - 1.
    """
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
        raise NotInvertible(f"gcd with x^{n} - 1 has degree {len(r0) - 1}")
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

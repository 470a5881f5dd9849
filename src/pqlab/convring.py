"""Arithmetic in Z[x]/(x^N - 1): cyclic convolution and modular inverses.

Polynomials are plain lists of N integers, index i holding the coefficient
of x^i.  Reduction modulo q is always to the centered interval (-q/2, q/2]
unless a function says otherwise.  Inverses modulo a prime come from the
extended Euclidean algorithm in GF(p)[x]; prime-power moduli are reached by
Hensel lifting, covering the power-of-two q used at recommended sizes.
"""

from __future__ import annotations

import math
import random
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
    return [center(c, q) for c in f]


def conv_mul(f: Coeffs, g: Coeffs, q: int | None = None) -> list[int]:
    """Cyclic convolution h_k = sum over i+j = k (mod N) of f_i g_j.

    Exact over the integers when q is None; otherwise reduced to centered
    representatives mod q.  The modular path packs both operands into one
    big integer with fixed-width slots so a single bignum multiply performs
    the whole convolution; the plain path is a sparse schoolbook loop, which
    is fast for the ternary operands the cryptosystem uses.
    """
    n = len(f)
    if len(g) != n:
        raise DimensionError(f"ring degree mismatch: {n} != {len(g)}")
    if n == 0:
        return []
    if q is None:
        out = [0] * n
        for i, fi in enumerate(f):
            if fi:
                for j, gj in enumerate(g):
                    if gj:
                        k = i + j
                        if k >= n:
                            k -= n
                        out[k] += fi * gj
        return out
    # pack: slot width large enough for n * (q-1)^2 plus carry headroom
    width = (n * (q - 1) * (q - 1)).bit_length() + 1
    mask = (1 << width) - 1
    fa = 0
    for i in range(n - 1, -1, -1):
        fa = (fa << width) | (f[i] % q)
    ga = 0
    for i in range(n - 1, -1, -1):
        ga = (ga << width) | (g[i] % q)
    prod = fa * ga
    out = [0] * n
    for k in range(2 * n - 1):
        slot = (prod >> (k * width)) & mask
        i = k if k < n else k - n
        out[i] += slot
    return [center(c, q) for c in out]


def is_zero(f: Coeffs) -> bool:
    return all(c == 0 for c in f)


# -- GF(p)[x] helpers for ring inversion (coefficients in [0, p)) --


def _gfp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    b = _gfp_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c == 0:
            a[i] = 0
            continue
        qc = (c * inv_lead) % p
        quo[i - db] = qc
        for j, bc in enumerate(b):
            a[i - db + j] = (a[i - db + j] - qc * bc) % p
    return _gfp_trim(quo), _gfp_trim(a)


def _gfp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _gfp_trim(out)


def _gfp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _gfp_trim(out)


def invert_mod_prime(f: Coeffs, p: int) -> list[int]:
    """Inverse of f in (Z/p)[x]/(x^N - 1) via the extended Euclidean
    algorithm against x^N - 1.  Coefficients returned in [0, p)."""
    n = len(f)
    modulus = [0] * n + [1]
    modulus[0] = p - 1  # x^N - 1 over GF(p)
    a = _gfp_trim([c % p for c in f])
    if not a:
        raise NotInvertible("zero is not invertible")
    # EEA tracking only the f-side cofactor: u*f = r (mod x^N - 1)
    r0, r1 = modulus, a
    u0: list[int] = []
    u1: list[int] = [1]
    while r1:
        quo, rem = _gfp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        u0, u1 = u1, _gfp_sub(u0, _gfp_mul(quo, u1, p), p)
    if len(r0) != 1:
        raise NotInvertible(f"gcd with x^{n} - 1 has degree {len(r0) - 1}")
    scale = pow(r0[0], -1, p)
    inv = [(c * scale) % p for c in u0]
    _, inv = _gfp_divmod(inv, modulus, p)
    out = [0] * n
    for i, c in enumerate(inv):
        out[i] = c
    return out


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
        fb = conv_mul(f, b, mod)
        two_minus = [-c % mod for c in fb]
        two_minus[0] = (two_minus[0] + 2) % mod
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

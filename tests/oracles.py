"""Scalar oracles shared by the test modules."""

import math
from fractions import Fraction

from pqlab.errors import (
    DecodingFailure,
    DimensionError,
    DivisionByZero,
    MessageRangeError,
    RankError,
)
from pqlab.f2linalg import BinVector
from pqlab.gf2m import FieldPoly
from pqlab.ntru import block_bytes
from pqlab.packing import pack, unpack


def center(value, q):
    """Representative of value mod q in (-q/2, q/2], one scalar at a time:
    the reference for convring.center_mod."""
    r = value % q
    if 2 * r > q:
        r -= q
    return r


def conv_oracle(f, g):
    """Schoolbook polynomial product, then x^k folded onto x^(k mod N): the
    reference for convring.conv_mul."""
    n = len(f)
    prod = [0] * (2 * n)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] += fi * gj
    out = [0] * n
    for k, c in enumerate(prod):
        out[k % n] += c
    return out


def centred_slots_ref(slots, offset, q):
    """conv_mul's pass over a product's slots before they were reduced in
    the packed int: the centered residue of each slot plus offset, mod q."""
    half = (q - 1) // 2
    return [(s + offset + half) % q - half for s in slots]


def decrypt_slots_ref(slots, offset, q, p):
    """ntru.decrypt's pass over the slots of f * c before they were reduced
    in the packed int: centered mod q, then reduced mod p to [0, p)."""
    return [c % p for c in centred_slots_ref(slots, offset, q)]


def poly_eval(p, x):
    """p(x) for one field element x, by Horner's rule with the scalar
    field product: the per-position reference for the sliced kernels."""
    mul = p.ctx.mul
    acc = 0
    for c in reversed(p.coeffs):
        acc = mul(acc, x) ^ c
    return acc


def poly_eea_partial_ref(p, q, stop_deg):
    """EEA on (p, q) by whole FieldPoly divisions, stopping at the first
    remainder of degree <= stop_deg: the reference for the fused
    leading-term loop in gf2m.  Returns (r, v) with r = v*q (mod p)."""
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


def patterson_decode_ref(code, received):
    """Patterson's decoder stage by stage on FieldPoly arithmetic: the
    reference for goppa.patterson_decode.

    The inverses come from the textbook EEA above, sqrt(x) and sqrt(T + x)
    from the split of g and of T + x (Huber), and the root search evaluates
    sigma at each support element by poly_eval, so the decoder's stages
    share only FieldPoly's product and division with it.
    """
    if received.n != code.n:
        raise DimensionError("received word length mismatch")
    s = code.syndrome(received)
    if s.is_zero():
        return received, BinVector(code.n, 0)
    g, ctx = code.g, code.ctx

    def inverse(p):
        r, v = poly_eea_partial_ref(g, p % g, 0)
        if r.is_zero():
            raise DivisionByZero("polynomial is not invertible modulo the given modulus")
        return v.scale(ctx.inv(r.coeffs[0]))

    g0, g1 = g.sqrt_split()
    sqrt_x = g0 * inverse(g1) % g
    u0, u1 = ((inverse(s) + FieldPoly.x(ctx)) % g).sqrt_split()
    a, b = poly_eea_partial_ref(g, (u0 + sqrt_x * u1) % g, code.t // 2)
    sigma = a.square() + FieldPoly.x(ctx) * b.square()
    roots = [j for j, alpha in enumerate(code.support) if not poly_eval(sigma, alpha)]
    if len(roots) != sigma.degree:
        raise DecodingFailure(f"locator of degree {sigma.degree} has {len(roots)} support roots")
    error = BinVector.from_support(code.n, roots)
    return received + error, error


def poly_gcd(p, q):
    """Monic gcd of two FieldPolys by Euclid's remainder sequence."""
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


def is_irreducible_ref(p):
    """Ben-Or's test on FieldPoly values, one square and one division per
    squaring: the reference for the packed kernel in gf2m.

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


def span_rank(a):
    """GF(2) rank of a BinMatrix as log2 of the size of its row span, found
    by enumerating the span: no elimination, so it checks the eliminator
    from outside.  Desk-scale only: the span has up to 2^rows members."""
    span = {0}
    for r in a.data:
        span |= {x ^ r for x in span}
    return len(span).bit_length() - 1


def gauss_jordan(a):
    """Reduced row echelon form of a BinMatrix by textbook Gauss-Jordan on
    unpacked bits: one column at a time, the first row below the pivots
    with a 1 there is swapped up and that column is cleared from every
    other row, entry by entry.  Returns (the nonzero reduced rows as packed
    ints, the pivot columns)."""
    m = [[(r >> j) & 1 for j in range(a.cols)] for r in a.data]
    pivots = []
    for j in range(a.cols):
        top = len(pivots)
        src = next((i for i in range(top, len(m)) if m[i][j]), None)
        if src is None:
            continue
        m[top], m[src] = m[src], m[top]
        for i in range(len(m)):
            if i != top and m[i][j]:
                m[i] = [x ^ y for x, y in zip(m[i], m[top])]
        pivots.append(j)
    rows = [sum(b << j for j, b in enumerate(row)) for row in m[: len(pivots)]]
    return rows, pivots


def ripple_weight_slices(columns):
    """Binary weight slices of lane masks by a ripple counter: each column
    is added into the slices from slice 0 up, its carry ANDed out slice by
    slice, and a carry left over starts a new slice.  The reference for
    the carry-save counter analysis._weight_slices."""
    slices = []
    for x in columns:
        for i, s in enumerate(slices):
            if not x:
                break
            slices[i] = s ^ x
            x &= s
        else:
            if x:
                slices.append(x)
    return slices


def gray_codewords(g):
    """Yield (message_int, codeword_bits) over all 2^k messages, flipping one
    message bit per step so each codeword is one row XOR away from the last."""
    k = g.rows
    rows = g.data
    word = 0
    msg = 0
    yield 0, 0
    for step in range(1, 1 << k):
        bit = (step & -step).bit_length() - 1
        word ^= rows[bit]
        msg ^= 1 << bit
        yield msg, word


def min_weight_gray(g):
    """Minimum nonzero codeword weight and the first codeword of that weight
    in Gray order, one codeword per step: the reference for the sliced
    min_weight_bruteforce."""
    best_w = g.cols + 1
    best = 0
    for msg, word in gray_codewords(g):
        if msg == 0:
            continue
        w = word.bit_count()
        if 0 < w < best_w:
            best_w = w
            best = word
    return best_w, BinVector(g.cols, best)


def weight_spectrum_gray(g):
    """Codeword weight histogram, one codeword per step: the reference for
    the sliced weight_spectrum."""
    counts = {}
    for _, word in gray_codewords(g):
        w = word.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return counts


def nearest_codeword_gray(g, w):
    """Codeword nearest to w, ties toward the lexicographically smallest
    message (bit 0 first), one codeword per step: the reference for the
    sliced nearest_codeword_bruteforce."""
    wb = w.bits
    best_idx = 0
    best_word = 0
    best_dist = wb.bit_count()
    for msg, word in gray_codewords(g):
        d = (word ^ wb).bit_count()
        # on a tie, msg comes first iff it has a 0 at the lowest bit where
        # it differs from best_idx
        if d < best_dist or (
            d == best_dist and not msg & (msg ^ best_idx) & -(msg ^ best_idx)
        ):
            best_dist = d
            best_idx = msg
            best_word = word
    return BinVector(g.cols, best_word)


def prime_power_ref(q):
    """(p, e) with q = p^e by trial division up to sqrt(q): the reference
    for convring.prime_power."""
    if q < 2:
        return None
    # the smallest divisor >= 2 is the only prime p^e can have
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def bytes_to_blocks_ref(data, n):
    """Blocks of N centered base-3 digits, one divmod by 3 per digit: the
    reference for ntru._bytes_to_blocks."""
    blocks = []
    for value in pack(data, 8 * block_bytes(n)):
        digits = []
        for _ in range(n):
            value, d = divmod(value, 3)
            digits.append(center(d, 3))
        blocks.append(digits)
    return blocks


def blocks_to_bytes_ref(blocks, n):
    """Bytes from blocks of base-3 digits, one multiply by 3 per digit: the
    reference for ntru._blocks_to_bytes."""
    width = 8 * block_bytes(n)
    values = []
    for digits in blocks:
        value = 0
        for d in reversed(digits):
            value = value * 3 + (d % 3)
        if value >> width:
            raise MessageRangeError("decrypted block out of byte range")
        values.append(value)
    return unpack(values, width)


def lll_reduce_ref(basis, delta=Fraction(3, 4)):
    """Integral LLL (Cohen, GTM 138, Alg. 2.6.7) with the Gram-Schmidt
    data of every row formed up front and every row below k updated on a
    swap: the reference for lattice.lll_reduce, which forms a row's data
    when LLL first reaches it and updates only reached rows."""
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
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise RankError("dependent rows in basis")
            else:
                d[i + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q, r = divmod(lam[k][l], d[l + 1])
        if 2 * r > d[l + 1] or (2 * r == d[l + 1] and q % 2):
            q += 1
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        for j in range(l):
            lam[k][j] -= q * lam[l][j]
        lam[k][l] -= q * d[l + 1]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if den * (d[k + 1] * d[k - 1] + lk * lk) >= num * d[k] * d[k]:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
        else:
            # swap rows k-1, k; lam[k][k-1] is unchanged by the swap
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            new_dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (new_dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = new_dk
            k = max(k - 1, 1)
    return b

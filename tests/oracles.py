"""Scalar oracles shared by the test modules."""

from pqlab.f2linalg import BinVector
from pqlab.gf2m import FieldPoly


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

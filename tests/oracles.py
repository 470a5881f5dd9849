"""Scalar oracles shared by the test modules."""


def poly_eval(p, x):
    """p(x) for one field element x, by Horner's rule with the scalar
    field product: the per-position reference for the sliced kernels."""
    mul = p.ctx.mul
    acc = 0
    for c in reversed(p.coeffs):
        acc = mul(acc, x) ^ c
    return acc


def span_rank(a):
    """GF(2) rank of a BinMatrix as log2 of the size of its row span, found
    by enumerating the span: no elimination, so it checks the eliminator
    from outside.  Desk-scale only: the span has up to 2^rows members."""
    span = {0}
    for r in a.data:
        span |= {x ^ r for x in span}
    return len(span).bit_length() - 1

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

"""Scalar oracles shared by the test modules."""


def poly_eval(p, x):
    """p(x) for one field element x, by Horner's rule with the scalar
    field product: the per-position reference for the sliced kernels."""
    mul = p.ctx.mul
    acc = 0
    for c in reversed(p.coeffs):
        acc = mul(acc, x) ^ c
    return acc

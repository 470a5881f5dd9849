"""GF(2^m) field and polynomial arithmetic."""

import random

import pytest

from pqlab.errors import DivisionByZero
from pqlab.gf2m import (
    MODULI,
    FieldCtx,
    FieldPoly,
    is_irreducible,
    poly_eea_partial,
    poly_gcd,
    poly_inv_mod,
    random_irreducible,
    random_poly,
    sqrt_mod_g,
)


# -- field contexts --


def test_moduli_table_degrees():
    assert sorted(MODULI) == list(range(2, 14))
    for m, mod in MODULI.items():
        assert mod.bit_length() == m + 1


@pytest.mark.parametrize("m", sorted(MODULI))
def test_every_modulus_builds_a_field(m):
    # FieldCtx re-verifies primitivity while building log tables
    ctx = FieldCtx(m)
    assert ctx.order == 1 << m
    # x (element 0b10) generates the whole multiplicative group
    seen = set()
    a = 1
    for _ in range(ctx.order - 1):
        seen.add(a)
        a = ctx.mul(a, 0b10)
    assert len(seen) == ctx.order - 1
    assert a == 1


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        FieldCtx(1)
    with pytest.raises(ValueError):
        FieldCtx(14)


def test_modulus_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        FieldCtx(4, modulus=MODULI[5])


def test_non_primitive_modulus_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
    with pytest.raises(ValueError):
        FieldCtx(4, modulus=0b11111)


def test_addition_is_xor():
    # XOR is the field addition: multiplication distributes over it
    ctx = FieldCtx(4)
    for a in range(16):
        for b in range(16):
            for c in range(16):
                assert ctx.mul(a ^ b, c) == ctx.mul(a, c) ^ ctx.mul(b, c)


def test_x_times_x_cubed_wraps():
    # x * x^3 = x^4 = x + 1 under x^4 + x + 1
    ctx = FieldCtx(4)
    assert ctx.mul(0b10, 0b1000) == 0b0011


def test_multiplication_matches_carryless_reduction():
    # independent oracle: shift-and-xor multiply, then reduce by the modulus
    ctx = FieldCtx(5)
    mod = MODULI[5]

    def slow_mul(a, b):
        prod = 0
        for i in range(a.bit_length()):
            if (a >> i) & 1:
                prod ^= b << i
        for i in range(prod.bit_length() - 1, 4, -1):
            if (prod >> i) & 1:
                prod ^= mod << (i - 5)
        return prod

    for a in range(32):
        for b in range(32):
            assert ctx.mul(a, b) == slow_mul(a, b)


def test_inverses_exhaustive_m4():
    ctx = FieldCtx(4)
    for a in range(1, 16):
        assert ctx.mul(a, ctx.inv(a)) == 1
        # Fermat: a^(2^m - 1) = 1
        assert ctx.pow(a, 15) == 1


def test_division_by_zero():
    ctx = FieldCtx(4)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -1)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0


def test_pow_matches_repeated_mul():
    ctx = FieldCtx(6)
    a = 0b10110
    acc = 1
    for e in range(20):
        assert ctx.pow(a, e) == acc
        acc = ctx.mul(acc, a)


# -- polynomials --


def test_poly_basics():
    ctx = FieldCtx(4)
    p = FieldPoly([1, 0, 3], ctx)
    assert p.degree == 2
    assert p[0] == 1 and p[1] == 0 and p[2] == 3
    assert p[99] == 0
    assert not FieldPoly.zero(ctx)
    assert FieldPoly.one(ctx).degree == 0
    x = FieldPoly.x(ctx)
    assert x.degree == 1 and x[1] == 1


def test_poly_add_is_coefficientwise_xor():
    ctx = FieldCtx(4)
    p = FieldPoly([1, 2, 3], ctx)
    q = FieldPoly([3, 2, 3], ctx)
    s = p + q
    assert s == FieldPoly([2], ctx)
    # trailing zeros trimmed: degree dropped from 2 to 0
    assert s.degree == 0


def test_poly_mul_degree_and_commutativity(rng):
    ctx = FieldCtx(5)
    for _ in range(50):
        p = random_poly(ctx, rng.randrange(1, 6), rng)
        q = random_poly(ctx, rng.randrange(1, 6), rng)
        assert p * q == q * p
        assert (p * q).degree == p.degree + q.degree


def test_poly_divmod_identity(rng):
    ctx = FieldCtx(5)
    for _ in range(100):
        p = random_poly(ctx, rng.randrange(0, 8), rng)
        q = random_poly(ctx, rng.randrange(0, 5), rng)
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.is_zero() or rem.degree < q.degree


def test_poly_division_by_zero():
    ctx = FieldCtx(4)
    p = FieldPoly([1, 1], ctx)
    with pytest.raises(DivisionByZero):
        p.divmod(FieldPoly.zero(ctx))


def test_poly_square_matches_self_mul(rng):
    ctx = FieldCtx(6)
    for _ in range(30):
        p = random_poly(ctx, rng.randrange(0, 6), rng)
        assert p.square() == p * p


def test_poly_eval():
    ctx = FieldCtx(4)
    # p(y) = y^2 + 3y + 1
    p = FieldPoly([1, 3, 1], ctx)
    for y in range(16):
        expected = ctx.mul(y, y) ^ ctx.mul(3, y) ^ 1
        assert p.eval(y) == expected


def test_poly_gcd_divides_both(rng):
    ctx = FieldCtx(4)
    for _ in range(50):
        p = random_poly(ctx, rng.randrange(1, 5), rng)
        q = random_poly(ctx, rng.randrange(1, 5), rng)
        d = poly_gcd(p, q)
        assert (p % d).is_zero()
        assert (q % d).is_zero()
        assert d.coeffs[-1] == 1  # monic


def test_poly_gcd_common_factor(rng):
    ctx = FieldCtx(4)
    w = random_poly(ctx, 2, rng)
    p = random_poly(ctx, 3, rng) * w
    q = random_poly(ctx, 2, rng) * w
    d = poly_gcd(p, q)
    assert (d % w.monic()).is_zero() or (w.monic() % d).is_zero() or d.degree >= w.degree
    # at minimum w divides into the gcd computation: gcd is a multiple of any
    # common factor, so deg(gcd) >= deg(w) after making both monic
    assert d.degree >= 2


def test_poly_eea_partial_stop_degree(rng):
    ctx = FieldCtx(4)
    for _ in range(50):
        p = random_poly(ctx, 6, rng)
        q = random_poly(ctx, rng.randrange(1, 6), rng) % p
        if q.is_zero():
            continue
        stop = rng.randrange(0, 4)
        r, v = poly_eea_partial(p, q, stop)
        assert r.degree <= stop
        # r = v*q (mod p)
        assert (v * q + r) % p == FieldPoly.zero(ctx) or (v * q) % p == r % p
        assert (v * q) % p == r % p


def test_poly_inv_mod(rng):
    ctx = FieldCtx(4)
    g = random_irreducible(ctx, 3, rng)
    for _ in range(30):
        low = random_poly(ctx, rng.randrange(0, 3), rng).scale(rng.randrange(1, ctx.order))
        # degree at and above deg g, with the same residue mod g
        for p in (low, low + g, low + g * random_poly(ctx, rng.randrange(1, 5), rng)):
            inv = poly_inv_mod(p, g)
            assert inv.degree < g.degree
            assert (p * inv) % g == FieldPoly.one(ctx)


def test_poly_inv_mod_not_coprime(rng):
    ctx = FieldCtx(4)
    x = FieldPoly.x(ctx)
    mod = x * (x + FieldPoly.one(ctx))
    with pytest.raises(DivisionByZero):
        poly_inv_mod(x, mod)
    # a nonzero multiple of the modulus reduces to zero
    with pytest.raises(DivisionByZero):
        poly_inv_mod(mod * random_poly(ctx, 2, rng), mod)


# -- irreducibility --


def test_degree_one_always_irreducible():
    ctx = FieldCtx(4)
    for c in range(16):
        assert is_irreducible(FieldPoly([c, 1], ctx))


def test_constructed_product_is_reducible(rng):
    ctx = FieldCtx(4)
    for _ in range(20):
        p = random_poly(ctx, rng.randrange(1, 3), rng)
        q = random_poly(ctx, rng.randrange(1, 3), rng)
        assert not is_irreducible(p * q)


def test_quadratic_irreducibility_against_root_oracle():
    # independent oracle: a quadratic over a field is irreducible iff it has
    # no root; sweep every monic quadratic over GF(2^4)
    ctx = FieldCtx(4)
    for a in range(16):
        for b in range(16):
            p = FieldPoly([b, a, 1], ctx)
            has_root = any(p.eval(y) == 0 for y in range(ctx.order))
            assert is_irreducible(p) == (not has_root)


def test_cubic_irreducibility_against_root_oracle(rng):
    # degree 3 likewise factors iff it has a linear factor
    ctx = FieldCtx(4)
    for _ in range(200):
        p = random_poly(ctx, 3, rng)
        has_root = any(p.eval(y) == 0 for y in range(ctx.order))
        assert is_irreducible(p) == (not has_root)


def test_multiple_of_x_is_reducible():
    ctx = FieldCtx(4)
    assert not is_irreducible(FieldPoly([0, 0, 1], ctx))
    assert not is_irreducible(FieldPoly.one(ctx))
    assert not is_irreducible(FieldPoly.zero(ctx))


def test_random_irreducible_deterministic():
    ctx = FieldCtx(5)
    a = random_irreducible(ctx, 3, random.Random(7))
    b = random_irreducible(ctx, 3, random.Random(7))
    assert a == b
    assert a.degree == 3
    assert is_irreducible(a)
    with pytest.raises(ValueError):
        random_irreducible(ctx, 0, random.Random(7))


# -- square roots mod g --


def test_sqrt_mod_g_roundtrip(rng):
    ctx = FieldCtx(4)
    g = random_irreducible(ctx, 3, rng)
    for _ in range(50):
        u = random_poly(ctx, rng.randrange(0, 3), rng)
        s = sqrt_mod_g(u, g)
        assert s.square() % g == u % g


def test_sqrt_mod_g_of_square(rng):
    ctx = FieldCtx(5)
    g = random_irreducible(ctx, 4, rng)
    for _ in range(20):
        w = random_poly(ctx, rng.randrange(0, 4), rng)
        sq = w.square() % g
        s = sqrt_mod_g(sq, g)
        # squaring is a bijection mod irreducible g, so the root is unique
        assert s == w % g

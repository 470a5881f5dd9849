"""GF(2^m) field and polynomial arithmetic."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab.errors import DivisionByZero
from pqlab.f2linalg import transpose
from pqlab.gf2m import (
    EVAL_GROUP,
    MODULI,
    FieldCtx,
    FieldPoly,
    is_irreducible,
    poly_eea_partial,
    poly_inv_mod,
    random_irreducible,
    random_poly,
    sliced_eval,
    sliced_horner,
    sliced_mul,
    sliced_power_tables,
    sliced_zeros,
    sqrt_mod_g,
    sqrt_x_mod_g,
)

from oracles import is_irreducible_ref, poly_eea_partial_ref, poly_eval, poly_gcd


# -- field contexts --


def test_moduli_table_degrees():
    assert sorted(MODULI) == list(range(2, 14))
    for m, mod in MODULI.items():
        assert mod.bit_length() == m + 1


@pytest.mark.parametrize("m", sorted(MODULI))
def test_every_modulus_builds_a_field(m):
    # each MODULI[m] is primitive: the log tables FieldCtx builds from it
    # must reach every nonzero element
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


def test_reprs_hashes_and_monic_zero():
    ctx = FieldCtx(4)
    assert hash(FieldCtx(4)) == hash(ctx) and repr(ctx) == "FieldCtx(m=4)"
    p, q = FieldPoly([1, 0, 3], ctx), FieldPoly([1, 0, 3, 0], FieldCtx(4))
    assert hash(p) == hash(q) and {p, q} == {p}
    assert repr(p) == "FieldPoly([1, 0, 3], m=4)"
    assert FieldPoly.zero(ctx).monic() == FieldPoly.zero(ctx)


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
        assert poly_eval(p, y) == expected


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


@st.composite
def _eea_inputs(draw):
    """(p, q, stop_deg) over GF(2^m), m = 2-13: q random (of degree below,
    at or above p's), zero, a constant, or sharing a factor with p; stop_deg
    from 0 to past deg p."""
    m = draw(st.integers(2, 13))
    ctx = FieldCtx(m)
    elem = st.integers(0, ctx.order - 1)

    def poly(max_deg):
        return FieldPoly(draw(st.lists(elem, max_size=max_deg + 1)), ctx)

    p = poly(12)
    kind = draw(st.sampled_from(["random", "zero", "constant", "common factor"]))
    if kind == "random":
        q = poly(14)
    elif kind == "zero":
        q = FieldPoly.zero(ctx)
    elif kind == "constant":
        q = FieldPoly([draw(st.integers(1, ctx.order - 1))], ctx)
    else:
        h = poly(4)
        p, q = p * h, poly(6) * h
    return p, q, draw(st.integers(0, 14))


@settings(max_examples=300, deadline=None)
@given(_eea_inputs())
def test_poly_eea_partial_matches_reference(case):
    p, q, stop = case
    assert poly_eea_partial(p, q, stop) == poly_eea_partial_ref(p, q, stop)


@settings(max_examples=200, deadline=None)
@given(_eea_inputs())
def test_poly_inv_mod_matches_reference(case):
    # the inverse is the reference cofactor over its constant remainder; a
    # common factor leaves remainder 0, and poly_inv_mod must raise
    mod, p, _ = case
    if mod.degree < 1:
        return
    r, v = poly_eea_partial_ref(mod, p % mod, 0)
    if r.is_zero():
        with pytest.raises(DivisionByZero):
            poly_inv_mod(p, mod)
    else:
        inv = poly_inv_mod(p, mod)
        assert inv == v.scale(mod.ctx.inv(r.coeffs[0]))
        assert (inv * p) % mod == FieldPoly.one(mod.ctx)


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
            has_root = any(poly_eval(p, y) == 0 for y in range(ctx.order))
            assert is_irreducible(p) == (not has_root)


def test_cubic_irreducibility_against_root_oracle(rng):
    # degree 3 likewise factors iff it has a linear factor
    ctx = FieldCtx(4)
    for _ in range(200):
        p = random_poly(ctx, 3, rng)
        has_root = any(poly_eval(p, y) == 0 for y in range(ctx.order))
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


@st.composite
def _irreducibility_candidates(draw):
    """A polynomial of degree 0-20 over GF(2^m), m = 2-13, with any nonzero
    lead: random, with a zero constant term, with a nonzero root, a product
    of two random polynomials, an irreducible, or the square of one."""
    m = draw(st.integers(2, 13))
    ctx = FieldCtx(m)
    elem = st.integers(0, ctx.order - 1)
    lead = draw(st.integers(1, ctx.order - 1))

    def poly(deg):
        return FieldPoly(draw(st.lists(elem, min_size=deg, max_size=deg)) + [lead], ctx)

    kinds = ["random", "x divides", "has a root", "product", "irreducible", "square"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return poly(draw(st.integers(0, 20)))
    if kind == "x divides":
        return poly(draw(st.integers(0, 19))) * FieldPoly.x(ctx)
    if kind == "has a root":
        root = draw(st.integers(1, ctx.order - 1))
        return poly(draw(st.integers(0, 19))) * FieldPoly([root, 1], ctx)
    if kind == "product":
        a = draw(st.integers(1, 19))
        return poly(a) * poly(draw(st.integers(1, 20 - a)))
    # drawn through the reference, so a broken kernel cannot stall the draw
    rng = random.Random(draw(st.integers(0, 99)))
    deg = draw(st.integers(1, 10))
    while not is_irreducible_ref(g := random_poly(ctx, deg, rng)):
        pass
    return (g if kind == "irreducible" else g.square()).scale(lead)


@settings(max_examples=300, deadline=None)
@given(_irreducibility_candidates())
def test_is_irreducible_matches_reference(p):
    assert is_irreducible(p) == is_irreducible_ref(p)


def _mobius(n):
    sign, k = 1, 2
    while n > 1:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            sign = -sign
        k += 1
    return sign


@pytest.mark.parametrize("m, d, expected", [(2, 4, 60), (2, 5, 204), (3, 4, 1008)])
def test_irreducible_count_matches_gauss_formula(m, d, expected):
    # monic irreducibles of degree d over GF(q): (1/d) sum_{e | d} mu(d/e) q^e
    q = 1 << m
    gauss = sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d
    assert gauss == expected
    ctx = FieldCtx(m)
    count = sum(
        is_irreducible(FieldPoly(low + (1,), ctx))
        for low in itertools.product(range(q), repeat=d)
    )
    assert count == expected


# -- log-domain kernels against a per-term schoolbook --


def _schoolbook_mul(p, q):
    ctx = p.ctx
    out = [0] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] ^= ctx.mul(a, b)
    return FieldPoly(out, ctx)


def _schoolbook_divmod(p, d):
    ctx = p.ctx
    dd = d.degree
    lead_inv = ctx.inv(d.coeffs[-1])
    rem = list(p.coeffs)
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        q = ctx.mul(rem[i], lead_inv)
        quo[i - dd] = q
        for j, b in enumerate(d.coeffs):
            rem[i - dd + j] ^= ctx.mul(q, b)
    return FieldPoly(quo, ctx), FieldPoly(rem, ctx)


def _any_poly(ctx, deg, rng):
    """Degree exactly deg (zero for deg < 0), any nonzero leading
    coefficient, and zero inner coefficients about a third of the time."""
    if deg < 0:
        return FieldPoly.zero(ctx)
    cs = [rng.randrange(ctx.order) if rng.random() < 0.67 else 0 for _ in range(deg)]
    return FieldPoly(cs + [rng.randrange(1, ctx.order)], ctx)


@pytest.mark.parametrize("m", sorted(MODULI))
def test_kernels_match_schoolbook(m):
    ctx = FieldCtx(m)
    rng = random.Random(1000 + m)
    zero = FieldPoly.zero(ctx)
    for trial in range(40):
        p = _any_poly(ctx, rng.randrange(-1, 12), rng)
        q = _any_poly(ctx, rng.randrange(-1, 12), rng)
        # every fourth divisor is one term c*x^k; most divisors are not monic
        if trial % 4 == 0:
            d = FieldPoly([0] * rng.randrange(0, 4) + [rng.randrange(1, ctx.order)], ctx)
        else:
            d = _any_poly(ctx, rng.randrange(0, 8), rng)
        assert p * q == _schoolbook_mul(p, q)
        assert p * zero == zero * p == zero
        assert p.square() == _schoolbook_mul(p, p)
        quo, rem = p.divmod(d)
        assert (quo, rem) == _schoolbook_divmod(p, d)
        assert quo * d + rem == p
        assert rem.degree < d.degree
    assert zero.square() == zero
    assert zero.divmod(FieldPoly([rng.randrange(1, ctx.order)], ctx)) == (zero, zero)


# -- square roots mod g --


def _sqrt_by_squaring(u, g):
    """Independent oracle: u^(2^(mt-1)) mod an irreducible g.  The quotient
    field has 2^(mt) elements, so mt-1 further squarings of u give its
    square root."""
    r = u % g
    for _ in range(g.ctx.m * g.degree - 1):
        r = r.square() % g
    return r


@pytest.mark.parametrize("m", sorted(MODULI))
def test_field_sqrt_table(m):
    ctx = FieldCtx(m)
    assert len(ctx.sqrt) == ctx.order
    for a in range(ctx.order):
        assert ctx.mul(ctx.sqrt[a], ctx.sqrt[a]) == a


@pytest.mark.parametrize("m, t, seed, count", [
    (4, 3, 1, 40), (5, 4, 2, 40), (8, 10, 3, 20), (10, 50, 4, 2),
])
def test_sqrt_mod_g_matches_oracle(m, t, seed, count):
    ctx = FieldCtx(m)
    rng = random.Random(seed)
    g = random_irreducible(ctx, t, rng)
    sqrt_x = sqrt_x_mod_g(g)
    assert sqrt_x.square() % g == FieldPoly.x(ctx)
    for _ in range(count):
        u = _any_poly(ctx, rng.randrange(-1, 2 * t), rng)
        r = sqrt_mod_g(u, g, sqrt_x)
        assert r == _sqrt_by_squaring(u, g)
        assert r.square() % g == u % g


def test_sqrt_x_needs_squarefree_g(rng):
    # g = h^2 is a square (G1 = 0); g = h^2 * k has G1 != 0 but shares h with g'
    ctx = FieldCtx(5)
    h = random_irreducible(ctx, 2, rng)
    k = random_irreducible(ctx, 3, rng)
    for g in (h.square(), h.square() * k):
        with pytest.raises(DivisionByZero):
            sqrt_x_mod_g(g)
    # squarefree but reducible is enough for sqrt(x)
    sqrt_x = sqrt_x_mod_g(h * k)
    assert sqrt_x.square() % (h * k) == FieldPoly.x(ctx)


def test_sqrt_mod_g_roundtrip(rng):
    ctx = FieldCtx(4)
    g = random_irreducible(ctx, 3, rng)
    sqrt_x = sqrt_x_mod_g(g)
    for _ in range(50):
        u = random_poly(ctx, rng.randrange(0, 3), rng)
        s = sqrt_mod_g(u, g, sqrt_x)
        assert s.square() % g == u % g


def test_sqrt_mod_g_of_square(rng):
    ctx = FieldCtx(5)
    g = random_irreducible(ctx, 4, rng)
    sqrt_x = sqrt_x_mod_g(g)
    for _ in range(20):
        w = random_poly(ctx, rng.randrange(0, 4), rng)
        sq = w.square() % g
        s = sqrt_mod_g(sq, g, sqrt_x)
        # squaring is a bijection mod irreducible g, so the root is unique
        assert s == w % g


# -- bit-sliced vectors against the scalar field --


def _unslice(slices, n):
    """Lane j of a sliced vector: bit b is bit j of slice b."""
    return [sum((s >> j & 1) << b for b, s in enumerate(slices)) for j in range(n)]


def _lane_vectors(ctx, rng):
    """Vectors of 1, 2 and odd lengths up to 101: random lanes, all-zero
    lanes, all-ones lanes (the element 2^m - 1), and random lanes sprinkled
    with both."""
    top = ctx.order - 1
    for n in (1, 2, 3, 8, 33, 64, 101):
        rand = [rng.randrange(ctx.order) for _ in range(n)]
        mixed = [rng.choice((0, top, rng.randrange(ctx.order))) for _ in range(n)]
        yield [0] * n
        yield [top] * n
        yield rand
        yield mixed


@pytest.mark.parametrize("m", sorted(MODULI))
def test_sliced_mul_and_inv_match_scalar_field(m):
    ctx = FieldCtx(m)
    rng = random.Random(3000 + m)
    vectors = list(_lane_vectors(ctx, rng))
    for a in vectors:
        n = len(a)
        sa = transpose(a, ctx.m)
        assert len(sa) == m
        assert _unslice(sa, n) == a
        for b in vectors:
            if len(b) != n:
                continue
            prod = sliced_mul(ctx, sa, transpose(b, ctx.m))
            assert all(s >> n == 0 for s in prod)
            assert _unslice(prod, n) == [ctx.mul(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_sliced_mul_exhaustive_small_m(m):
    # every pair of field elements, one pair per lane
    ctx = FieldCtx(m)
    a = [x for x in range(ctx.order) for _ in range(ctx.order)]
    b = [y for _ in range(ctx.order) for y in range(ctx.order)]
    prod = sliced_mul(ctx, transpose(a, ctx.m), transpose(b, ctx.m))
    assert _unslice(prod, len(a)) == [ctx.mul(x, y) for x, y in zip(a, b)]


@st.composite
def _locator_and_support(draw):
    """(sigma, support): a partial support of distinct elements, and sigma =
    c * prod(x - r) * h with roots r drawn from the support, from the whole
    field (on or off the support) and from 0; c = 0 gives the zero
    polynomial, and no roots with a constant h a constant sigma."""
    m = draw(st.integers(2, 13))
    ctx = FieldCtx(m)
    elem = st.integers(0, ctx.order - 1)
    n = draw(st.integers(1, min(ctx.order, 48)))
    support = draw(st.lists(elem, min_size=n, max_size=n, unique=True))
    roots = draw(st.lists(st.sampled_from(support) | elem | st.just(0), max_size=12))
    sigma = FieldPoly([draw(elem)], ctx)
    for r in roots:
        sigma = sigma * FieldPoly([r, 1], ctx)
    return sigma * FieldPoly(draw(st.lists(elem, max_size=4)) + [1], ctx), support


@settings(max_examples=120, deadline=None)
@given(_locator_and_support())
def test_sliced_horner_matches_per_position_oracle(case):
    sigma, support = case
    ctx, n = sigma.ctx, len(support)
    full = (1 << n) - 1
    quotient, value = sliced_horner(sigma, transpose(support, ctx.m), full)
    values = _unslice(value, n)
    assert values == [poly_eval(sigma, a) for a in support]
    roots = [j for j, a in enumerate(support) if poly_eval(sigma, a) == 0]
    assert sliced_zeros(value, full) == sum(1 << j for j in roots)
    # the steps before the value are the quotient by x - a, highest first
    assert len(quotient) == max(sigma.degree, 0)
    lanes = [_unslice(q, n) for q in reversed(quotient)]
    for j, a in enumerate(support):
        quo, rem = sigma.divmod(FieldPoly([a, 1], ctx))
        assert FieldPoly([q[j] for q in lanes], ctx) == quo
        assert rem == FieldPoly([values[j]], ctx)


@st.composite
def _power_tables_and_locator(draw):
    """(t, sigma, support): a support subset of up to 48 distinct elements,
    t from 1 to 12, and sigma of degree <= t drawn with zero coefficients
    often, so its degree and its count of terms fall below t too."""
    m = draw(st.integers(2, 13))
    ctx = FieldCtx(m)
    elem = st.integers(0, ctx.order - 1)
    n = draw(st.integers(1, min(ctx.order, 48)))
    support = draw(st.lists(elem, min_size=n, max_size=n, unique=True))
    t = draw(st.just(1) | st.integers(1, 12))
    coeff = st.sampled_from([0, 1, ctx.order - 1]) | elem
    sigma = FieldPoly(draw(st.lists(coeff, max_size=t + 1)), ctx)
    return t, sigma, support


@settings(max_examples=300, deadline=None)
@given(_power_tables_and_locator())
def test_sliced_eval_matches_sliced_horner(case):
    t, sigma, support = case
    ctx = sigma.ctx
    full = (1 << len(support)) - 1
    alpha = transpose(support, ctx.m)
    tables = sliced_power_tables(ctx, alpha, t, full)
    assert len(tables) == t + 1
    # the tables stay within 4x the m slices of the power each one spans
    assert all(len(table) <= 4 * ctx.m for table in tables)
    assert sliced_eval(sigma, tables) == sliced_horner(sigma, alpha, full)[1]


@pytest.mark.parametrize("m", sorted(MODULI))
def test_mul_masks_match_field_product(m):
    # byte g*m + b of entry c is group g of mask b, offset by g*2^EVAL_GROUP:
    # bit j of mask b is bit b of c * x^j
    ctx = FieldCtx(m)
    masks = ctx.mul_masks
    groups = -(-m // EVAL_GROUP)
    assert len(masks) == ctx.order
    rng = random.Random(4000 + m)
    cs = range(ctx.order) if m <= 8 else [0, 1, ctx.order - 1] + rng.sample(range(ctx.order), 200)
    for c in cs:
        entry = masks[c]
        assert len(entry) == groups * m
        for b in range(m):
            mask = 0
            for g in range(groups):
                field = entry[g * m + b] - (g << EVAL_GROUP)
                assert 0 <= field < 1 << min(EVAL_GROUP, m - EVAL_GROUP * g)
                mask |= field << (EVAL_GROUP * g)
            assert mask == sum((ctx.mul(c, 1 << j) >> b & 1) << j for j in range(m))

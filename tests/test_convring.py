"""Cyclic convolution ring Z[x]/(x^N - 1) and its modular inverses."""

import ast
import math
import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import center, centred_slots_ref, conv_oracle, decrypt_slots_ref, prime_power_ref
from pqlab import kat, ntru
from pqlab.convring import (
    Operand,
    _centred,
    _invert_lists,
    _reduce,
    center_mod,
    centered,
    conv_mul,
    invert_mod,
    invert_mod_prime,
    lift,
    poly_to_text,
    prime_power,
    sample_ternary,
    ternary_shape,
)
from pqlab.errors import DimensionError, NotInvertible


# -- centered reduction --


def test_center_reference_points():
    assert center(40, 41) == -1
    assert center(20, 41) == 20
    assert center(21, 41) == -20
    assert center(0, 41) == 0
    assert center(41, 41) == 0
    assert center(-1, 41) == -1


def test_center_even_modulus_boundary():
    # the interval is (-q/2, q/2]: +q/2 stays, -q/2 maps to +q/2
    assert center(4, 8) == 4
    assert center(-4, 8) == 4
    assert center(5, 8) == -3


@given(st.integers(-10**6, 10**6), st.integers(2, 10**4))
def test_center_congruent_and_in_range(v, q):
    c = center(v, q)
    assert (c - v) % q == 0
    assert -q < 2 * c <= q


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=20),
    st.integers(2, 500),
)
def test_center_mod_idempotent(f, q):
    once = center_mod(f, q)
    assert center_mod(once, q) == once
    assert once == [center(c, q) for c in f]


@settings(max_examples=200)
@given(st.data())
def test_centered_matches_center_mod(data):
    # f is centered exactly when centering leaves it as it is; the values
    # are drawn at the least and greatest centered residue and one step on
    # each side of each, around +-q/2
    q = data.draw(st.sampled_from([2, 3, 41, 64, 2048, 2**64 + 13]))
    lo, hi = -((q - 1) // 2), q // 2
    edges = st.sampled_from([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1])
    f = data.draw(st.lists(edges | st.integers(-q, q), max_size=8))
    assert centered(f, q) == (center_mod(f, q) == list(f))
    assert centered([], q)


def test_center_mod_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        center_mod([1], 1)


# -- convolution --


def test_conv_identity(rng):
    for _ in range(20):
        n = rng.randrange(1, 12)
        f = [rng.randrange(-5, 6) for _ in range(n)]
        assert conv_mul(f, [1] + [0] * (n - 1)) == f


def test_conv_length_mismatch():
    with pytest.raises(DimensionError):
        conv_mul([1, 2], [1, 2, 3])


def test_conv_empty():
    assert conv_mul([], []) == []


def test_conv_matches_multiply_then_fold(rng):
    for _ in range(100):
        n = rng.randrange(1, 10)
        bound = rng.choice([9, 10**12])
        f = [rng.randrange(-bound, bound + 1) for _ in range(n)]
        g = [rng.randrange(-bound, bound + 1) for _ in range(n)]
        assert conv_mul(f, g) == conv_oracle(f, g)
        assert conv_mul(f, [0] * n) == conv_mul([0] * n, g) == [0] * n


def test_conv_modular_path_matches_plain(rng):
    for _ in range(50):
        n = rng.randrange(1, 10)
        q = rng.choice([3, 41, 64, 2048])
        f = [rng.randrange(-q, q) for _ in range(n)]
        g = [rng.randrange(-q, q) for _ in range(n)]
        assert conv_mul(f, g, q) == center_mod(conv_oracle(f, g), q)


def _slot_bytes(n, q):
    # the widest slot a product mod q can need: (n * (q-1)^2).bit_length()
    # + 1 bits, rounded up to 1, 2, 4 or 8 bytes, or to whole 8-byte words
    # past 64 bits; the cases below spread over it.  conv_mul sizes its own
    # slot from the operands (test_conv_slot_width_follows_operand_ranges)
    bits = (n * (q - 1) ** 2).bit_length() + 1
    return next((b for b in (1, 2, 4, 8) if 8 * b >= bits), 8 * -(-bits // 64))


@pytest.mark.parametrize(
    "n, q, bound, slot",
    [
        (7, 3, 1, 1),
        (443, 3, 1, 2),  # f_p^-1 * a at rec443
        (11, 41, 40, 2),
        (443, 2048, 1024, 4),  # r * h and f * c at rec443
        (50, 2**20, 2**20, 8),
        (59, 10**9 + 7, 10**9, 16),
        (20, None, 1000, 8),
        (13, None, 10**12, 24),
        (5, None, 10**40, 72),
    ],
)
def test_conv_every_slot_width_matches_multiply_then_fold(rng, n, q, bound, slot):
    f = [rng.randrange(-bound, bound + 1) for _ in range(n)]
    g = [rng.randrange(-bound, bound + 1) for _ in range(n)]
    # pin the extremes so an exact product's modulus is 2 * n * bound^2 + 2
    f[0], g[-1] = bound, -bound
    exact = conv_oracle(f, g)
    if q is None:
        assert _slot_bytes(n, 2 * n * bound * bound + 2) == slot
        assert conv_mul(f, g) == exact
    else:
        assert _slot_bytes(n, q) == slot
        assert conv_mul(f, g, q) == center_mod(exact, q)


def _operand_slot_bytes(n, f, g):
    # conv_mul's slot: as many bytes as N * top(f) * top(g) + top(f) +
    # top(g) needs, top being an operand's largest value once its offset is
    # subtracted
    tf, tg = Operand(f).top, Operand(g).top
    return max(1, -(-(n * tf * tg + tf + tg).bit_length() // 8))


TERNARY = (-1, 1)


@pytest.mark.parametrize(
    "n, q, f_range, g_range, slot",
    [
        (7, 3, TERNARY, TERNARY, 1),
        (443, 3, TERNARY, TERNARY, 2),  # f_p^-1 * a at rec443
        (11, 41, TERNARY, (-20, 20), 2),
        (443, 2048, TERNARY, (-1023, 1024), 3),  # r * h and f * c at rec443
        (443, 2048, (-1023, 1024), (-1023, 1024), 4),
        (12, 2**31, TERNARY, (-2**20, 2**20), 4),  # 3-byte values, 4-byte items
        (12, 2**31, TERNARY, (-2**30 + 1, 2**30), 5),
        (50, 2**20, (-2**19 + 1, 2**19), (-2**19 + 1, 2**19), 6),
        (9, 2**48, (-2**24, 2**24), (-2**23, 2**23), 7),
        (64, 2**28, (-2**27 + 1, 2**27), (-2**27 + 1, 2**27), 8),
        (59, 10**9 + 7, (-5 * 10**8, 5 * 10**8), (-5 * 10**8, 5 * 10**8), 9),
        (13, None, (-10**12, 10**12), (-10**12, 10**12), 11),
        (12, 2**64 + 13, (-2**63, 2**63), (-2**63, 2**63), 17),
        (5, None, (-10**40, 10**40), (-10**40, 10**40), 34),
    ],
)
def test_conv_slot_width_follows_operand_ranges(rng, n, q, f_range, g_range, slot):
    f = [rng.randint(*f_range) for _ in range(n)]
    g = [rng.randint(*g_range) for _ in range(n)]
    f[0], f[-1] = f_range
    g[0], g[-1] = g_range
    assert _operand_slot_bytes(n, f, g) == slot
    exact = conv_oracle(f, g)
    assert conv_mul(f, g, q) == (exact if q is None else center_mod(exact, q))


MODULI = [3, 41, 64, 2048, 2**31, 2**64 + 13, None]  # 2^64 + 13 is prime


@st.composite
def ternary_and_centered(draw):
    n = draw(st.sampled_from(list(range(1, 13)) + [443]))
    q = draw(st.sampled_from(MODULI))
    span = 10**30 if q is None else q
    f = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    g = draw(st.lists(st.integers(-((span - 1) // 2), span // 2), min_size=n, max_size=n))
    return f, g, q


@settings(max_examples=150, deadline=None)
@given(ternary_and_centered(), st.booleans(), st.booleans())
def test_conv_ternary_times_centered_matches_oracle(fgq, pack_f, pack_g):
    # either operand may come packed beforehand; the product and its
    # reverse agree with the schoolbook fold
    f, g, q = fgq
    exact = conv_oracle(f, g)
    want = exact if q is None else center_mod(exact, q)
    a = Operand(f) if pack_f else f
    b = Operand(g) if pack_g else g
    assert conv_mul(a, b, q) == want
    assert conv_mul(b, a, q) == want


@st.composite
def windows(draw, n):
    # n values in a window [lo, lo + span] of any magnitude: the offset is
    # rounded to each item's top byte, so windows near byte boundaries count
    bits = draw(st.integers(0, 100))
    lo = draw(st.integers(-(2**bits), 2**bits))
    span = draw(st.sampled_from([0, 1, 2, 255, 256, 2**bits, 2 ** (bits + 1)]))
    return draw(st.lists(st.integers(lo, lo + span), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(windows(n), windows(n))),
       st.sampled_from(MODULI + [2, 2**20, 2**40 + 15]))
def test_conv_any_ranges_match_oracle(fg, q):
    f, g = fg
    exact = conv_oracle(f, g)
    assert conv_mul(f, g, q) == (exact if q is None else center_mod(exact, q))
    assert conv_mul(Operand(f), Operand(g), q) == conv_mul(f, g, q)


def test_cached_operand_matches_fresh_lists(rng):
    # one packed operand in products of several widths: each packed int is
    # kept per width and gives what packing the list afresh gives
    for n in (11, 443):
        f = [rng.choice((-1, 0, 1)) for _ in range(n)]
        packed = Operand(f)
        for q in (3, 41, 2048, None):
            # g's span sets the slot width: 1, 2 or 3 bytes at each n
            for span in (1, 20, 1024, 10**6):
                g = [rng.randint(-span, span) for _ in range(n)]
                assert conv_mul(packed, g, q) == conv_mul(f, g, q) == conv_mul(g, f, q)
        assert len(packed._ints) >= 2


def test_conv_modulus_one_is_all_zeros(rng):
    for n in (1, 5, 443):
        f = [rng.randrange(-9, 10) for _ in range(n)]
        assert conv_mul(f, f, 1) == [0] * n


# -- the packed reduction --

# every slot width _product picks up to 9 bytes, and two past it; moduli odd,
# even and powers of two, up to past 8 bytes
SLOT_WIDTHS = list(range(1, 10)) + [11, 17]
REDUCTION_MODULI = [2, 3, 4, 6, 41, 64, 100, 255, 256, 2048, 65535, 2**31 - 1, 2**32,
                    2**63, 2**64 + 13, 2**72 - 1]


@st.composite
def packed_slots(draw):
    # n slots of `width` bytes below top; the values include 0, q - 1, the
    # slot's top and the slots whose centered residue is -half or +q/2, the
    # two ends of the centered range
    n = draw(st.integers(1, 12))
    width = draw(st.sampled_from(SLOT_WIDTHS))
    q = draw(st.sampled_from(REDUCTION_MODULI) | st.integers(2, 2**80))
    full = (1 << 8 * width) - 1
    top = draw(st.sampled_from([full, min(q - 1, full)]) | st.integers(0, full))
    offset = draw(st.integers(-(2**90), 2**90))
    half = (q - 1) // 2
    edges = [0, q - 1, top, (-half - offset) % q, (q // 2 - offset) % q]
    value = st.sampled_from([v for v in edges if v <= top]) | st.integers(0, top)
    return n, width, top, q, offset, draw(st.lists(value, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(packed_slots(), st.sampled_from([2, 3, 5, 7, 8, 9]))
def test_packed_reduction_matches_reference_passes(case, p):
    n, width, top, q, offset, slots = case
    x = int.from_bytes(b"".join(s.to_bytes(width, "little") for s in slots), "little")
    assert _centred(x, n, width, top, q, offset) == centred_slots_ref(slots, offset, q)
    # decrypt's two reductions: mod q, then the centered value mod p
    half = (q - 1) // 2
    y, const = _reduce(x, n, width, top, q, offset + half)
    y, const = _reduce(y, n, const[0], q - 1, p, -half)
    size = const[0]
    residues = [y >> 8 * size * k & (1 << 8 * size) - 1 for k in range(n)]
    assert residues == decrypt_slots_ref(slots, offset, q, p)


# exact values at +-(2^j - 1) and -2^j across byte boundaries (slots past 8
# bytes from j = 63): the exact product is centred mod 2 << bit_length(its
# largest magnitude), and one bit less would wrap the values at either end
@pytest.mark.parametrize("j", [7, 8, 63, 64, 127])
def test_exact_product_keeps_values_at_the_modulus_edge(j):
    # an all-zero product: nothing to keep, the modulus is 2
    for n in (1, 443):
        assert conv_mul([0] * n, [0] * n, extra=Operand([0] * n)) == [0] * n
    for v in (2**j - 1, -(2**j - 1), -(2**j)):
        # f*g + extra with f*g zero: the offset and top are extra's own, so
        # the modulus is as tight as the values allow
        for n in (1, 3):
            values = [v] + [(-1) ** k * (k + 1) for k in range(n - 1)]
            assert conv_mul([0] * n, [0] * n, extra=Operand(values)) == values
        # one-term products, x^0 times g, and products with and without extra
        assert conv_mul([1], [v]) == conv_mul([v], [1]) == [v]
        assert conv_mul([-1], [-v]) == [v]
        f, g = [1, 0, 0, 0], [v, -v, 1, 0]
        assert conv_mul(f, g) == conv_oracle(f, g) == g
        f, g = [v, 1, -1], [1, v, 2]
        assert conv_mul(f, g) == conv_oracle(f, g)
        assert conv_mul(f, g, extra=Operand([v, 0, -v])) == [
            a + b for a, b in zip(conv_oracle(f, g), [v, 0, -v])
        ]


@pytest.mark.parametrize("q", [2, 3, 41, 64, 256, 2048, 2**31, 2**64 + 13])
def test_conv_centered_range_ends(q):
    # the least centered residue -half and the greatest q/2, each also a
    # multiple of q away: a signed item whose carry leaves the slot reads
    # the wrong value or a neighbour's
    lo, hi = -((q - 1) // 2), q // 2
    g = [lo, hi, lo - q, hi + q, 0, lo + 3 * q, hi - 5 * q]
    one = [1] + [0] * (len(g) - 1)
    assert conv_mul(one, g, q) == [lo, hi, lo, hi, 0, lo, hi]
    assert conv_mul(Operand(g), Operand(one), q, Operand(one)) == [lo + 1, hi, lo, hi, 0, lo, hi]


# -- NTRU decryption's lift --


def _slot_values(a):
    # the operand's values as its own slots hold them
    x, w = a.packed(a.stride), a.stride
    return [x >> 8 * w * k & (1 << 8 * w) - 1 for k in range(len(a))]


@st.composite
def lift_cases(draw):
    # f small (a ternary private key or wider), c centered mod q
    n = draw(st.sampled_from([1, 2, 7, 11, 443]) | st.integers(1, 443))
    q = draw(st.sampled_from([41, 100, 2048, 2**64 + 13]))
    p = draw(st.sampled_from([2, 3, 5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    span = draw(st.sampled_from([1, 5, q]))
    f = [rng.randint(-span, span) for _ in range(n)]
    c = [rng.randint(-((q - 1) // 2), q // 2) for _ in range(n)]
    return f, c, q, p


@settings(max_examples=100, deadline=None)
@given(lift_cases())
def test_lift_matches_centred_product_mod_p(case):
    f, c, q, p = case
    a = lift(Operand(f), Operand(c), q, p)
    want = [v % p for v in conv_mul(f, c, q)]
    assert _slot_values(a) == want
    assert a.total == sum(want)
    assert (len(a), a.low, a.top) == (len(f), 0, p - 1)
    # as an operand it packs at any slot width
    assert conv_mul(a, [1] + [0] * (len(f) - 1)) == want


def test_lift_then_product_is_ntru_decrypt():
    kp = ntru.keygen(ntru.PRESETS["rec443"], random.Random(5))
    n, p, q = kp.params.n, kp.params.p, kp.params.q
    rng = random.Random(6)
    m = [rng.choice((-1, 0, 1)) for _ in range(n)]
    c = ntru.encrypt(kp.public, m, rng=rng)
    a = lift(Operand(kp.f), Operand(c), q, p)
    assert conv_mul(Operand(kp.f_p_inv), a, p) == ntru.decrypt(kp, c) == m


# -- the slot layout has one owner --

SLOT_NAMES = {"_product", "_reduce", "_barrett", "_centred", "_restride", "from_slots"}


def test_only_convring_reads_packed_slots():
    # every other module goes through conv_mul and lift
    src = Path(__file__).resolve().parents[1] / "src" / "pqlab"
    paths = sorted(p for p in src.glob("*.py") if p.name != "convring.py")
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in SLOT_NAMES:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


coeff_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
    )
)


@settings(max_examples=50)
@given(coeff_lists)
def test_ring_axioms(fgh):
    f, g, h = fgh
    # commutativity
    assert conv_mul(f, g) == conv_mul(g, f)
    # associativity
    assert conv_mul(conv_mul(f, g), h) == conv_mul(f, conv_mul(g, h))
    # distributivity
    g_plus_h = [a + b for a, b in zip(g, h)]
    assert conv_mul(f, g_plus_h) == [a + b for a, b in zip(conv_mul(f, g), conv_mul(f, h))]


# -- inverses --


def test_reference_inverses():
    f = kat.NTRU_F
    assert invert_mod_prime(f, 3) == kat.NTRU_F_P_INV
    assert invert_mod_prime(f, 41) == kat.NTRU_F_Q_INV
    # and they really invert
    assert center_mod(conv_mul(f, kat.NTRU_F_P_INV, 3), 3) == [1] + [0] * 10
    assert center_mod(conv_mul(f, kat.NTRU_F_Q_INV, 41), 41) == [1] + [0] * 10


def test_reference_h():
    h = conv_mul(kat.NTRU_F_Q_INV, kat.NTRU_G_POLY, 41)
    assert center_mod(h, 41) == center_mod(kat.NTRU_H, 41)


def test_invert_one():
    assert invert_mod_prime([1] + [0] * 6, 3) == [1] + [0] * 6


def test_invert_not_invertible():
    # x - 1 divides x^N - 1, so it can never be a unit
    f = [-1, 1] + [0] * 9
    with pytest.raises(NotInvertible):
        invert_mod_prime(f, 3)
    with pytest.raises(NotInvertible):
        invert_mod(f, 41)
    with pytest.raises(NotInvertible):
        invert_mod_prime([0] * 5, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_invert_matches_exhaustive_search(n, p):
    # every f in (Z/p)^N against every g: the products f*g fill the ideal
    # (f), which has p^(N - d) elements for d = deg gcd(f, x^N - 1), and f is
    # a unit exactly when one g gives f*g = 1
    ring = list(product(range(p), repeat=n))
    one = (1,) + (0,) * (n - 1)
    for f in ring:
        products = {tuple(c % p for c in conv_oracle(f, g)): list(g) for g in ring}
        if one in products:
            assert invert_mod_prime(list(f), p) == products[one]
            continue
        d = n - round(math.log(len(products), p))
        reason = f"gcd with x^{n} - 1 has degree {d}" if any(f) else "zero is not invertible"
        with pytest.raises(NotInvertible) as err:
            invert_mod_prime(list(f), p)
        assert str(err.value) == reason


def test_invert_random_prime_moduli(rng):
    for _ in range(30):
        n = rng.randrange(3, 12)
        p = rng.choice([3, 5, 7, 41])
        f = [rng.randrange(-2, 3) for _ in range(n)]
        try:
            inv = invert_mod_prime(f, p)
        except NotInvertible:
            continue
        assert all(0 <= c < p for c in inv)
        prod = [c % p for c in conv_mul(f, inv, p)]
        assert prod == [1] + [0] * (n - 1)


# The packed kernels for p = 2 (one int) and p = 3 (two lane masks) against
# the list loop, which is the generic path for every other prime.


def _outcome(invert, f, p):
    try:
        return invert(f, p)
    except NotInvertible as err:
        return f"NotInvertible: {err}"


def _assert_kernel_matches_lists(f, p):
    assert _outcome(invert_mod_prime, f, p) == _outcome(_invert_lists, f, p)


@st.composite
def ring_elements(draw):
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    d_plus = draw(st.integers(0, n))
    d_minus = draw(st.integers(0, n - d_plus))
    return draw(st.permutations([1] * d_plus + [-1] * d_minus + [0] * (n - d_plus - d_minus)))


@settings(max_examples=300)
@given(ring_elements(), st.sampled_from([2, 3]))
def test_packed_inverse_matches_list_loop(f, p):
    _assert_kernel_matches_lists(f, p)


@settings(max_examples=100)
@given(ring_elements(), st.sampled_from([2, 3]), st.sampled_from(["x - 1", "x^2 + x + 1"]))
def test_packed_inverse_shared_factor(g, p, factor):
    # f = factor * g shares factor with x^N - 1 whenever factor divides it:
    # always for x - 1, and for x^2 + x + 1 when 3 divides N (x^3 - 1 =
    # (x - 1)(x^2 + x + 1)); mod 3, x^2 + x + 1 = (x - 1)^2
    n = len(g)
    h = [-1, 1] if factor == "x - 1" else [1, 1, 1]
    if len(h) > n:
        return
    f = conv_mul(g, h + [0] * (n - len(h)))
    if factor == "x - 1" or n % 3 == 0:
        with pytest.raises(NotInvertible):
            invert_mod_prime(f, p)
    _assert_kernel_matches_lists(f, p)


@pytest.mark.parametrize("p", [2, 3])
def test_packed_inverse_zero(p):
    for n in (1, 2, 3, 64):
        with pytest.raises(NotInvertible, match="^zero is not invertible$"):
            invert_mod_prime([0] * n, p)
        with pytest.raises(NotInvertible, match="^zero is not invertible$"):
            invert_mod_prime([p] * n, p)  # zero mod p


@pytest.mark.parametrize("p", [2, 3])
def test_packed_inverse_seeded_sweep(rng, p):
    # 50 draws at each N from 1 to 12, then 2000 at random N up to 39
    sizes = [n for n in range(1, 13) for _ in range(50)]
    for n in sizes + [rng.randrange(1, 40) for _ in range(2000)]:
        digits = (-1, 0, 1) if rng.random() < 0.5 else (-2, -1, 0, 1, 2)
        f = [rng.choice(digits) for _ in range(n)]
        _assert_kernel_matches_lists(f, p)


def test_packed_inverse_full_size():
    # rec443 shape: f ternary with 148 ones and 147 minus ones
    rng = random.Random(443)
    for _ in range(3):
        f = sample_ternary(443, 148, 147, rng)
        for p in (2, 3):
            _assert_kernel_matches_lists(f, p)
            inv = invert_mod_prime(f, p)
            assert all(0 <= c < p for c in inv)
            assert [c % p for c in conv_mul(f, inv, p)] == [1] + [0] * 442


def test_hensel_lift_power_of_two(rng):
    for _ in range(20):
        f = sample_ternary(11, 4, 3, rng)
        try:
            inv = invert_mod(f, 2048)
        except NotInvertible:
            continue
        prod = [c % 2048 for c in conv_mul(f, inv, 2048)]
        assert prod == [1] + [0] * 10


def test_hensel_lift_full_size():
    rng = random.Random(17)
    f = sample_ternary(443, 148, 147, rng)
    try:
        inv = invert_mod(f, 2048)
    except NotInvertible:
        # draw again once; two consecutive non-units are vanishingly unlikely
        f = sample_ternary(443, 148, 147, rng)
        inv = invert_mod(f, 2048)
    prod = [c % 2048 for c in conv_mul(f, inv, 2048)]
    assert prod == [1] + [0] * 442


def test_prime_power():
    cases = {1: None, 2: (2, 1), 4: (2, 2), 6: None, 9: (3, 2), 12: None,
             41: (41, 1), 2048: (2, 11), 3 * 41: None}
    assert {q: prime_power(q) for q in cases} == cases


def test_prime_power_matches_trial_division():
    for q in range(-3, 20000):
        assert prime_power(q) == prime_power_ref(q), q
    rng = random.Random(1000)
    for _ in range(2000):
        q = rng.randrange(10**9)
        assert prime_power(q) == prime_power_ref(q), q


def test_prime_power_large_moduli():
    start = time.perf_counter()
    assert prime_power(10**15 + 37) == (10**15 + 37, 1)
    assert time.perf_counter() - start < 0.05
    assert prime_power(3**50) == (3, 50)
    assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    # the largest 12-digit prime: its square is near the exact bound
    assert prime_power(999999999989**2) == (999999999989, 2)
    assert prime_power(999999999989**2 - 2) is None
    assert prime_power(10007**5) == (10007, 5)
    assert prime_power(15**12) is None
    assert prime_power(2**400) == (2, 400)
    assert prime_power(2**400 + 2) is None
    # past the bound below which Miller-Rabin with 13 bases is exact
    with pytest.raises(ValueError, match="too large"):
        prime_power(3317044064679887385961981)


def test_invert_mod_dispatch():
    assert invert_mod(kat.NTRU_F, 41) == invert_mod_prime(kat.NTRU_F, 41)
    # a ternary unit mod 2 (odd coefficient sum, coprime to x^11 - 1)
    f = [1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 0]
    assert conv_mul(f, invert_mod(f, 8), 8) == [1] + [0] * 10
    with pytest.raises(ValueError):
        invert_mod(f, 12)  # 12 = 2^2 * 3 is not a prime power
    with pytest.raises(ValueError):
        invert_mod(f, 1)


# -- ternary sampling --


def test_sample_ternary_exact_counts(rng):
    for _ in range(50):
        n = rng.randrange(3, 20)
        d_plus = rng.randrange(0, n)
        d_minus = rng.randrange(0, n - d_plus)
        f = sample_ternary(n, d_plus, d_minus, rng)
        assert len(f) == n
        assert f.count(1) == d_plus
        assert f.count(-1) == d_minus
        assert f.count(0) == n - d_plus - d_minus


def test_sample_ternary_zero_counts(rng):
    assert sample_ternary(5, 0, 0, rng) == [0] * 5


def test_sample_ternary_deterministic():
    a = sample_ternary(11, 3, 2, random.Random(5))
    b = sample_ternary(11, 3, 2, random.Random(5))
    assert a == b


def test_sample_ternary_shape_validation(rng):
    with pytest.raises(DimensionError):
        sample_ternary(4, 3, 2, rng)
    with pytest.raises(DimensionError):
        sample_ternary(4, -1, 0, rng)


def test_sample_ternary_positions_roughly_uniform():
    # 10000 draws of one +1 in 10 slots: each position should land near 1000
    rng = random.Random(99)
    counts = [0] * 10
    for _ in range(10000):
        f = sample_ternary(10, 1, 0, rng)
        counts[f.index(1)] += 1
    # 3 sigma for binomial(10000, 1/10) is roughly 90
    assert all(abs(c - 1000) < 270 for c in counts)


def test_ternary_shape():
    assert ternary_shape([1, -1, 0, 1]) == (2, 1)
    assert ternary_shape([0, 0]) == (0, 0)
    assert ternary_shape([2, 0]) is None
    assert ternary_shape([]) == (0, 0)


# -- text form --


def test_poly_text_roundtrip(rng):
    for _ in range(20):
        f = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 15))]
        assert [int(tok) for tok in poly_to_text(f).split()] == f
    assert poly_to_text([1, -2, 0]) == "1 -2 0"

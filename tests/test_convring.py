"""Cyclic convolution ring Z[x]/(x^N - 1) and its modular inverses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab import kat
from pqlab.convring import (
    center,
    center_mod,
    conv_mul,
    invert_mod,
    invert_mod_prime,
    invert_mod_prime_power,
    is_zero,
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


def conv_oracle(f, g):
    # independent oracle: schoolbook polynomial product, then fold x^k onto
    # x^(k mod N)
    n = len(f)
    prod = [0] * (2 * n)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] += fi * gj
    out = [0] * n
    for k, c in enumerate(prod):
        out[k % n] += c
    return out


def test_conv_matches_multiply_then_fold(rng):
    for _ in range(50):
        n = rng.randrange(1, 10)
        f = [rng.randrange(-9, 10) for _ in range(n)]
        g = [rng.randrange(-9, 10) for _ in range(n)]
        assert conv_mul(f, g) == conv_oracle(f, g)


def test_conv_modular_path_matches_plain(rng):
    for _ in range(50):
        n = rng.randrange(1, 10)
        q = rng.choice([3, 41, 64, 2048])
        f = [rng.randrange(-q, q) for _ in range(n)]
        g = [rng.randrange(-q, q) for _ in range(n)]
        assert conv_mul(f, g, q) == center_mod(conv_oracle(f, g), q)


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


def test_ring_helpers():
    assert is_zero([0, 0])
    assert not is_zero([0, 1])


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


def test_invert_mod_dispatch():
    assert invert_mod(kat.NTRU_F, 41) == invert_mod_prime(kat.NTRU_F, 41)
    # a ternary unit mod 2 (odd coefficient sum, coprime to x^11 - 1)
    f = [1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 0]
    assert invert_mod(f, 8) == invert_mod_prime_power(f, 2, 3)
    with pytest.raises(ValueError):
        invert_mod(f, 12)  # 12 = 2^2 * 3 is not a prime power
    with pytest.raises(ValueError):
        invert_mod(f, 1)
    with pytest.raises(ValueError):
        invert_mod_prime_power(f, 2, 0)


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

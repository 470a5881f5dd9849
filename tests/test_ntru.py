"""NTRU ring encryption: keygen invariants, the reference chain, wrap
analysis, and byte-stream blocks."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blocks_to_bytes_ref, bytes_to_blocks_ref
from pqlab import formats, kat, ntru
from pqlab.convring import (
    center_mod,
    conv_mul,
    sample_ternary,
    ternary_shape,
)
from pqlab.errors import (
    DecodingFailure,
    DimensionError,
    MessageRangeError,
    SamplingExhausted,
    UnknownParams,
)
from pqlab.lattice import circulant_mul
from pqlab.ntru import (
    PRESETS,
    NtruKeyPair,
    NtruParams,
    NtruPublicKey,
    block_bytes,
    decrypt,
    decrypt_bytes,
    decrypt_with_intermediate,
    decryption_identity_check,
    encrypt,
    encrypt_bytes,
    keygen,
    keypair_from_values,
    preset,
)

TOY = PRESETS["toy11"]


def reference_keypair():
    return keypair_from_values(TOY, kat.NTRU_F, kat.NTRU_G_POLY)


# -- parameters --


def test_params_validation():
    with pytest.raises(ValueError):
        NtruParams(11, 3, 9, 2)  # gcd(3, 9) != 1
    with pytest.raises(ValueError):
        NtruParams(11, 41, 3, 2)  # p >= q
    with pytest.raises(ValueError):
        NtruParams(11, 3, 40, 2)  # q neither prime nor a power of two
    with pytest.raises(ValueError):
        NtruParams(11, 3, 41, 6)  # 2*6+1 > 11
    with pytest.raises(ValueError):
        NtruParams(2, 3, 41, 0)
    with pytest.raises(ValueError, match="^ternary shape does not fit the ring degree$"):
        NtruParams(11, 3, 41, -1)  # f would have no coefficients at all
    assert NtruParams(11, 3, 64, 2).q == 64  # power of two accepted
    assert NtruParams(11, 3, 41, 0).shape == (1, 0)  # one +1 and no -1 stays valid


def test_params_shape():
    assert TOY.shape == (3, 2)
    assert PRESETS["rec443"].shape == (148, 147)


def test_preset_lookup():
    assert preset("toy11") == TOY
    with pytest.raises(UnknownParams):
        preset("nope")


# -- keygen --


def test_keygen_invariants(rng):
    kp = keygen(TOY, rng)
    assert ternary_shape(list(kp.f)) == TOY.shape
    # f * f_p_inv = 1 (mod p)
    prod = [c % TOY.p for c in conv_mul(list(kp.f), list(kp.f_p_inv), TOY.p)]
    assert prod == [1] + [0] * (TOY.n - 1)
    # f * h = g (mod q) for some ternary g of the right shape
    g = conv_mul(list(kp.f), list(kp.public.h), TOY.q)
    assert ternary_shape(g) == TOY.shape
    # h stored centered
    assert center_mod(list(kp.public.h), TOY.q) == list(kp.public.h)


def test_keygen_deterministic():
    a = keygen(TOY, random.Random(4))
    b = keygen(TOY, random.Random(4))
    assert a.f == b.f and a.public.h == b.public.h


def test_keygen_recommended_size_seeds():
    # verification products at the recommended [N,p,q] = [443,3,2048]
    params = PRESETS["rec443"]
    for seed in range(50):
        kp = keygen(params, random.Random(seed))
        prod = [c % 3 for c in conv_mul(list(kp.f), list(kp.f_p_inv), 3)]
        assert prod == [1] + [0] * (params.n - 1)
        g = conv_mul(list(kp.f), list(kp.public.h), params.q)
        assert ternary_shape(g) == params.shape


# -- reference example --


def test_reference_keypair_values():
    kp = reference_keypair()
    assert list(kp.f_p_inv) == kat.NTRU_F_P_INV
    assert center_mod(list(kp.public.h), 41) == center_mod(kat.NTRU_H, 41)


def test_reference_encrypt():
    kp = reference_keypair()
    c = encrypt(kp.public, kat.NTRU_M, r=kat.NTRU_R)
    assert c == center_mod(kat.NTRU_C, 41)


def test_reference_decrypt_chain():
    kp = reference_keypair()
    a, m = decrypt_with_intermediate(kp, center_mod(kat.NTRU_C, 41))
    assert a == center_mod(kat.NTRU_A, 41)
    assert m == kat.NTRU_M
    assert decrypt(kp, center_mod(kat.NTRU_C, 41)) == kat.NTRU_M


def test_reference_identity_check_true():
    assert decryption_identity_check(
        kat.NTRU_F, kat.NTRU_G_POLY, kat.NTRU_R, kat.NTRU_M, TOY
    )


def test_identity_equality_before_reduction():
    # when no wrap occurs, the uncentered f*c mod-q centering equals
    # p*(r*g) + f*m over the integers, term by term
    kp = reference_keypair()
    c = encrypt(kp.public, kat.NTRU_M, r=kat.NTRU_R)
    a, _ = decrypt_with_intermediate(kp, c)
    rg = conv_mul(kat.NTRU_R, kat.NTRU_G_POLY)
    fm = conv_mul(kat.NTRU_F, kat.NTRU_M)
    exact = [TOY.p * x + y for x, y in zip(rg, fm)]
    assert a == exact


# -- encrypt / decrypt --


def test_zero_message_zero_blinding():
    kp = reference_keypair()
    zero = [0] * TOY.n
    assert encrypt(kp.public, zero, r=zero) == zero
    assert decrypt(kp, zero) == zero


def test_message_range_validation():
    kp = reference_keypair()
    bad = [0] * TOY.n
    bad[3] = 2  # 2 is not centered mod 3
    with pytest.raises(MessageRangeError):
        encrypt(kp.public, bad, r=kat.NTRU_R)


def test_dimension_validation(rng):
    kp = reference_keypair()
    with pytest.raises(DimensionError):
        encrypt(kp.public, [0] * 10, rng=rng)
    with pytest.raises(DimensionError):
        encrypt(kp.public, [0] * 11, r=[0] * 10)
    with pytest.raises(DimensionError):
        decrypt(kp, [0] * 12)


def test_encrypt_needs_blinding_or_rng():
    kp = reference_keypair()
    with pytest.raises(ValueError):
        encrypt(kp.public, [0] * TOY.n)


def test_roundtrips_toy_parameters(rng):
    # at [11, 3, 41] with shape-(3,2) operands the integer bound is
    # p*5 + 5 = 20 and 2*20 <= 41, so no wrap is possible: every trial
    # must round-trip and every identity check must pass
    failures = 0
    for trial in range(300):
        kp = keygen(TOY, rng)
        m = sample_ternary(TOY.n, *TOY.shape, rng)
        r = sample_ternary(TOY.n, *TOY.shape, rng)
        g = conv_mul(list(kp.f), list(kp.public.h), TOY.q)
        assert decryption_identity_check(list(kp.f), g, r, m, TOY)
        c = encrypt(kp.public, m, r=r)
        if decrypt(kp, c) != m:
            failures += 1
    assert failures == 0


def test_wrap_threshold_sweep():
    # fixed operands, q swept downward: the identity check must flip from
    # true to false exactly where the integer bound -q < 2v <= q first breaks
    f, g, r, m = kat.NTRU_F, kat.NTRU_G_POLY, kat.NTRU_R, kat.NTRU_M
    rg = conv_mul(r, g)
    fm = conv_mul(f, m)
    v = [3 * a + b for a, b in zip(rg, fm)]
    vmax, vmin = max(v), min(v)
    q_ok = max(2 * vmax, -2 * vmin + 1)  # smallest q satisfying the bound

    sweep = [q for q in [41, 37, 31, 29, 23, 19, 17, 16, 13, 11, 8, 7, 5, 4]]
    flipped = None
    for q in sweep:
        params = NtruParams(11, 3, q, 2)
        ok = decryption_identity_check(f, g, r, m, params)
        assert ok == (q >= q_ok)
        if not ok and flipped is None:
            flipped = q
    assert flipped is not None  # the sweep reaches below the threshold
    assert flipped < q_ok <= 41


def test_wrap_failure_decrypts_wrong():
    # at a q below the threshold, decryption visibly disagrees with m
    # (the reference f stays invertible mod 17)
    f, g, r, m = kat.NTRU_F, kat.NTRU_G_POLY, kat.NTRU_R, kat.NTRU_M
    params = NtruParams(11, 3, 17, 2)
    assert not decryption_identity_check(f, g, r, m, params)
    kp = keypair_from_values(params, f, g)
    c = encrypt(kp.public, m, r=r)
    assert decrypt(kp, c) != m


# small q, odd and even; only an even q can put a coefficient on +-q/2
_SMALL_Q = (3, 4, 5, 7, 8, 11, 13, 16, 17, 32)


@st.composite
def _identity_operands(draw):
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(3, 8))
    f, g, r, m = (draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)) for _ in range(4))
    # q = twice an extreme coefficient puts it on q/2 or -q/2, and q one off
    # puts it just inside or outside; any valid small q when none of them is
    v = [p * a + b for a, b in zip(circulant_mul(g, r), circulant_mul(m, f))]
    edges = {2 * max(v), -2 * min(v)}
    qs = [q for q in _SMALL_Q if p < q and math.gcd(p, q) == 1]
    exact = [q for q in qs if q in edges]
    near = [q for q in qs if edges & {q - 1, q + 1}]
    return f, g, r, m, NtruParams(n, p, draw(st.sampled_from(exact or near or qs)), 1)


@settings(max_examples=300, deadline=None)
@given(_identity_operands())
def test_identity_check_matches_circulant_reference(operands):
    # the products come from the literal circulant matrices of lattice
    f, g, r, m, params = operands
    p, q = params.p, params.q
    reference = all(
        -q < 2 * (p * a + b) <= q for a, b in zip(circulant_mul(g, r), circulant_mul(m, f))
    )
    assert decryption_identity_check(f, g, r, m, params) == reference


def test_keypair_from_values_skips_shape_checks():
    # replay path accepts non-shaped f as long as it inverts
    params = NtruParams(7, 3, 41, 2)
    f = [1, 1, 0, -1, 0, 0, 0]  # shape (2,1), not (3,2)
    g = [0, 1, -1, 0, 1, 0, 0]
    kp = keypair_from_values(params, f, g)
    assert isinstance(kp, NtruKeyPair)
    assert kp.params == params


# -- byte-stream encryption --


def test_block_bytes():
    assert block_bytes(11) == 2  # 3^11 = 177147 >= 65536, < 16777216
    assert block_bytes(6) == 1  # 3^6 = 729
    assert block_bytes(5) == 0  # 3^5 = 243 holds no whole byte
    for n in range(1001):
        b = block_bytes(n)
        assert 256**b <= 3**n < 256 ** (b + 1), n


def test_bytes_roundtrip(rng):
    kp = keygen(TOY, rng)
    for size in [0, 1, 2, 3, 7, 20]:
        data = bytes(rng.randrange(256) for _ in range(size))
        blocks = encrypt_bytes(kp.public, data, rng)
        assert decrypt_bytes(kp, blocks) == data


def test_bytes_block_count(rng):
    kp = keygen(TOY, rng)
    # 2 bytes + marker = 17 bits -> 2 blocks of 16
    assert len(encrypt_bytes(kp.public, b"hi", rng)) == 2
    # empty -> marker only -> 1 block
    assert len(encrypt_bytes(kp.public, b"", rng)) == 1


def _base3_digits(value, n):
    # the byte encoding's digit order: least significant first, 2 -> -1
    digits = []
    for _ in range(n):
        value, d = divmod(value, 3)
        digits.append(d - 3 if d == 2 else d)
    return digits


def test_bytes_padding_guard(rng):
    kp = keygen(TOY, rng)
    # a zero block has no marker; 0b11 followed by 14 zeros strips to a
    # single payload bit, which is not a whole byte
    for value in [0, 0b11 << 14]:
        c = encrypt(kp.public, _base3_digits(value, TOY.n), rng=rng)
        with pytest.raises(DecodingFailure):
            decrypt_bytes(kp, [c])


def test_bytes_requires_p3(rng):
    params = NtruParams(11, 5, 41, 2)
    kp = keygen(params, rng)
    with pytest.raises(UnknownParams):
        encrypt_bytes(kp.public, b"x", rng)
    with pytest.raises(UnknownParams):
        decrypt_bytes(kp, [])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bytes_require_a_byte_per_block(rng, n):
    # 3^N < 256: block_bytes(N) is 0, and the packer would divide by it
    kp = keygen(NtruParams(n, 3, 41, 1), rng)
    reason = re.escape(f"byte encoding needs N >= 6 (3^N >= 256), got N={n}")
    with pytest.raises(UnknownParams, match=reason):
        encrypt_bytes(kp.public, b"x", rng)
    with pytest.raises(UnknownParams, match=reason):
        decrypt_bytes(kp, [encrypt(kp.public, [0] * n, rng=rng)])


# -- sampling exhaustion --


def test_keygen_exhaustion_with_degenerate_rng(monkeypatch):
    # an rng pinned to one specific draw: +1 at {0,1,3}, -1 at {2,5} gives
    # 1 + x - x^2 + x^3 - x^5, which shares a factor with x^11 - 1 mod 3,
    # so every retry hits NotInvertible and the budget runs out
    class Pinned(random.Random):
        def sample(self, population, k):
            return [0, 1, 3, 2, 5][:k]

    monkeypatch.setattr(ntru, "KEYGEN_TRIES", 5)
    with pytest.raises(SamplingExhausted):
        keygen(TOY, Pinned())


# -- base-3 digit codecs against the per-digit references --


@pytest.mark.parametrize("n", list(range(6, 21)) + [443])
def test_digit_codecs_match_reference(rng, n):
    payloads = [b""]
    for size in (1, 2, 3, 7, 64, 3 * block_bytes(n) + 1):
        payloads += [bytes(size), b"\xff" * size, rng.randbytes(size)]
    for data in payloads:
        blocks = ntru._bytes_to_blocks(data, n)
        assert blocks == bytes_to_blocks_ref(data, n)
        assert all(len(b) == n and set(b) <= {-1, 0, 1} for b in blocks)
        assert ntru._blocks_to_bytes(blocks, n) == blocks_to_bytes_ref(blocks, n) == data


@pytest.mark.parametrize("n", [6, 11, 443])
def test_out_of_range_block_raises(n):
    # all digits 2 (-1): 3^N - 1 >= 256^B, so no byte block has this value
    for codec in (ntru._blocks_to_bytes, blocks_to_bytes_ref):
        with pytest.raises(MessageRangeError, match="^decrypted block out of byte range$"):
            codec([[-1] * n], n)


# -- the fused block path --


def _encrypt_reference(pub, m, r):
    params = pub.params
    rh = conv_mul(r, list(pub.h), params.q)
    return center_mod([params.p * a + b for a, b in zip(rh, m)], params.q)


@pytest.mark.parametrize("bad", [2, -2, 127, 128, -128, 200, -1000, 10**6])
def test_wide_message_coefficient_keeps_its_error(bad):
    kp = reference_keypair()
    m = [0] * TOY.n
    m[2], m[5] = 1, bad  # the first coefficient out of range is named
    reason = re.escape(f"message coefficient {bad} not centered mod 3")
    with pytest.raises(MessageRangeError, match=f"^{reason}$"):
        encrypt(kp.public, m, r=kat.NTRU_R)


def test_message_range_at_even_p():
    # (-p/2, p/2] at p = 2 holds 0 and 1 only
    pub = NtruPublicKey(NtruParams(11, 2, 41, 2), tuple(range(11)))
    m = [0, 1] * 5 + [1]
    assert len(encrypt(pub, m, r=kat.NTRU_R)) == 11
    m[4] = -1
    with pytest.raises(MessageRangeError, match="^message coefficient -1 not centered mod 2$"):
        encrypt(pub, m, r=kat.NTRU_R)


@pytest.mark.parametrize("name", ["toy11", "rec443"])
def test_keygen_and_loaded_keys_match_reference_products(name):
    # the same key from keygen and from its file: the cached per-key
    # operands give the products the unpacked references give, on first use
    # and on later blocks alike
    params = PRESETS[name]
    made = keygen(params, random.Random(23))
    loaded = formats.parse_file(formats.serialize_ntru_private(made))[2]
    public = formats.parse_file(formats.serialize_ntru_public(made.public))[2]
    assert loaded == made and public == made.public
    rng = random.Random(24)
    for _ in range(3):
        m = [rng.choice((-1, 0, 1)) for _ in range(params.n)]
        r = sample_ternary(params.n, *params.shape, rng)
        c = _encrypt_reference(made.public, m, r)
        for key in (made, loaded):
            assert encrypt(key.public, m, r=r) == c
        assert encrypt(public, m, r=r) == c
        a = conv_mul(list(made.f), c, params.q)
        expected = conv_mul(list(made.f_p_inv), a, params.p)
        for key in (made, loaded):
            assert decrypt(key, c) == expected == m
            assert decrypt_with_intermediate(key, c) == (a, expected)
        # an arbitrary ciphertext, not centered: decrypt still matches
        wild = [rng.randrange(-5 * params.q, 5 * params.q) for _ in range(params.n)]
        a = conv_mul(list(made.f), wild, params.q)
        assert decrypt(loaded, wild) == conv_mul(list(made.f_p_inv), a, params.p)


def test_sampled_blinding_matches_reference(rng):
    # encrypt with an rng draws r inside; the same draw given explicitly
    # must give the same ciphertext
    kp = keygen(PRESETS["rec443"], random.Random(3))
    m = [rng.choice((-1, 0, 1)) for _ in range(443)]
    c = encrypt(kp.public, m, rng=random.Random(9))
    r = sample_ternary(443, *PRESETS["rec443"].shape, random.Random(9))
    assert c == _encrypt_reference(kp.public, m, r)

"""McEliece keygen, encryption, decryption, and the size/work calculators."""

import dataclasses
import random

import pytest

from pqlab import f2linalg, kat
from pqlab.errors import DecodingFailure, DimensionError, UnknownParams
from pqlab.f2linalg import BinMatrix, BinVector, mat_mul, rank, vec_mat_mul
from pqlab.formats import parse_file, serialize_mceliece_private
from pqlab.goppa import GoppaCode, LinearCode
from pqlab.mceliece import (
    PRESETS,
    McElieceParams,
    decrypt,
    decrypt_long,
    encrypt,
    encrypt_long,
    from_components,
    key_size_bits,
    keygen,
    preset,
    work_factor_log2,
)


# -- keygen --


def test_keygen_shapes(rng):
    kp = keygen(4, 2, rng)
    assert kp.n == 16
    assert kp.t == 2
    assert kp.k == kp.code.k
    assert kp.public.g_hat.rows == kp.k
    assert kp.public.g_hat.cols == 16
    assert isinstance(kp.code, GoppaCode)


def test_keygen_public_matrix_full_rank_many_seeds():
    for seed in range(50):
        kp = keygen(4, 2, random.Random(seed))
        assert rank(kp.public.g_hat) == kp.k


def test_keygen_ghat_is_sgp(rng):
    kp = keygen(4, 2, rng)
    expected = kp.p.apply_mat(mat_mul(kp.s, kp.code.generator))
    assert kp.public.g_hat == expected


def test_keygen_dimension_bounds(rng):
    with pytest.raises(DimensionError):
        keygen(4, 2, rng, n=8)  # need t*m < n
    with pytest.raises(DimensionError):
        keygen(4, 2, rng, n=17)  # n > 2^m
    kp = keygen(4, 2, rng, n=12)
    assert kp.n == 12


# -- reference example --


def test_reference_ghat_reproduces():
    expected = kat.MCE_P.apply_mat(mat_mul(kat.MCE_S, kat.MCE_G))
    assert expected == kat.MCE_G_HAT


def test_reference_ciphertext_reproduces():
    c = vec_mat_mul(kat.MCE_MESSAGE, kat.MCE_G_HAT) + kat.MCE_ERROR
    assert c == kat.MCE_C


def test_reference_decryption_chain():
    kp = from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T)
    assert kp.public.g_hat == kat.MCE_G_HAT
    # the permuted ciphertext decodes to v = m.S, and m recovers
    c_hat = kat.MCE_P.apply_vec_inverse(kat.MCE_C)
    from pqlab.goppa import bruteforce_decode

    codeword, _ = bruteforce_decode(kp.code, c_hat, kat.MCE_T)
    assert kp.code.message_of(codeword) == kat.MCE_V
    assert decrypt(kp, kat.MCE_C) == kat.MCE_MESSAGE


def test_reference_error_weight():
    assert kat.MCE_ERROR.weight() == kat.MCE_T


# -- encrypt / decrypt --


def test_roundtrip_toy(rng):
    kp = keygen(4, 2, rng)
    for _ in range(100):
        m = BinVector(kp.k, rng.randrange(1 << kp.k))
        c = encrypt(kp.public, m, rng=rng)
        # ciphertext differs from the codeword in exactly t places
        assert (c + vec_mat_mul(m, kp.public.g_hat)).weight() == kp.t
        assert decrypt(kp, c) == m


def test_explicit_zero_error(rng):
    kp = keygen(4, 2, rng)
    m = BinVector(kp.k, rng.randrange(1 << kp.k))
    c = encrypt(kp.public, m, e=BinVector(kp.n, 0))
    assert c == vec_mat_mul(m, kp.public.g_hat)
    assert decrypt(kp, c) == m


def test_encrypt_needs_error_or_rng(rng):
    kp = keygen(4, 2, rng)
    m = BinVector(kp.k, 1)
    with pytest.raises(ValueError):
        encrypt(kp.public, m)


def test_encrypt_length_checks(rng):
    kp = keygen(4, 2, rng)
    with pytest.raises(DimensionError):
        encrypt(kp.public, BinVector(kp.k + 1, 0), rng=rng)
    with pytest.raises(DimensionError):
        encrypt(kp.public, BinVector(kp.k, 0), e=BinVector(kp.n + 1, 0))
    with pytest.raises(DimensionError):
        decrypt(kp, BinVector(kp.n + 1, 0))


def test_tampered_ciphertext_detected_or_wrong(rng):
    # flip t+1 bits of an error-free ciphertext: the received word sits at
    # distance t+1 from m's codeword, so decryption must raise or return a
    # different message; silently returning m is impossible
    kp = keygen(4, 2, rng)
    for _ in range(50):
        m = BinVector(kp.k, rng.randrange(1 << kp.k))
        c = encrypt(kp.public, m, e=BinVector(kp.n, 0))
        tamper = BinVector.from_support(
            kp.n, rng.sample(range(kp.n), kp.t + 1)
        )
        try:
            out = decrypt(kp, c + tamper)
        except DecodingFailure:
            continue
        assert out != m


def test_tamper_disjoint_from_error(rng):
    # flipping t+1 positions away from the error support lifts the total
    # error weight to 2t+1: again raise-or-wrong, never a silent pass
    kp = keygen(4, 2, rng)
    for _ in range(50):
        m = BinVector(kp.k, rng.randrange(1 << kp.k))
        e = BinVector.from_support(kp.n, rng.sample(range(kp.n), kp.t))
        c = encrypt(kp.public, m, e=e)
        free = [i for i in range(kp.n) if i not in e.support()]
        tamper = BinVector.from_support(kp.n, rng.sample(free, kp.t + 1))
        try:
            out = decrypt(kp, c + tamper)
        except DecodingFailure:
            continue
        assert out != m


def test_decrypt_verifies_reencryption(rng):
    # a vector far from every codeword raises rather than misdecoding
    kp = keygen(4, 2, rng)
    failures = 0
    for _ in range(20):
        junk = BinVector(kp.n, rng.randrange(1 << kp.n))
        try:
            m = decrypt(kp, junk)
        except DecodingFailure:
            failures += 1
        else:
            # accepted only when genuinely within distance t
            c2 = vec_mat_mul(m, kp.public.g_hat)
            assert (junk + c2).weight() <= kp.t
    assert failures > 0


def test_decrypt_checks_against_the_key_solver(rng):
    # a solver for another key's G_hat leaves c + e outside its row space
    kp, other = keygen(5, 3, rng), keygen(5, 3, rng)
    mixed = dataclasses.replace(kp, solver=other.solver)
    c = encrypt(kp.public, BinVector(kp.k, rng.randrange(1 << kp.k)), rng=rng)
    with pytest.raises(DecodingFailure, match="re-encryption check failed"):
        decrypt(mixed, c)


def test_decrypt_long_one_solver_per_key(monkeypatch, rng):
    # every block is solved by the key's one RowSolver; S is never inverted
    calls = {"invert": 0, "solver": 0}
    real_invert, real_init = f2linalg.invert, f2linalg.RowSolver.__init__

    def counting_invert(a):
        calls["invert"] += 1
        return real_invert(a)

    def counting_init(self, g):
        calls["solver"] += 1
        real_init(self, g)

    monkeypatch.setattr(f2linalg, "invert", counting_invert)
    monkeypatch.setattr(f2linalg.RowSolver, "__init__", counting_init)
    kp = keygen(4, 2, rng)
    _, _, loaded = parse_file(serialize_mceliece_private(kp))
    assert calls == {"invert": 0, "solver": 2}
    data = rng.randbytes(5)
    blocks = encrypt_long(kp.public, data, rng)
    assert len(blocks) == 6
    assert decrypt_long(kp, blocks) == data
    assert decrypt_long(loaded, blocks) == data
    assert calls == {"invert": 0, "solver": 2}


# -- systematic mode --


def test_systematic_keygen(rng):
    kp = keygen(4, 2, rng, systematic=True)
    assert kp.public.systematic
    k, n = kp.k, kp.n
    for i in range(k):
        assert (kp.public.g_hat.data[i] >> (n - k)) == 1 << i
    for _ in range(30):
        m = BinVector(k, rng.randrange(1 << k))
        c = encrypt(kp.public, m, rng=rng)
        assert decrypt(kp, c) == m


def test_systematic_key_reconstruction(rng):
    # storing only the A block loses nothing: [A | I_k] rebuilds exactly
    kp = keygen(4, 2, rng, systematic=True)
    k, n = kp.k, kp.n
    mask = (1 << (n - k)) - 1
    a_block = [r & mask for r in kp.public.g_hat.data]
    rebuilt = BinMatrix(
        k, n, [a_block[i] | (1 << (n - k + i)) for i in range(k)]
    )
    assert rebuilt == kp.public.g_hat


# -- from_components --


def test_from_components_opaque_code(rng):
    kp = from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T)
    assert isinstance(kp.code, LinearCode)
    for _ in range(20):
        m = BinVector(kp.k, rng.randrange(1 << kp.k))
        c = encrypt(kp.public, m, rng=rng)
        assert decrypt(kp, c) == m


# -- byte-stream blocks --


def test_long_roundtrip(rng):
    kp = keygen(4, 2, rng)
    for size in [0, 1, 2, 5, 17]:
        data = bytes(rng.randrange(256) for _ in range(size))
        blocks = encrypt_long(kp.public, data, rng)
        assert decrypt_long(kp, blocks) == data


def test_long_empty_is_one_block(rng):
    kp = keygen(4, 2, rng)
    blocks = encrypt_long(kp.public, b"", rng)
    assert len(blocks) == 1


def test_long_block_count(rng):
    # 20 message bits at k=8: 21 bits with the marker, padded to 24 -> 3 blocks
    kp = keygen(4, 2, rng)
    assert kp.k == 8
    # 2 bytes: 16+1 = 17 bits -> 3 blocks of 8
    blocks = encrypt_long(kp.public, b"ab", rng)
    assert len(blocks) == 3


def test_long_padding_marker_guard(rng):
    kp = keygen(4, 2, rng)
    # all-zero block decrypts to all-zero bits: no marker anywhere
    zero_blocks = [encrypt(kp.public, BinVector(kp.k, 0), rng=rng)]
    with pytest.raises(DecodingFailure):
        decrypt_long(kp, zero_blocks)
    # bits 11000000 strip to a single payload bit: not a whole byte
    stray = BinVector.from_bits([1, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(DecodingFailure):
        decrypt_long(kp, [encrypt(kp.public, stray, rng=rng)])


# -- calculators --


def test_params_validation():
    with pytest.raises(ValueError):
        McElieceParams(0, 1, 1)
    with pytest.raises(ValueError):
        McElieceParams(10, 11, 1)


def test_key_sizes_all_presets():
    legacy = PRESETS["legacy"]
    revised = PRESETS["revised"]
    pq = PRESETS["pq128"]
    assert key_size_bits(legacy) == 1024 * 524
    assert key_size_bits(legacy, systematic=True) == 262000
    assert key_size_bits(revised, systematic=True) == 520047
    assert key_size_bits(pq, systematic=True) == 8373911


def test_work_factors():
    assert work_factor_log2(PRESETS["legacy"]) == (524, 500)
    assert work_factor_log2(PRESETS["revised"]) == (1751, 297)
    assert work_factor_log2(McElieceParams(16, 8, 2)) == (8, 8)


def test_preset_lookup():
    assert preset("legacy") == McElieceParams(1024, 524, 50)
    with pytest.raises(UnknownParams):
        preset("nope")
    assert (PRESETS["toy"].m, PRESETS["toy"].t) == (4, 2)
    assert (PRESETS["demo"].m, PRESETS["demo"].t) == (5, 3)


def test_registry_dimensions():
    for name, params in PRESETS.items():
        assert params.k == params.n - params.m * params.t, name

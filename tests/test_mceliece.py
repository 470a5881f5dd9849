"""McEliece keygen, encryption, decryption, and the size/work calculators."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab import f2linalg, goppa, kat, mceliece
from pqlab.errors import (
    DecodingFailure,
    DimensionError,
    FormatError,
    PqlabError,
    RankError,
    SamplingExhausted,
    UnknownParams,
)
from pqlab.f2linalg import BinMatrix, BinVector, mat_mul, rank, vec_mat_mul
from pqlab.formats import parse_file, serialize_mceliece_private
from pqlab.goppa import GoppaCode, LinearCode
from pqlab.mceliece import (
    KEYGEN_TRIES,
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


# -- the README session --


def test_readme_quick_session_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    session = readme.split("A quick session:", 1)[1]
    code = session.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# -- keygen --


def test_keygen_shapes(rng):
    kp = keygen(PRESETS["toy"], rng)
    assert kp.n == 16
    assert kp.t == 2
    assert kp.k == kp.code.k
    assert kp.public.g_hat.rows == kp.k
    assert kp.public.g_hat.cols == 16
    assert isinstance(kp.code, GoppaCode)


def test_keygen_public_matrix_full_rank_many_seeds():
    for seed in range(50):
        kp = keygen(PRESETS["toy"], random.Random(seed))
        assert rank(kp.public.g_hat) == kp.k


def test_keygen_ghat_is_sgp(rng):
    kp = keygen(PRESETS["toy"], rng)
    expected = kp.p.apply_mat(mat_mul(kp.s, kp.code.generator))
    assert kp.public.g_hat == expected


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
@pytest.mark.parametrize("seed", range(5))
def test_keygen_ghat_is_sgp_m8_t10(seed, systematic):
    kp = keygen(McElieceParams(256, 176, 10), random.Random(seed), systematic=systematic)
    expected = kp.p.apply_mat(mat_mul(kp.s, kp.code.generator))
    assert kp.public.g_hat == expected


@pytest.mark.parametrize("name", list(PRESETS))
def test_presets_have_the_designed_dimension(name):
    p = PRESETS[name]
    assert p.k == p.n - p.m * p.t


@pytest.mark.parametrize(
    "params",
    [PRESETS["toy"], PRESETS["demo"], McElieceParams(256, 176, 10), McElieceParams(12, 4, 2)],
    ids=["toy", "demo", "m8-t10", "n12"],
)
def test_keygen_gives_the_params_asked_for(params):
    kp = keygen(params, random.Random(0))
    assert kp.params == params
    assert kp.public.params == params
    assert kp.code.ctx.m == params.m
    assert kp.code.support == tuple(range(params.n))


@pytest.mark.parametrize(
    "params", [McElieceParams(16, 9, 2), McElieceParams(17, 9, 2)], ids=["k-9", "n-17"]
)
def test_keygen_rejects_k_other_than_n_minus_mt(params):
    with pytest.raises(DimensionError, match=r"need k = n - m\*t"):
        keygen(params, random.Random(0))


@pytest.fixture
def drawn_g(monkeypatch):
    """The list of every g keygen draws, in order."""
    drawn = []
    real_random_irreducible = mceliece.random_irreducible

    def recording(ctx, t, r):
        drawn.append(real_random_irreducible(ctx, t, r))
        return drawn[-1]

    monkeypatch.setattr(mceliece, "random_irreducible", recording)
    return drawn


def test_keygen_redraws_rank_deficient_g(drawn_g):
    # at (5, 6) some g give an H of rank below m*t = 30, so k > 2; seed 2
    # draws two of them, and its key used to carry the first one's k = 4
    params = McElieceParams(32, 2, 6)
    kp = keygen(params, random.Random(2))
    assert kp.params == params
    assert [GoppaCode(g.ctx, g, range(32)).k for g in drawn_g] == [4, 3, 2]
    assert kp.code.g == drawn_g[-1]


def test_keygen_gives_up_after_keygen_tries_rank_deficient_draws(monkeypatch, drawn_g):
    # every code reads k = n: keygen raises after KEYGEN_TRIES draws of g
    monkeypatch.setattr(GoppaCode, "k", property(lambda self: self.n))
    with pytest.raises(SamplingExhausted):
        keygen(PRESETS["toy"], random.Random(0))
    assert len(drawn_g) == KEYGEN_TRIES


@pytest.mark.parametrize("seed", range(3))
def test_keygen_at_t1_redraws_g_with_a_root_on_the_support(seed, drawn_g):
    # a degree-1 g = x + a has its root a in GF(2^4); with 12 of the 16
    # elements as support, seeds 1 and 2 first draw a g whose root is on it
    params = McElieceParams(12, 8, 1)
    kp = keygen(params, random.Random(seed))
    assert kp.params == kp.public.params == params
    # g = x + a has the root a: every draw but the last has it on the support
    assert [g.coeffs[0] < 12 for g in drawn_g] == [True] * (len(drawn_g) - 1) + [False]
    assert kp.code.g == drawn_g[-1]
    assert len(drawn_g) > 1 or seed == 0
    rng = random.Random(seed + 100)
    for _ in range(200):
        m = BinVector(8, rng.getrandbits(8))
        assert decrypt(kp, encrypt(kp.public, m, rng=rng)) == m


def test_keygen_at_t1_on_the_full_field_gives_up(drawn_g):
    # with all 16 elements as support every degree-1 g has its root on it
    with pytest.raises(SamplingExhausted, match="off the support"):
        keygen(McElieceParams(16, 12, 1), random.Random(0))
    assert len(drawn_g) == KEYGEN_TRIES


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
    kp = keygen(PRESETS["toy"], rng)
    for _ in range(100):
        m = BinVector(kp.k, rng.randrange(1 << kp.k))
        c = encrypt(kp.public, m, rng=rng)
        # ciphertext differs from the codeword in exactly t places
        assert (c + vec_mat_mul(m, kp.public.g_hat)).weight() == kp.t
        assert decrypt(kp, c) == m


def test_explicit_zero_error(rng):
    kp = keygen(PRESETS["toy"], rng)
    m = BinVector(kp.k, rng.randrange(1 << kp.k))
    c = encrypt(kp.public, m, e=BinVector(kp.n, 0))
    assert c == vec_mat_mul(m, kp.public.g_hat)
    assert decrypt(kp, c) == m


def test_encrypt_needs_error_or_rng(rng):
    kp = keygen(PRESETS["toy"], rng)
    m = BinVector(kp.k, 1)
    with pytest.raises(ValueError):
        encrypt(kp.public, m)


def test_encrypt_length_checks(rng):
    kp = keygen(PRESETS["toy"], rng)
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
    kp = keygen(PRESETS["toy"], rng)
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
    kp = keygen(PRESETS["toy"], rng)
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
    kp = keygen(PRESETS["toy"], rng)
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


def test_decrypt_checks_against_the_key_solver(monkeypatch, rng):
    # a decoder that hands back a wrong error of weight t: c.P^-1 + e is then
    # no codeword, and reading the message off it refuses before S^-1 applies
    kp = keygen(PRESETS["demo"], rng)
    c = encrypt(kp.public, BinVector(kp.k, rng.randrange(1 << kp.k)), rng=rng)
    real_decode = goppa.patterson_decode

    def misdecode(code, word):
        _, e = real_decode(code, word)
        free = next(i for i in range(code.n) if not e[i])
        wrong = BinVector(code.n, e.bits ^ (e.bits & -e.bits) | 1 << free)
        assert wrong.weight() == kp.t
        return word + wrong, wrong

    monkeypatch.setattr(goppa, "patterson_decode", misdecode)
    with pytest.raises(DecodingFailure, match="re-encryption check failed"):
        decrypt(kp, c)
    # a heavy "error" onto the zero codeword reads a message but fails the
    # weight check
    monkeypatch.setattr(goppa, "patterson_decode", lambda code, word: (BinVector(code.n), word))
    assert kp.p.apply_vec_inverse(c).weight() > kp.t
    with pytest.raises(DecodingFailure, match="re-encryption check failed"):
        decrypt(kp, c)


def test_decrypt_long_one_solver_per_key(monkeypatch, rng):
    # S is factored once per key pair, at load or at its first decrypt and
    # never at keygen; every block is then one solve, and nothing inverts S
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
    kp = keygen(PRESETS["toy"], rng)
    assert calls == {"invert": 0, "solver": 0}
    _, _, loaded = parse_file(serialize_mceliece_private(kp))
    assert calls == {"invert": 0, "solver": 1}
    data = rng.randbytes(5)
    blocks = encrypt_long(kp.public, data, rng)
    assert len(blocks) == 6
    assert decrypt_long(kp, blocks) == data
    assert decrypt_long(loaded, blocks) == data
    assert calls == {"invert": 0, "solver": 2}


def test_systematic_keygen_inverts_only_its_tail_draws(monkeypatch):
    # each drawn permutation costs one invert of its k x k tail, and S is the
    # inverse of the last tail; nothing else is inverted
    inverted, drawn = [], []
    real_invert, real_permutation = f2linalg.invert, f2linalg.random_permutation

    def recording_invert(a):
        inverted.append(a)
        return real_invert(a)

    def recording_permutation(n, r):
        drawn.append(real_permutation(n, r))
        return drawn[-1]

    monkeypatch.setattr(f2linalg, "invert", recording_invert)
    monkeypatch.setattr(f2linalg, "random_permutation", recording_permutation)
    for seed in range(5):
        inverted.clear()
        drawn.clear()
        kp = keygen(PRESETS["toy"], random.Random(seed), systematic=True)
        n, k = kp.n, kp.k
        tails = [
            BinMatrix(k, k, [r >> (n - k) for r in p.apply_mat(kp.code.generator).data])
            for p in drawn
        ]
        assert inverted == tails
        assert kp.p == drawn[-1]
        assert kp.s == real_invert(tails[-1])
        assert len(inverted) == len(drawn)


def test_systematic_keygen_gives_up_when_no_tail_inverts(monkeypatch):
    # a singular tail for every permutation drawn: keygen raises after
    # KEYGEN_TRIES draws instead of looping on
    tries = []

    def singular(a):
        tries.append(a)
        raise RankError("singular")

    monkeypatch.setattr(f2linalg, "invert", singular)
    with pytest.raises(SamplingExhausted):
        keygen(PRESETS["toy"], random.Random(0), systematic=True)
    assert len(tries) == KEYGEN_TRIES


def test_systematic_keygen_and_public_move_columns_once(monkeypatch):
    # a tried tail is cut from the k columns P sends to the last k places,
    # so the one n-column move by P is the one that forms the public matrix
    calls = []
    real_apply_columns = f2linalg.PermMatrix.apply_columns

    def counting_apply_columns(self, columns, rows):
        calls.append(rows)
        return real_apply_columns(self, columns, rows)

    monkeypatch.setattr(f2linalg.PermMatrix, "apply_columns", counting_apply_columns)
    kp = keygen(McElieceParams(256, 176, 10), random.Random(0), systematic=True)
    assert calls == []
    kp.public
    assert calls == [kp.k]


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
def test_private_key_load_forms_no_public_matrix(monkeypatch, rng, systematic):
    # loading and decrypting go through S alone: G_hat = S.G.P is formed only
    # when the public key is asked for, and then equals the generated one
    kp = keygen(PRESETS["toy"], rng, systematic=systematic)
    data = rng.randbytes(5)
    blocks = encrypt_long(kp.public, data, rng)
    calls = {"mat_mul": 0, "apply_mat": 0}
    real_mat_mul, real_apply_mat = f2linalg.mat_mul, f2linalg.PermMatrix.apply_mat

    def counting_mat_mul(a, b):
        calls["mat_mul"] += 1
        return real_mat_mul(a, b)

    def counting_apply_mat(self, a):
        calls["apply_mat"] += 1
        return real_apply_mat(self, a)

    monkeypatch.setattr(f2linalg, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(f2linalg.PermMatrix, "apply_mat", counting_apply_mat)
    _, _, loaded = parse_file(serialize_mceliece_private(kp))
    assert decrypt_long(loaded, blocks) == data
    assert calls == {"mat_mul": 0, "apply_mat": 0}
    assert loaded.public.g_hat == kp.public.g_hat
    assert loaded.public.systematic == kp.public.systematic == systematic
    assert calls == {"mat_mul": 1, "apply_mat": 0}


def test_private_key_load_forms_no_generator(monkeypatch, rng):
    # a loaded key takes k and the free columns from one echelon pass of H
    # and decrypts without G; G is the null space of H when it is asked for
    kp = keygen(McElieceParams(64, 46, 3), rng)
    data = rng.randbytes(20)
    blocks = encrypt_long(kp.public, data, rng)
    calls = []
    real_null_space = f2linalg.null_space
    monkeypatch.setattr(f2linalg, "null_space", lambda a: calls.append(a) or real_null_space(a))
    _, _, loaded = parse_file(serialize_mceliece_private(kp))
    assert decrypt_long(loaded, blocks) == data
    assert "generator" not in vars(loaded.code)
    assert calls == []
    assert loaded.code.generator == kp.code.generator
    assert calls == []


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
def test_keygen_and_load_eliminate_h_once(monkeypatch, rng, systematic):
    # keygen reduces H once, fully, and reads k and the free columns off
    # the kernel; a load takes them from one echelon pass and no full pass
    passes = []
    real_rref = f2linalg._rref

    def recording_rref(rows, cols, back=True):
        rows = list(rows)
        passes.append((rows, back))
        return real_rref(rows, cols, back)

    monkeypatch.setattr(f2linalg, "_rref", recording_rref)
    kp = keygen(McElieceParams(64, 46, 3), rng, systematic=systematic)
    blocks = encrypt_long(kp.public, b"once", rng)
    h = kp.code.h_bin.data
    assert [back for rows, back in passes if rows == h] == [True]
    passes.clear()
    _, _, loaded = parse_file(serialize_mceliece_private(kp))
    assert decrypt_long(loaded, blocks) == b"once"
    assert [back for rows, back in passes if rows == h] == [False]
    monkeypatch.undo()
    assert loaded.code.k == kp.code.k
    assert loaded.code.generator == kp.code.generator == f2linalg.null_space(kp.code.h_bin)


# bit flips on ciphertexts of the toy Goppa key and the opaque KAT key
_FLIP_KEYS = {
    "goppa": keygen(PRESETS["toy"], random.Random(5)),
    "kat": from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_FLIP_KEYS)),
    st.integers(0, 255),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 15), max_size=8),
)
def test_flipped_ciphertext_decrypts_or_raises_pqlab_error(name, msg, err_seed, flips):
    # every outcome is the plaintext, a message within distance t of the
    # flipped word, or a PqlabError; within distance t of m it must be m
    kp = _FLIP_KEYS[name]
    assert (kp.n, kp.k) == (16, 8)
    m = BinVector(kp.k, msg)
    c = encrypt(kp.public, m, rng=random.Random(err_seed))
    for i in flips:
        c += BinVector(kp.n, 1 << i)
    near = (c + vec_mat_mul(m, kp.public.g_hat)).weight() <= kp.t
    try:
        out = decrypt(kp, c)
    except PqlabError:
        assert not near
        return
    assert (c + vec_mat_mul(out, kp.public.g_hat)).weight() <= kp.t
    assert out == m or not near


# -- systematic mode --


def test_systematic_keygen(rng):
    kp = keygen(PRESETS["toy"], rng, systematic=True)
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
    kp = keygen(PRESETS["toy"], rng, systematic=True)
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


def test_from_components_refuses_rank_deficient_generator():
    # row 7 of the KAT G replaced by row 0 + row 1: such a key used to
    # encrypt, and every decrypt of its own ciphertext then failed the
    # re-encryption check; the code's solver now refuses it at build time
    rows = list(kat.MCE_G.data)
    rows[7] = rows[0] ^ rows[1]
    g2 = BinMatrix(kat.MCE_G.rows, kat.MCE_G.cols, rows)
    with pytest.raises(RankError):
        from_components(kat.MCE_S, g2, kat.MCE_P, 2)


def test_from_components_key_cannot_be_serialized():
    # the file format stores a Goppa code as (g, support); an opaque
    # generator has neither
    kp = from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T)
    with pytest.raises(FormatError, match="only Goppa-backed private keys"):
        serialize_mceliece_private(kp)


# -- byte-stream blocks --


def test_long_roundtrip(rng):
    kp = keygen(PRESETS["toy"], rng)
    for size in [0, 1, 2, 5, 17]:
        data = bytes(rng.randrange(256) for _ in range(size))
        blocks = encrypt_long(kp.public, data, rng)
        assert decrypt_long(kp, blocks) == data


def test_long_empty_is_one_block(rng):
    kp = keygen(PRESETS["toy"], rng)
    blocks = encrypt_long(kp.public, b"", rng)
    assert len(blocks) == 1


def test_long_block_count(rng):
    # 20 message bits at k=8: 21 bits with the marker, padded to 24 -> 3 blocks
    kp = keygen(PRESETS["toy"], rng)
    assert kp.k == 8
    # 2 bytes: 16+1 = 17 bits -> 3 blocks of 8
    blocks = encrypt_long(kp.public, b"ab", rng)
    assert len(blocks) == 3


def test_long_padding_marker_guard(rng):
    kp = keygen(PRESETS["toy"], rng)
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
    # no binary Goppa code has them: 2t <= n - k (Singleton)
    for n, k, t in [(16, 8, 5), (10, 9, 1)]:
        with pytest.raises(ValueError, match=r"t must lie in \[1, \d\], got t="):
            McElieceParams(n, k, t)


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

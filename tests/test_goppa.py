"""Binary Goppa codes: parity checks, syndromes, Patterson decoding."""

import random
from itertools import combinations

import pytest

from pqlab import goppa
from pqlab.errors import DecodingFailure, DimensionError, RankError, SupportError
from pqlab.f2linalg import BinMatrix, BinVector, mat_vec_mul, null_space, rank
from pqlab.gf2m import FieldCtx, FieldPoly, poly_inv_mod, random_irreducible, sliced_horner
from pqlab.goppa import (
    GoppaCode,
    LinearCode,
    bruteforce_decode,
    build_parity_check,
    patterson_decode,
)

from oracles import poly_eval


def make_code(m, t, seed=1):
    ctx = FieldCtx(m)
    g = random_irreducible(ctx, t, random.Random(seed))
    return GoppaCode(ctx, g, range(ctx.order))


# -- construction --


def test_parity_check_shape_m4_t2():
    code = make_code(4, 2)
    assert code.h_bin.rows == 8  # m*t = 4*2
    assert code.h_bin.cols == 16


def random_code(m, seed, partial):
    """A random code over GF(2^m) with m*t < n; partial picks a sorted
    subset of the field as support."""
    ctx = FieldCtx(m)
    rng = random.Random(seed)
    t = rng.randrange(2, (ctx.order - 1) // m + 1)
    g = random_irreducible(ctx, t, rng)
    support = range(ctx.order)
    if partial:
        support = sorted(rng.sample(support, rng.randrange(m * t + 1, ctx.order)))
    return GoppaCode(ctx, g, support)


def xyz_reference(code):
    """Binary rows of H = X*Y*Z, built from the textbook definition: X is
    lower triangular with X[r][i] = g_{t-r+i}, Y[i][j] = alpha_j^i and Z the
    diagonal of 1/g(alpha_j).  Bit b of entry (r, j) is bit j of row r*m + b."""
    ctx, g, t = code.ctx, code.g, code.t
    h = [[0] * code.n for _ in range(t)]
    for j, a in enumerate(code.support):
        z = ctx.inv(poly_eval(g, a))
        for r in range(t):
            for i in range(r + 1):
                y = ctx.pow(a, i)
                h[r][j] ^= ctx.mul(g[t - r + i], ctx.mul(y, z))
    rows = []
    for r in range(t):
        for b in range(ctx.m):
            rows.append(sum(((h[r][j] >> b) & 1) << j for j in range(code.n)))
    return rows


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_parity_check_equals_xyz_product(m, partial):
    for seed in range(2):
        code = random_code(m, 10 * m + seed, partial)
        assert code.h_bin.rows == m * code.t
        assert code.h_bin.data == xyz_reference(code)


@pytest.mark.parametrize("m", [9, 10, 11, 12, 13])
def test_parity_check_matches_xyz_at_large_m(m):
    # small partial supports keep the textbook product cheap at large m
    ctx = FieldCtx(m)
    rng = random.Random(500 + m)
    for _ in range(2):
        t = rng.randrange(2, 5)
        g = random_irreducible(ctx, t, rng)
        support = rng.sample(range(ctx.order), m * t + rng.randrange(1, 12))
        code = GoppaCode(ctx, g, support)
        assert code.h_bin.rows == m * t
        assert code.h_bin.data == xyz_reference(code)


def test_dimension_bound():
    # k >= n - m*t, with equality when H has full rank
    for m, t in [(4, 2), (5, 2), (5, 3)]:
        code = make_code(m, t)
        n = 1 << m
        assert code.n == n
        assert code.k >= n - m * t
        assert code.k == n - rank(code.h_bin)


def test_generator_rows_satisfy_parity_check():
    code = make_code(4, 2)
    for i in range(code.k):
        row = code.generator.row(i)
        assert mat_vec_mul(code.h_bin, row).bits == 0
        assert code.is_codeword(row)


def test_support_with_root_rejected():
    # over the base field GF(2^m), g = x has root 0
    ctx = FieldCtx(4)
    g = FieldPoly([0, 0, 1], ctx)  # x^2, vanishes at 0
    with pytest.raises(SupportError, match="support element 0 is a root of g"):
        build_parity_check(g, range(16))
    # with two roots on the support, the first in support order is named
    g = FieldPoly([3, 1], ctx) * FieldPoly([9, 1], ctx)
    with pytest.raises(SupportError, match="support element 9 is a root of g"):
        build_parity_check(g, [1, 2, 9, 4, 3, 5])
    with pytest.raises(SupportError, match="support element 3 is a root of g"):
        build_parity_check(g, [1, 2, 3, 4, 9, 5])


def test_repeated_support_rejected():
    ctx = FieldCtx(4)
    g = random_irreducible(ctx, 2, random.Random(1))
    with pytest.raises(SupportError, match="distinct"):
        build_parity_check(g, [1, 2, 2, 3])
    # the repeat is reported even when a root of g is on the support too
    g = FieldPoly([3, 1], ctx) * FieldPoly([9, 1], ctx)
    with pytest.raises(SupportError, match="distinct"):
        build_parity_check(g, [3, 1, 2, 2, 9])


def test_support_outside_field_rejected():
    ctx = FieldCtx(4)
    g = random_irreducible(ctx, 2, random.Random(1))
    for support in ([1, 2, 16], [-1, 2, 3]):
        with pytest.raises(SupportError, match=r"lie in \[0, 16\)"):
            build_parity_check(g, support)


def test_context_mismatch_rejected():
    ctx4, ctx5 = FieldCtx(4), FieldCtx(5)
    g = random_irreducible(ctx5, 2, random.Random(1))
    with pytest.raises(DimensionError):
        GoppaCode(ctx4, g, range(16))


def test_partial_support():
    ctx = FieldCtx(5)
    g = random_irreducible(ctx, 2, random.Random(3))
    code = GoppaCode(ctx, g, range(20))
    assert code.n == 20
    assert (code.n, code.k, code.t) == (20, code.k, 2)


# -- syndromes --


def _position_inverse_sum(code, word):
    """Sum of (x - alpha_i)^-1 mod g over the set bits of word, each inverse
    from the generic extended Euclid, independent of H."""
    x = FieldPoly.x(code.ctx)
    acc = FieldPoly.zero(code.ctx)
    for pos in word.support():
        acc = acc + poly_inv_mod(x + FieldPoly([code.support[pos]], code.ctx), code.g)
    return acc


def test_rational_syndrome_zero_on_codewords(rng):
    code = make_code(4, 2)
    for i in range(code.k):
        word = code.generator.row(i)
        assert code.syndrome(word).is_zero()
        assert _position_inverse_sum(code, word).is_zero()


def test_single_error_syndrome_is_position_inverse():
    code = make_code(4, 2)
    x = FieldPoly.x(code.ctx)
    for j in [0, 3, 7, 15]:
        e = BinVector.from_support(code.n, [j])
        alpha = code.support[j]
        expected = poly_inv_mod(x + FieldPoly([alpha], code.ctx), code.g)
        assert code.syndrome(e) == expected


def test_syndrome_linearity(rng):
    code = make_code(4, 2)
    for _ in range(30):
        a = BinVector(code.n, rng.randrange(1 << code.n))
        b = BinVector(code.n, rng.randrange(1 << code.n))
        assert code.syndrome(a + b) == code.syndrome(a) + code.syndrome(b)


def test_syndrome_equals_sum_of_position_inverses(rng):
    for m in (3, 5, 8):
        code = random_code(m, m, True)
        for _ in range(10):
            v = BinVector(code.n, rng.randrange(1 << code.n))
            assert code.syndrome(v) == _position_inverse_sum(code, v)
    # one word at the legacy size m=10, t=50 (seed 2 finds g quickly)
    ctx = FieldCtx(10)
    g = random_irreducible(ctx, 50, random.Random(2))
    code = GoppaCode(ctx, g, range(ctx.order))
    v = BinVector(code.n, rng.randrange(1 << code.n))
    assert code.syndrome(v) == _position_inverse_sum(code, v)


# -- encoding --


def test_encode_message_roundtrip(rng):
    # message_of reads G's identity columns: check it on full and partial
    # supports, and that a word off the code is refused, not misread
    codes = [make_code(4, 2)] + [random_code(m, seed, True) for m in (3, 5, 8) for seed in (1, 2)]
    for code in codes:
        for _ in range(20):
            msg = BinVector(code.k, rng.randrange(1 << code.k))
            word = code.encode(msg)
            assert code.is_codeword(word)
            assert code.message_of(word) == msg
            flipped = word + BinVector.from_support(code.n, [rng.randrange(code.n)])
            with pytest.raises(RankError):
                code.message_of(flipped)


def test_rank_deficient_codes_match_null_space(rng):
    # k and the free columns come from the pivots of one echelon pass.  On
    # supports of about m*t elements H often loses rank (k above n - m*t,
    # or k = 0 with n < m*t), and k, the generator and message_of must
    # still agree with the null space of H
    deficient = 0
    for m in (3, 4, 5, 6):
        ctx = FieldCtx(m)
        for seed in range(24):
            r = random.Random(100 * m + seed)
            t = r.randrange(2, max(3, (ctx.order - 1) // m + 1))
            g = random_irreducible(ctx, t, r)
            n = max(1, min(ctx.order - 1, m * t + r.randrange(-m, m + 1)))
            code = GoppaCode(ctx, g, sorted(r.sample(range(ctx.order), n)))
            kernel = null_space(code.h_bin)
            assert "generator" not in vars(code)
            assert code.k == kernel.rows
            deficient += code.k > max(0, n - m * t)
            for _ in range(5):
                msg = BinVector(code.k, rng.getrandbits(code.k))
                assert code.message_of(code.encode(msg)) == msg
            assert code.generator == kernel
    assert deficient >= 10


# -- Patterson decoding --


def test_decode_zero_errors(rng):
    code = make_code(4, 2)
    word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
    decoded, err = patterson_decode(code, word)
    assert decoded == word
    assert err.weight() == 0


def test_decode_single_error(rng):
    code = make_code(4, 2)
    for j in range(code.n):
        word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
        received = word + BinVector.from_support(code.n, [j])
        decoded, err = patterson_decode(code, received)
        assert decoded == word
        assert err == BinVector.from_support(code.n, [j])


def test_decode_double_error_all_patterns(rng):
    code = make_code(4, 2)
    word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
    for i, j in combinations(range(code.n), 2):
        received = word + BinVector.from_support(code.n, [i, j])
        decoded, err = patterson_decode(code, received)
        assert decoded == word
        assert err.support() == [i, j]


def test_patterson_agrees_with_bruteforce(rng):
    code = make_code(4, 2)
    for _ in range(100):
        word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
        w = rng.randrange(code.t + 1)
        positions = rng.sample(range(code.n), w)
        received = word + BinVector.from_support(code.n, positions)
        p_word, p_err = patterson_decode(code, received)
        b_word, b_err = bruteforce_decode(code, received, code.t)
        assert p_word == b_word
        assert p_err == b_err


def test_decode_beyond_radius_detected_or_wrong(rng):
    # t+1 errors: no guarantee; outcome must be a raise or a codeword that
    # differs from the transmitted one
    code = make_code(4, 2)
    outcomes = {"raised": 0, "wrong": 0, "silent": 0}
    for trial in range(50):
        word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
        positions = rng.sample(range(code.n), code.t + 1)
        received = word + BinVector.from_support(code.n, positions)
        try:
            decoded, _ = patterson_decode(code, received)
        except DecodingFailure:
            outcomes["raised"] += 1
        else:
            assert code.is_codeword(decoded)
            if decoded == word:
                outcomes["silent"] += 1
            else:
                outcomes["wrong"] += 1
    # decoding t+1 errors back to the transmitted word would need a distance
    # 2t+2 <= 2t+1 contradiction, so silent success is impossible
    assert outcomes["silent"] == 0
    assert outcomes["raised"] + outcomes["wrong"] == 50


def test_decoder_output_is_always_a_codeword(rng):
    # the decoder runs no parity check of its own: whenever the locator
    # splits on the support, the corrected word must be a codeword anyway,
    # for words at any distance from the code and on partial supports
    codes = [make_code(4, 2), make_code(5, 3, seed=4)]
    codes += [random_code(m, seed, True) for m in (4, 5, 6) for seed in (1, 2)]
    decoded = 0
    for code in codes:
        for _ in range(300):
            received = BinVector(code.n, rng.getrandbits(code.n))
            try:
                word, err = patterson_decode(code, received)
            except DecodingFailure:
                continue
            decoded += 1
            assert code.is_codeword(word)
            assert word + err == received
            assert err.weight() <= code.t
    assert decoded > 100


def test_randomized_m6_t3(rng):
    code = make_code(6, 3, seed=9)
    assert (code.n, code.k, code.t) == (64, code.k, 3)
    for _ in range(100):
        word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
        w = rng.randrange(code.t + 1)
        received = word + BinVector.from_support(
            code.n, rng.sample(range(code.n), w)
        )
        decoded, err = patterson_decode(code, received)
        assert decoded == word
        assert err.weight() == w


def test_root_search_matches_sliced_horner(monkeypatch, rng):
    # the decoder with the table evaluator and with sliced Horner in its
    # place: the same codeword and error, or the same DecodingFailure text,
    # for 0 to t+3 errors
    codes = [make_code(4, 2), make_code(6, 3, seed=9), make_code(8, 10)]
    codes += [random_code(m, seed, True) for m in (5, 7) for seed in (1, 2)]

    def outcome(code, received):
        try:
            return patterson_decode(code, received)
        except DecodingFailure as exc:
            return str(exc)

    outcomes = set()
    for code in codes:
        words = []
        for w in range(code.t + 4):
            for _ in range(6):
                word = code.encode(BinVector(code.k, rng.getrandbits(code.k)))
                words.append(word + BinVector.from_support(code.n, rng.sample(range(code.n), w)))
        fast = [outcome(code, word) for word in words]
        full = (1 << code.n) - 1
        with monkeypatch.context() as patch:
            patch.setattr(
                goppa, "sliced_eval", lambda p, tables: sliced_horner(p, code.support_slices, full)[1]
            )
            assert [outcome(code, word) for word in words] == fast
        outcomes.update(type(o).__name__ for o in fast)
    assert outcomes == {"tuple", "str"}


def test_decode_length_mismatch():
    code = make_code(4, 2)
    with pytest.raises(DimensionError):
        patterson_decode(code, BinVector(8))
    with pytest.raises(DimensionError):
        code.syndrome(BinVector(8))
    with pytest.raises(DimensionError):
        bruteforce_decode(code, BinVector(8), 1)


# -- exhaustive decoder --


def test_bruteforce_bounds():
    code = make_code(4, 2)
    with pytest.raises(DimensionError):
        bruteforce_decode(code, BinVector(code.n), 4)
    big = LinearCode(make_code(5, 2).generator)
    assert big.n == 32
    with pytest.raises(DimensionError):
        bruteforce_decode(big, BinVector(32), 2)


def test_bruteforce_no_codeword_in_radius():
    # the [2,1] repetition code: 10 is at distance 1 from both codewords,
    # so a t=0 search has nothing to return
    code = LinearCode(BinMatrix.from_rows([[1, 1]]))
    with pytest.raises(DecodingFailure):
        bruteforce_decode(code, BinVector.from_bits([1, 0]), 0)


# -- opaque linear codes --


def test_linear_code_wraps_generator(rng):
    goppa = make_code(4, 2)
    plain = LinearCode(goppa.generator)
    assert (plain.n, plain.k) == (goppa.n, goppa.k)
    for _ in range(50):
        v = BinVector(goppa.n, rng.randrange(1 << goppa.n))
        assert plain.is_codeword(v) == goppa.is_codeword(v)
    msg = BinVector(plain.k, rng.randrange(1 << plain.k))
    word = plain.encode(msg)
    assert plain.message_of(word) == msg


def test_linear_code_bruteforce_decode(rng):
    goppa = make_code(4, 2)
    plain = LinearCode(goppa.generator)
    for _ in range(30):
        word = plain.encode(BinVector(plain.k, rng.randrange(1 << plain.k)))
        positions = rng.sample(range(plain.n), 2)
        received = word + BinVector.from_support(plain.n, positions)
        decoded, err = bruteforce_decode(plain, received, 2)
        assert decoded == word
        assert sorted(err.support()) == sorted(positions)

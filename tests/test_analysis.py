"""Exhaustive code oracles, counting, the toy lattice attack, summaries."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gray_codewords,
    min_weight_gray,
    nearest_codeword_gray,
    ripple_weight_slices,
    weight_spectrum_gray,
)
from pqlab import analysis, kat
from pqlab.analysis import (
    AttackReport,
    count_bases,
    min_weight_bruteforce,
    nearest_codeword_bruteforce,
    ntru_lll_attack,
    run_attack_trials,
    security_summary,
    weight_spectrum,
)
from pqlab.convring import conv_mul, ternary_shape
from pqlab.errors import DimensionError, UnknownParams
from pqlab.f2linalg import (
    BinMatrix,
    BinVector,
    mat_mul,
    random_invertible,
    random_permutation,
    rank,
    vec_mat_mul,
)
from pqlab.goppa import patterson_decode
from pqlab.lattice import ConvModLattice, cvp_bruteforce
from pqlab.mceliece import PRESETS as MCE_PRESETS, keygen as mce_keygen
from pqlab.ntru import NtruParams, keygen as ntru_keygen


# -- minimum weight --


def test_min_weight_reference_code():
    w, witness = min_weight_bruteforce(kat.MCE_G)
    assert w == kat.MCE_MIN_WEIGHT == 5
    assert witness.weight() == 5
    # the witness is a codeword
    assert kat.MCE_G.rows == 8
    from pqlab.goppa import LinearCode

    assert LinearCode(kat.MCE_G).is_codeword(witness)


def test_min_weight_identity_code():
    w, witness = min_weight_bruteforce(BinMatrix.identity(6))
    assert w == 1
    assert witness.weight() == 1


def test_min_weight_repetition_code():
    w, witness = min_weight_bruteforce(BinMatrix.from_rows([[1, 1, 1, 1]]))
    assert w == 4
    assert witness == BinVector.from_bits([1, 1, 1, 1])


def test_min_weight_bound():
    with pytest.raises(DimensionError):
        min_weight_bruteforce(BinMatrix.zero(25, 30))


# -- weight spectrum --


def test_spectrum_zero_code():
    assert weight_spectrum(BinMatrix(0, 5, [])) == {0: 1}


def test_spectrum_total_count(rng):
    g = kat.MCE_G
    spec = weight_spectrum(g)
    assert sum(spec.values()) == 2**8
    assert spec[0] == 1
    assert min(w for w in spec if w > 0) == kat.MCE_MIN_WEIGHT


def test_spectrum_invariant_under_scrambling(rng):
    base = weight_spectrum(kat.MCE_G)
    # the reference triple
    assert weight_spectrum(kat.MCE_G_HAT) == base
    # five fresh (S, P) pairs
    for _ in range(5):
        s = random_invertible(8, rng)
        p = random_permutation(16, rng)
        scrambled = p.apply_mat(mat_mul(s, kat.MCE_G))
        assert weight_spectrum(scrambled) == base


def test_spectrum_differs_for_unrelated_code():
    # recorded, not asserted: a different random code's spectrum
    kp = mce_keygen(MCE_PRESETS["toy"], random.Random(123))
    other = weight_spectrum(kp.code.generator)
    base = weight_spectrum(kat.MCE_G)
    print(f"spectra equal for unrelated codes: {other == base}")


# -- nearest codeword --


def test_nearest_fixes_codewords(rng):
    g = kat.MCE_G
    for _ in range(20):
        word = vec_mat_mul(BinVector(8, rng.randrange(256)), g)
        assert nearest_codeword_bruteforce(g, word) == word


def test_nearest_agrees_with_patterson(rng):
    kp = mce_keygen(MCE_PRESETS["toy"], rng)
    code = kp.code
    for _ in range(50):
        word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
        positions = rng.sample(range(code.n), 2)
        received = word + BinVector.from_support(code.n, positions)
        nearest = nearest_codeword_bruteforce(code.generator, received)
        decoded, _ = patterson_decode(code, received)
        assert nearest == decoded == word


def test_nearest_tie_breaks_to_smallest_message():
    # G = [[1,1]]: codewords 00 and 11, both at distance 1 from 10; the
    # smaller message (0) wins
    g = BinMatrix.from_rows([[1, 1]])
    assert nearest_codeword_bruteforce(g, BinVector.from_bits([1, 0])) == BinVector(2, 0)


def test_nearest_tie_breaks_on_lowest_message_bit():
    # messages 1 and 2 give 00111 and 11001, both at distance 2 from 01011;
    # the order compares bit 0 first, so message 2 (bits 0,1) beats
    # message 1 (bits 1,0) although 1 < 2 as integers
    g = BinMatrix(2, 5, [0b00111, 0b11001])
    assert nearest_codeword_bruteforce(g, BinVector(5, 0b01011)) == BinVector(5, 0b11001)


def test_nearest_validation():
    g = BinMatrix.from_rows([[1, 1]])
    with pytest.raises(DimensionError):
        nearest_codeword_bruteforce(g, BinVector(3))
    with pytest.raises(DimensionError):
        nearest_codeword_bruteforce(BinMatrix.zero(25, 30), BinVector(30))


def test_nearest_matches_cvp_under_embedding(rng):
    # binary [n, k] code embedded as the integer lattice generated by the
    # 0/1 generator rows plus 2Z^n: for 0/1 targets, squared Euclidean
    # distance equals Hamming distance, so the closest lattice point reduces
    # mod 2 to a nearest codeword
    g = BinMatrix.from_rows([
        [1, 0, 1, 1, 0],
        [0, 1, 0, 1, 1],
    ])
    n, k = g.cols, g.rows
    basis = []
    for i in range(k):
        basis.append(g.row(i).to_bits())
    for j in range(n - k):
        row = [0] * n
        row[k + j] = 2
        basis.append(row)
    # the 2e_j rows for pivot columns are integer combinations of the above,
    # so this n-row basis spans code + 2Z^n
    for target_bits in range(1 << n):
        w = BinVector(n, target_bits)
        closest = cvp_bruteforce(basis, w.to_bits(), bound=3)
        nearest = nearest_codeword_bruteforce(g, w)
        dist_sq = sum((a - b) ** 2 for a, b in zip(closest, w.to_bits()))
        hamming = (nearest + w).weight()
        assert dist_sq == hamming
        folded = BinVector.from_bits([c % 2 for c in closest])
        # the folded point is a codeword at the same distance
        assert (folded + w).weight() == hamming
        from pqlab.goppa import LinearCode

        assert LinearCode(g).is_codeword(folded)


# -- the sliced oracles against the Gray sweep --


@st.composite
def codes(draw, max_k):
    """A k x n generator with k in [0, max_k], n in [1, 40]; rows are random,
    zero, copies of an earlier row or sums of two earlier rows, so G is
    often rank-deficient."""
    k = draw(st.integers(0, max_k))
    n = draw(st.integers(1, 40))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "sum"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append(0)
        elif kind == "copy":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "sum":
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.integers(0, (1 << n) - 1)))
    return BinMatrix(k, n, rows)


def _first_message_witness(g, w):
    """The codeword of weight w whose message comes first, bit 0 first."""
    k = g.rows
    msg = min(
        (m for m, word in gray_codewords(g) if word.bit_count() == w),
        key=lambda m: format(m, f"0{k}b")[::-1],
    )
    return vec_mat_mul(BinVector(k, msg), g)


def _tie_targets(g, data):
    """Targets for the nearest oracle: a random word, one equidistant from
    two codewords, and one next to a codeword, so ties are common."""
    k, n = g.rows, g.cols

    def word():
        return vec_mat_mul(BinVector(k, data.draw(st.integers(0, (1 << k) - 1))), g)

    a, b = word(), word()
    split = BinVector.from_support(n, (a + b).support()[::2])
    near = word() + BinVector.from_support(n, [data.draw(st.integers(0, n - 1))])
    return [BinVector(n, data.draw(st.integers(0, (1 << n) - 1))), a + split, near]


def _assert_oracles_match_gray(g, data):
    assert weight_spectrum(g) == weight_spectrum_gray(g)
    w, witness = min_weight_bruteforce(g)
    assert w == min_weight_gray(g)[0]
    if w <= g.cols:
        assert witness == _first_message_witness(g, w)
    else:
        assert witness == BinVector(g.cols, 0)
    for target in _tie_targets(g, data):
        assert nearest_codeword_bruteforce(g, target) == nearest_codeword_gray(g, target)


@settings(max_examples=50, deadline=None)
@given(codes(max_k=17), st.data())
def test_sliced_oracles_match_gray_sweep(g, data):
    # k up to 17 crosses the 14 lane bits, so several outer words run
    _assert_oracles_match_gray(g, data)


@pytest.mark.parametrize("lane_bits", [2, 3])
@settings(max_examples=150, deadline=None)
@given(codes(max_k=9), st.data())
def test_sliced_oracles_match_gray_sweep_at_narrow_lanes(lane_bits, g, data):
    # narrow lanes put most message bits in the outer loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_LANE_BITS", lane_bits)
        _assert_oracles_match_gray(g, data)


@st.composite
def wide_codes(draw):
    """A k x n generator with k in [0, 8] and n in [60, 80]; rows are
    random, dense (7 of 8 bits set), all ones, zero or sums of two earlier
    rows, so codewords of weight 64 and up, which take a seventh weight
    slice, are common, and so are spectrum prefixes past n."""
    k = draw(st.integers(0, 8))
    n = draw(st.integers(60, 80))
    full = (1 << n) - 1
    word = st.integers(0, full)
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["random", "dense", "ones", "zero", "sum"]))
        if kind == "random":
            rows.append(draw(word))
        elif kind == "dense":
            rows.append(full ^ (draw(word) & draw(word) & draw(word)))
        elif kind == "ones":
            rows.append(full)
        elif kind == "sum" and rows:
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
        else:
            rows.append(0)
    return BinMatrix(k, n, rows)


@pytest.mark.parametrize("lane_bits", [14, 3])
@settings(max_examples=60, deadline=None)
@given(wide_codes(), st.data())
def test_sliced_oracles_match_gray_sweep_on_wide_codes(lane_bits, g, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_LANE_BITS", lane_bits)
        _assert_oracles_match_gray(g, data)


# -- the carry-save weight counter --


@st.composite
def lane_columns(draw):
    """0 to 80 lane masks of one width in [1, 300], in random order: a run
    of all-ones columns (64 of them carry out of the top level) and others
    that are as often all zeros or all ones as random."""
    width = draw(st.integers(1, 300))
    ones = (1 << width) - 1
    run = draw(st.integers(0, 80))
    column = st.sampled_from([0, ones]) | st.integers(0, ones)
    rest = draw(st.lists(column, max_size=80 - run))
    return draw(st.permutations([ones] * run + rest))


@settings(max_examples=300, deadline=None)
@given(lane_columns())
def test_weight_slices_match_ripple_counter(columns):
    assert analysis._weight_slices(iter(columns)) == ripple_weight_slices(columns)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 63, 64, 65, 80])
def test_weight_slices_of_all_ones_columns(count):
    # every lane counts to `count`, so slice i is all ones where bit i of
    # count is set, up to its top bit
    ones = (1 << 37) - 1
    slices = analysis._weight_slices([ones] * count)
    assert slices == [ones if count >> i & 1 else 0 for i in range(count.bit_length())]
    assert analysis._weight_slices([0] * count) == []


@pytest.mark.parametrize("k", [0, 1, 16])
def test_min_weight_zero_code_has_no_witness(k):
    assert min_weight_bruteforce(BinMatrix.zero(k, 7)) == (8, BinVector(7, 0))


def test_min_weight_witness_is_first_in_message_order():
    # messages 1 and 4 both give weight 2; bit 0 first, 4 (0,0,1) comes
    # before 1 (1,0,0), although the Gray sweep meets 1 first
    g = BinMatrix(3, 6, [0b000011, 0b011100, 0b110000])
    assert min_weight_bruteforce(g) == (2, BinVector(6, 0b110000))
    assert min_weight_gray(g) == (2, BinVector(6, 0b000011))


# -- counting bases --


def test_count_bases_small_values():
    assert count_bases(1) == 1
    assert count_bases(2) == 3
    assert count_bases(3) == 28


def test_count_bases_matches_enumeration():
    # enumerate unordered bases of GF(2)^k directly
    for k in [1, 2, 3]:
        vectors = list(range(1, 1 << k))
        found = 0
        for combo in combinations(vectors, k):
            m = BinMatrix(k, k, list(combo))
            if rank(m) == k:
                found += 1
        assert count_bases(k) == found


def test_count_bases_bounds():
    with pytest.raises(DimensionError):
        count_bases(0)
    with pytest.raises(DimensionError):
        count_bases(17)
    # the largest supported value is exact big-integer arithmetic
    assert count_bases(16) > 0


# -- the toy lattice attack --


def test_attack_succeeds_on_seed_zero():
    params = NtruParams(7, 3, 41, 2)
    rng = random.Random(0)
    kp = ntru_keygen(params, rng)
    report = ntru_lll_attack(list(kp.public.h), params, rng, seed_label=0)
    assert report.successes == 1
    d = report.details[0]
    assert d["success"]
    recovered = d["recovered_f"]
    # the recovered key is ternary and satisfies membership
    assert ternary_shape(recovered) is not None
    g_rec = conv_mul(recovered, list(kp.public.h), params.q)
    assert ConvModLattice(kp.public.h, params.q).contains(recovered, g_rec)


def test_attack_candidates_all_pass_membership():
    params = NtruParams(7, 3, 41, 2)
    rng = random.Random(3)
    kp = ntru_keygen(params, rng)
    report = ntru_lll_attack(list(kp.public.h), params, rng, seed_label=3)
    lat = ConvModLattice(kp.public.h, params.q)
    for cand in report.details[0]["candidate_list"]:
        assert ternary_shape(cand.f) is not None
        assert ternary_shape(cand.g) is not None
        assert lat.contains(cand.f, cand.g)
        assert cand.row_norm_sq > 0


def test_attack_dimension_bound(rng):
    params = NtruParams(13, 3, 41, 2)
    kp = ntru_keygen(params, rng)
    with pytest.raises(UnknownParams, match="attack demo limited to N <= 12, got N=13"):
        ntru_lll_attack(list(kp.public.h), params, rng)


def test_attack_asserts_that_candidates_are_lattice_members(monkeypatch, rng):
    # LLL keeps every row in the lattice; a ternary row that is not a member
    # can only come from a broken reduction, and the attack refuses it
    params = NtruParams(7, 3, 41, 2)
    kp = ntru_keygen(params, rng)
    h = list(kp.public.h)
    f = [1, 0, 0, 0, 0, 0, 0]
    g = [1, 0, 0, 0, 0, 0, 0]
    assert not ConvModLattice(h, params.q).contains(f, g)
    monkeypatch.setattr(analysis, "lll_reduce", lambda basis: [f + g])
    with pytest.raises(AssertionError, match="reduced row left the lattice"):
        ntru_lll_attack(h, params, rng)


def test_attack_trials_report_invariants():
    params = NtruParams(7, 3, 41, 2)
    report = run_attack_trials(params, [0, 1, 2])
    assert isinstance(report, AttackReport)
    assert report.seeds == [0, 1, 2]
    assert 0 <= report.successes <= 3
    assert len(report.details) == 3
    assert report.wall_time >= 0
    rows = report.csv_rows()
    assert rows[0] == "seed,candidates,success,recovered_f"
    assert len(rows) == 4
    # byte-stable: rerunning the same seeds reproduces the rows exactly
    again = run_attack_trials(params, [0, 1, 2])
    assert again.csv_rows() == rows
    assert "ntru-lll" in report.summary()


@pytest.mark.parametrize("n", [7, 11])
def test_attack_trials_concatenate_the_per_seed_attacks(n):
    # the merged report holds each seed's own attack details, candidate
    # lists included, and counts the successful ones
    params = NtruParams(n, 3, 41, 2)
    seeds = list(range(6))
    expected = []
    for seed in seeds:
        rng = random.Random(seed)
        kp = ntru_keygen(params, rng)
        expected += ntru_lll_attack(kp.public.h, params, rng, seed_label=seed).details
    report = run_attack_trials(params, seeds)
    assert report.details == expected
    assert report.seeds == seeds
    assert report.successes == sum(1 for d in expected if d["success"])


def test_attack_large_modulus_demonstration():
    # recorded, not asserted: success rate at N=11, q=2048 (the lattice gap
    # actually widens with q at fixed N, so recovery stays easy here; the
    # hardness the full scheme relies on comes from N)
    params = NtruParams(11, 3, 2048, 2)
    report = run_attack_trials(params, [0])
    print(f"N=11 q=2048 recoveries: {report.successes}/1")
    assert report.successes in (0, 1)


# -- security summaries --


def test_security_summary_mceliece_legacy():
    lines = security_summary("legacy")
    assert "public key bits: 536576" in lines
    assert "public key bits (systematic): 262000" in lines
    assert "work factor log2: codeword search 524, coset leaders 500" in lines
    assert "2^60.55" in "\n".join(lines)


def test_security_summary_mceliece_pq128():
    text = "\n".join(security_summary("pq128"))
    assert "8373911" in text
    assert "128-bit post-quantum" in text


def test_security_summary_ntru():
    text = "\n".join(security_summary("rec443"))
    assert "[443,3,2048]" in text
    assert "128-bit post-quantum" in text
    # toy presets are recognized too (no notes)
    assert not any(line.startswith("note:") for line in security_summary("toy11"))


def test_security_summary_unknown():
    with pytest.raises(UnknownParams):
        security_summary("nope")

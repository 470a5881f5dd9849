"""Acceptance gate: the twelve checks the package must satisfy, one test
per criterion, each printing a single pass/fail line.

Criterion 1 currently FAILS, on purpose: the stored reference vector for the
permuted ciphertext c_hat is inconsistent with the rest of the worked
example (it equals c.P where every other stored value is consistent with
c.P^-1).  The comparison is kept faithful instead of being patched around;
see the matching note in the README.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from pqlab import convring, kat, mceliece, ntru
from pqlab.analysis import (
    count_bases,
    min_weight_bruteforce,
    nearest_codeword_bruteforce,
    run_attack_trials,
)
from pqlab.convring import center_mod, conv_mul, invert_mod, sample_ternary
from pqlab.errors import RankError
from pqlab.f2linalg import BinMatrix, BinVector, rank
from pqlab.goppa import bruteforce_decode, patterson_decode
from pqlab.lattice import (
    ConvModLattice,
    circulant_mul,
    gram_schmidt,
    is_size_reduced,
    lattice_decrypt,
    lattice_encrypt,
    lattice_identity_check,
    lattice_keygen,
    lll_reduce,
    lovasz_holds,
    svp_bruteforce,
)
from pqlab.ntru import NtruParams


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _bits(v: BinVector) -> str:
    return "".join(str(b) for b in v.to_bits())


# 1. worked-example replay, McEliece: every printed intermediate, exact


def test_criterion_01_mceliece_replay():
    start = time.monotonic()
    kp = mceliece.from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T)
    g_hat_ok = kp.public.g_hat == kat.MCE_G_HAT
    c = mceliece.encrypt(kp.public, kat.MCE_MESSAGE, e=kat.MCE_ERROR)
    c_ok = c == kat.MCE_C
    c_hat = kat.MCE_P.apply_vec_inverse(c)
    c_hat_ok = c_hat == kat.MCE_C_HAT
    codeword, _ = bruteforce_decode(kp.code, c_hat, kat.MCE_T)
    v = kp.code.message_of(codeword)
    v_ok = v == kat.MCE_V
    m = mceliece.decrypt(kp, c)
    m_ok = m == kat.MCE_MESSAGE
    elapsed = time.monotonic() - start
    results = [
        ("G_hat", g_hat_ok), ("c", c_ok), ("c_hat", c_hat_ok),
        ("v", v_ok), ("m", m_ok),
    ]
    for name, ok in results:
        print(f"  {name}: {'match' if ok else 'MISMATCH'}")
    bad = [name for name, ok in results if not ok]
    detail = f"{elapsed:.2f}s"
    if bad:
        detail += f"; stored reference inconsistent for: {', '.join(bad)}"
    _line(1, not bad, detail)
    assert elapsed < 1.0
    assert g_hat_ok, "G_hat does not match the stored matrix"
    assert c_ok, "ciphertext does not match the stored vector"
    assert v_ok, "decoded message does not match the stored vector"
    assert m_ok, "recovered message does not match the stored vector"
    assert c_hat_ok, (
        f"computed c_hat {_bits(c_hat)} != stored {_bits(kat.MCE_C_HAT)}; "
        "the stored vector equals c.P, not c.P^-1, and is inconsistent with "
        "the stored v and m that the correct c_hat leads to"
    )


# 2. worked-example replay, NTRU: exact under centered reduction


def test_criterion_02_ntru_replay():
    start = time.monotonic()
    params = ntru.preset("toy11")
    q, p = params.q, params.p

    def same_q(a, b):
        return center_mod(list(a), q) == center_mod(list(b), q)

    def same_p(a, b):
        return center_mod(list(a), p) == center_mod(list(b), p)

    kp = ntru.keypair_from_values(params, kat.NTRU_F, kat.NTRU_G_POLY)
    checks = {
        "f_p_inv": same_p(kp.f_p_inv, kat.NTRU_F_P_INV),
        "f_q_inv": same_q(invert_mod(kat.NTRU_F, q), kat.NTRU_F_Q_INV),
        "h": same_q(kp.public.h, kat.NTRU_H),
    }
    c = ntru.encrypt(kp.public, kat.NTRU_M, r=kat.NTRU_R)
    checks["c"] = same_q(c, kat.NTRU_C)
    a, m = ntru.decrypt_with_intermediate(kp, c)
    checks["a"] = same_q(a, kat.NTRU_A)
    checks["m"] = same_p(m, kat.NTRU_M)
    elapsed = time.monotonic() - start
    _line(2, all(checks.values()), f"{elapsed:.2f}s; 6 polynomial comparisons")
    assert elapsed < 1.0
    for name, ok in checks.items():
        assert ok, f"{name} does not match its stored reference"


# 3. key-size table


def test_criterion_03_key_sizes():
    sizes = {
        name: mceliece.key_size_bits(mceliece.PRESETS[name], systematic=True)
        for name in ("legacy", "revised", "pq128")
    }
    expected = {"legacy": 262000, "revised": 520047, "pq128": 8373911}
    _line(3, sizes == expected, f"{sizes['legacy']}/{sizes['revised']}/{sizes['pq128']}")
    assert sizes == expected


# 4. work factors


def test_criterion_04_work_factors():
    wf = mceliece.work_factor_log2(mceliece.PRESETS["legacy"])
    _line(4, wf == (524, 500), f"log2 = {wf}")
    assert wf == (524, 500)


# 5. Goppa dimension and distance bounds on random codes


def test_criterion_05_goppa_bounds():
    start = time.monotonic()
    rng = random.Random(50)
    worst_slack = None
    for m, t, count in [(4, 2, 10), (5, 2, 10)]:
        for _ in range(count):
            kp = mceliece.keygen(mceliece.McElieceParams(2**m, 2**m - m * t, t), rng)
            code = kp.code
            assert code.k >= code.n - m * t, (m, t, code.k)
            w, _ = min_weight_bruteforce(code.generator)
            assert w >= 2 * t + 1, (m, t, w)
            slack = w - (2 * t + 1)
            worst_slack = slack if worst_slack is None else min(worst_slack, slack)
    elapsed = time.monotonic() - start
    _line(5, True, f"20 codes, min-distance slack >= {worst_slack}, {elapsed:.1f}s")
    assert elapsed < 30.0


# 6. decoder equivalence on every correctable pattern


def test_criterion_06_decoder_equivalence():
    start = time.monotonic()
    rng = random.Random(60)
    n = 16
    patterns = [BinVector(n, 0)]
    patterns += [BinVector.from_support(n, [i]) for i in range(n)]
    patterns += [BinVector.from_support(n, list(p)) for p in combinations(range(n), 2)]
    assert len(patterns) == 137
    for _ in range(10):
        kp = mceliece.keygen(mceliece.PRESETS["toy"], rng)
        code = kp.code
        for e in patterns:
            word = code.encode(BinVector(code.k, rng.randrange(1 << code.k)))
            received = word + e
            assert patterson_decode(code, received) == bruteforce_decode(
                code, received, 2
            )
    elapsed = time.monotonic() - start
    _line(6, True, f"10 keys x 137 patterns, {elapsed:.1f}s")
    assert elapsed < 30.0


# 7. bulk round-trips with failure accounting


def test_criterion_07_round_trips():
    start = time.monotonic()
    rng = random.Random(70)
    for _ in range(5):
        kp = mceliece.keygen(mceliece.PRESETS["demo"], rng)
        for _ in range(200):
            m = BinVector(kp.k, rng.randrange(1 << kp.k))
            c = mceliece.encrypt(kp.public, m, rng=rng)
            assert mceliece.decrypt(kp, c) == m

    params = NtruParams(11, 3, 41, 2)
    failures = 0
    for i in range(1000):
        r = random.Random(7000 + i)
        kp = ntru.keygen(params, r)
        m = sample_ternary(11, *params.shape, r)
        blind = sample_ternary(11, *params.shape, r)
        c = ntru.encrypt(kp.public, m, r=blind)
        if ntru.decrypt(kp, c) != m:
            failures += 1
            # wrap failures must be exactly the identity-check misses
            g = center_mod(conv_mul(list(kp.f), list(kp.public.h), params.q), params.q)
            assert not ntru.decryption_identity_check(
                list(kp.f), g, blind, m, params
            ), f"trial {i} failed with the identity check still true"
    elapsed = time.monotonic() - start
    rate = failures / 10.0
    _line(7, rate < 2.0, f"mceliece 1000/1000; ntru failures {failures}/1000 ({rate:.1f}%), {elapsed:.1f}s")
    assert rate < 2.0
    assert elapsed < 60.0


# 8. ring/lattice bridge


def test_criterion_08_ring_lattice_bridge():
    start = time.monotonic()
    rng = random.Random(80)
    for n in (7, 11):
        for _ in range(1000):
            v = [rng.randrange(-20, 21) for _ in range(n)]
            w = [rng.randrange(-20, 21) for _ in range(n)]
            assert circulant_mul(v, w) == conv_mul(w, v)
            assert circulant_mul(v, w, 41) == conv_mul(w, v, 41)

    params = NtruParams(11, 3, 41, 2)
    failures = 0
    for i in range(500):
        r = random.Random(8000 + i)
        key = lattice_keygen(params, r)
        m = sample_ternary(11, *params.shape, r)
        blind = sample_ternary(11, *params.shape, r)
        c = lattice_encrypt(key, m, blind)
        if lattice_decrypt(key, c) != m:
            failures += 1
            assert not lattice_identity_check(key, m, blind), (
                f"draw {i} failed with the identity check still true"
            )
    elapsed = time.monotonic() - start
    rate = failures / 5.0
    _line(8, rate < 2.0, f"2000 convolution pairs exact; lattice failures {failures}/500 ({rate:.1f}%), {elapsed:.1f}s")
    assert rate < 2.0


# 9. LLL output validity and quality


def test_criterion_09_lll_quality():
    start = time.monotonic()
    rng = random.Random(90)
    worst = 0.0
    done = 0
    while done < 50:
        basis = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        try:
            reduced = lll_reduce(basis)
        except RankError:
            continue
        done += 1
        mu, bnorm = gram_schmidt(reduced)
        assert is_size_reduced(mu)
        assert lovasz_holds(mu, bnorm, Fraction(3, 4))
        first_sq = sum(c * c for c in reduced[0])
        opt = svp_bruteforce(reduced, bound=5)
        opt_sq = sum(c * c for c in opt)
        assert opt_sq > 0
        worst = max(worst, first_sq / opt_sq)
        assert first_sq <= 8 * opt_sq, (basis, first_sq, opt_sq)
    elapsed = time.monotonic() - start
    _line(9, True, f"50 bases, worst norm-sq ratio {worst:.2f} (bound 8), {elapsed:.1f}s")
    assert elapsed < 60.0


# 10. toy lattice attack on the frozen seed list


def test_criterion_10_toy_attack():
    start = time.monotonic()
    params = NtruParams(7, 3, 41, 2)
    seeds = list(range(20))
    report = run_attack_trials(params, seeds)
    # independent membership re-check of every reported candidate
    checked = 0
    for detail in report.details:
        rng = random.Random(detail["seed"])
        kp = ntru.keygen(params, rng)
        lat = ConvModLattice(kp.public.h, params.q)
        for cand in detail["candidate_list"]:
            assert lat.contains(cand.f, cand.g), (detail["seed"], cand.f)
            checked += 1
    elapsed = time.monotonic() - start
    _line(
        10,
        report.successes >= 1,
        f"{report.successes}/20 keys recovered, {checked} candidates verified, {elapsed:.1f}s",
    )
    assert report.successes >= 1
    assert elapsed < 120.0


# 11. oracle correspondences


def test_criterion_11_oracle_correspondences():
    start = time.monotonic()
    rng = random.Random(110)
    kp = mceliece.keygen(mceliece.PRESETS["toy"], rng)
    code = kp.code
    n, k = code.n, code.k
    patterns = [BinVector(n, 0)]
    patterns += [BinVector.from_support(n, [i]) for i in range(n)]
    patterns += [BinVector.from_support(n, list(p)) for p in combinations(range(n), 2)]
    for msg_int in range(1 << k):
        word = code.encode(BinVector(k, msg_int))
        for e in patterns:
            received = word + e
            nearest = nearest_codeword_bruteforce(code.generator, received)
            decoded, _ = patterson_decode(code, received)
            assert nearest == decoded == word

    w, _ = min_weight_bruteforce(kat.MCE_G)
    assert w == 5

    for kk in (1, 2, 3):
        found = sum(
            1
            for combo in combinations(range(1, 1 << kk), kk)
            if rank(BinMatrix(kk, kk, list(combo))) == kk
        )
        assert count_bases(kk) == found
    elapsed = time.monotonic() - start
    _line(11, True, f"{(1 << k) * 137} decoder instances exact, min weight 5, {elapsed:.1f}s")


# 12. full determinism under a fixed seed


def test_criterion_12_determinism(tmp_path, monkeypatch, capsys):
    from pqlab.cli import main

    monkeypatch.setenv("PQLAB_SEED", "424242")

    def run(tag: str):
        base = tmp_path / tag
        mc = base / "mc"
        nt = base / "nt"
        plain = base / "plain.bin"
        base.mkdir()
        plain.write_bytes(bytes(range(64)))
        assert main(["keygen", "--scheme", "mceliece", "--preset", "toy", "--out", str(mc)]) == 0
        assert main(["keygen", "--scheme", "ntru", "--preset", "toy11", "--out", str(nt)]) == 0
        assert main([
            "encrypt", "--pub", str(mc / "key.mcpub"),
            "--in", str(plain), "--out", str(base / "mc.ct"),
        ]) == 0
        assert main([
            "encrypt", "--pub", str(nt / "key.ntpub"),
            "--in", str(plain), "--out", str(base / "nt.ct"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "3",
        ]) == 0
        attack_out = capsys.readouterr().out
        files = {
            rel: (base / rel).read_bytes()
            for rel in [
                "mc/key.mcpub", "mc/key.mcpriv", "nt/key.ntpub", "nt/key.ntpriv",
                "mc.ct", "nt.ct",
            ]
        }
        return files, attack_out

    first_files, first_attack = run("a")
    second_files, second_attack = run("b")
    same = first_files == second_files and first_attack == second_attack
    _line(12, same, "6 files and attack report byte-identical across runs")
    assert first_files == second_files
    assert first_attack == second_attack

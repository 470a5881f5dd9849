"""End-to-end command tests, run in-process through main(argv)."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pqlab import cli, errors
from pqlab.cli import main


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # keep the environment from leaking into seed resolution
    monkeypatch.delenv("PQLAB_SEED", raising=False)


def _keygen(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["keygen", "--out", str(out), *extra])
    assert rc == 0
    return out


# -- key generation + full file round-trips --


def test_mceliece_file_roundtrip(tmp_path, rng):
    keys = _keygen(
        tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "5"
    )
    assert (keys / "key.mcpub").is_file()
    assert (keys / "key.mcpriv").is_file()
    plain = tmp_path / "msg.bin"
    plain.write_bytes(rng.randbytes(100))
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    assert main([
        "encrypt", "--pub", str(keys / "key.mcpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "6",
    ]) == 0
    assert main([
        "decrypt", "--priv", str(keys / "key.mcpriv"),
        "--in", str(ct), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_mceliece_1kib_roundtrip(tmp_path, rng):
    # 1 KiB of random bytes through the (m,t)=(5,3) preset
    keys = _keygen(
        tmp_path, "k", "--scheme", "mceliece", "--preset", "demo", "--seed", "1"
    )
    plain = tmp_path / "blob.bin"
    plain.write_bytes(rng.randbytes(1024))
    ct = tmp_path / "blob.ct"
    out = tmp_path / "blob.out"
    assert main([
        "encrypt", "--pub", str(keys / "key.mcpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    assert main([
        "decrypt", "--priv", str(keys / "key.mcpriv"),
        "--in", str(ct), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_ntru_file_roundtrip(tmp_path, rng):
    keys = _keygen(
        tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "5"
    )
    assert (keys / "key.ntpub").is_file()
    plain = tmp_path / "msg.bin"
    plain.write_bytes(rng.randbytes(64))
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    assert main([
        "encrypt", "--pub", str(keys / "key.ntpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "6",
    ]) == 0
    assert main([
        "decrypt", "--priv", str(keys / "key.ntpriv"),
        "--in", str(ct), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_custom_params(tmp_path, rng):
    keys = _keygen(
        tmp_path, "k", "--scheme", "ntru", "--params", "13,3,41,2", "--seed", "3"
    )
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"custom ring degree")
    ct = tmp_path / "m.ct"
    out = tmp_path / "m.out"
    assert main([
        "encrypt", "--pub", str(keys / "key.ntpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "4",
    ]) == 0
    assert main([
        "decrypt", "--priv", str(keys / "key.ntpriv"),
        "--in", str(ct), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == plain.read_bytes()
    # mceliece takes m,t
    keys2 = _keygen(
        tmp_path, "k2", "--scheme", "mceliece", "--params", "4,2", "--seed", "3"
    )
    assert (keys2 / "key.mcpub").is_file()


def test_mceliece_params_key_has_the_requested_k(tmp_path):
    # --params 5,6 asks for McElieceParams(32, 2, 6); seed 2's first g gives
    # an H of rank below m*t, and its key used to be written with k = 4
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--params", "5,6", "--seed", "2")
    for name in ("key.mcpub", "key.mcpriv"):
        lines = (keys / name).read_text().splitlines()
        assert lines[1:4] == ["param n 32", "param k 2", "param t 6"]


def test_systematic_keygen(tmp_path):
    keys = _keygen(
        tmp_path, "k", "--scheme", "mceliece", "--preset", "toy",
        "--seed", "11", "--systematic",
    )
    text = (keys / "key.mcpub").read_text()
    assert "param systematic 1" in text
    assert "matrix a " in text


# -- usage and parameter errors (exit 1) --


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["keygen"]) == 1  # --scheme is required
    assert main(["demo"]) == 1
    capsys.readouterr()


def test_unknown_preset(tmp_path, capsys):
    rc = main([
        "keygen", "--scheme", "mceliece", "--preset", "huge",
        "--out", str(tmp_path), "--seed", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown mceliece preset" in err
    # the seed is read and reported only for a request that draws from it
    assert "seed:" not in err


def test_unknown_ntru_preset_lists_choices(tmp_path, capsys):
    rc = main([
        "keygen", "--scheme", "ntru", "--preset", "nope",
        "--out", str(tmp_path), "--seed", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "pqlab: unknown ntru preset 'nope'; choices: toy11, attack7, rec443"
    )
    assert "seed:" not in err


@pytest.mark.parametrize("name", ["toy", "demo"])
def test_keygen_preset_matches_registry(tmp_path, capsys, name):
    from pqlab.formats import load_file
    from pqlab.mceliece import PRESETS

    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", name, "--seed", "3")
    _, _, pub = load_file(str(keys / "key.mcpub"))
    params = PRESETS[name]
    assert (pub.n, pub.k, pub.t) == (params.n, params.k, params.t)
    # info reads the same registry
    assert main(["info", "--params", name]) == 0
    assert f"[n,k,t] = [{params.n},{params.k},{params.t}]" in capsys.readouterr().out


def test_ntru_key_below_a_byte_per_block(tmp_path, capsys, rng):
    # keygen refuses N < 6, but such a key written by the library loads: its
    # files fail encrypt and decrypt as usage errors, not with a traceback
    from pqlab import formats, ntru

    kp = ntru.keygen(ntru.NtruParams(5, 3, 41, 1), rng)
    (tmp_path / "key.ntpub").write_text(formats.serialize_ntru_public(kp.public))
    (tmp_path / "key.ntpriv").write_text(formats.serialize_ntru_private(kp))
    (tmp_path / "m.bin").write_bytes(b"x")
    block = ntru.encrypt(kp.public, [0] * 5, rng=rng)
    (tmp_path / "m.ct").write_text(formats.serialize_ciphertext_ntru(kp.params, [block]))
    for argv in (
        ["encrypt", "--pub", "key.ntpub", "--in", "m.bin", "--out", "c.ct"],
        ["decrypt", "--priv", "key.ntpriv", "--in", "m.ct", "--out", "m.out"],
    ):
        capsys.readouterr()
        paths = [a if a.startswith("-") or a == argv[0] else str(tmp_path / a) for a in argv]
        assert main(paths) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "pqlab: byte encoding needs N >= 6 (3^N >= 256), got N=5"
        )
    assert not (tmp_path / "c.ct").exists() and not (tmp_path / "m.out").exists()


def test_bad_custom_params(tmp_path, capsys):
    rc = main([
        "keygen", "--scheme", "ntru", "--params", "11,3,41",
        "--out", str(tmp_path), "--seed", "1",
    ])
    assert rc == 1
    assert "needs 4 integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["keygen", "--scheme", "ntru", "--params", "13,3,40,2"],
     "invalid ntru parameters: q must be prime or a power of two"),
    (["keygen", "--scheme", "ntru", "--params", "13,3,41,9"],
     "invalid ntru parameters: ternary shape does not fit the ring degree"),
    (["keygen", "--scheme", "ntru", "--params", "11,6,41,2"],
     "invalid ntru parameters: p must be a prime power >= 2"),
    (["keygen", "--scheme", "ntru", "--params", "11,1,41,2"],
     "invalid ntru parameters: p must be a prime power >= 2"),
    (["keygen", "--scheme", "ntru", "--params", "11,5,41,2"],
     "byte encoding is defined for p = 3 only, got p=5"),
    (["keygen", "--scheme", "ntru", "--params", "5,3,41,1"],
     "byte encoding needs N >= 6 (3^N >= 256), got N=5"),
    (["keygen", "--scheme", "ntru", "--params", "3,3,41,1"],
     "byte encoding needs N >= 6 (3^N >= 256), got N=3"),
    (["keygen", "--scheme", "mceliece", "--params", "20,2"],
     "mceliece needs 2 <= m <= 13 and t >= 2, got m=20, t=2"),
    (["keygen", "--scheme", "mceliece", "--params", "4,0"],
     "mceliece needs 2 <= m <= 13 and t >= 2, got m=4, t=0"),
    (["keygen", "--scheme", "mceliece", "--params", "2,1"],
     "mceliece needs 2 <= m <= 13 and t >= 2, got m=2, t=1"),
    # m*t >= 2^m leaves k = 2^m - m*t below 1
    (["keygen", "--scheme", "mceliece", "--params", "4,5"],
     "invalid mceliece parameters: k must be at least 1, got k=-4"),
    (["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "40", "--seeds", "2"],
     "invalid ntru parameters: q must be prime or a power of two"),
    (["demo", "attack", "--scheme", "ntru", "--n", "13", "--q", "41", "--seeds", "2"],
     "attack demo limited to N <= 12, got N=13"),
    (["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "-2"],
     "--seeds must be at least 1, got -2"),
    (["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "1", "--p", "6"],
     "invalid ntru parameters: p must be a prime power >= 2"),
    (["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "2", "--p", "2"],
     "attack trials draw ternary messages, so p must be >= 3, got p=2"),
    (["keygen", "--scheme", "mceliece", "--preset", "toy", "--params", "4,2"],
     "--preset and --params are mutually exclusive"),
    (["keygen", "--scheme", "ntru", "--systematic"],
     "--systematic applies to mceliece keys only"),
    (["keygen", "--scheme", "mceliece", "--seed", "1", "--out", "{tmp}/m.bin/X"],
     "cannot write {tmp}/m.bin/X: Not a directory"),
    (["encrypt", "--pub", "{tmp}/k/key.mcpub", "--in", "{tmp}/m.bin", "--out", "{tmp}/X/m.ct"],
     "cannot write {tmp}/X/m.ct: No such file or directory"),
    (["decrypt", "--priv", "{tmp}/k/key.mcpriv", "--in", "{tmp}/m.ct", "--out", "{tmp}/X/m.out"],
     "cannot write {tmp}/X/m.out: No such file or directory"),
    # d_f = -1 would draw f with no coefficients at all
    (["keygen", "--scheme", "ntru", "--params", "11,3,41,-1"],
     "invalid ntru parameters: ternary shape does not fit the ring degree"),
    (["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "1", "--d-f", "-1"],
     "invalid ntru parameters: ternary shape does not fit the ring degree"),
    (["keygen", "--scheme", "ntru", "--params", "11,3,41,x"],
     "--params must be comma-separated integers"),
], ids=[
    "ntru-q", "ntru-shape", "ntru-p6", "ntru-p1", "ntru-p5", "ntru-n5", "ntru-n3", "mceliece-m",
    "mceliece-t", "mceliece-t1", "mceliece-mt", "attack-q", "attack-n", "attack-seeds", "attack-p6",
    "attack-p2", "preset-and-params", "ntru-systematic", "keygen-out-under-file",
    "encrypt-out-missing-dir", "decrypt-out-missing-dir", "ntru-d_f-negative",
    "attack-d_f-negative", "ntru-not-integer",
])
def test_invalid_custom_params_are_usage_errors(tmp_path, capsys, argv, reason):
    out = tmp_path / "X"
    if any("{tmp}" in a for a in argv):
        # the output rows need a key pair, a plaintext file and a ciphertext
        keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")
        (tmp_path / "m.bin").write_bytes(b"x")
        assert main([
            "encrypt", "--pub", str(keys / "key.mcpub"),
            "--in", str(tmp_path / "m.bin"), "--out", str(tmp_path / "m.ct"), "--seed", "2",
        ]) == 0
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        reason = reason.replace("{tmp}", str(tmp_path))
    elif argv[0] == "keygen":
        argv = [*argv, "--out", str(out), "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: {reason}"
    # a rejected keygen leaves no output directory behind
    assert not out.exists()


# -- worked-example replays --


def test_demo_ntru_matches_stored_values(capsys):
    assert main(["demo", "paper-example", "--scheme", "ntru"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert out.count("[ok]") == 6
    assert "h = f_q^-1 * g mod q" in out
    assert "a = center(f*c mod q)" in out


def test_demo_mceliece_flags_stored_chat(capsys):
    # the stored permuted-ciphertext reference is inconsistent with the rest
    # of the example (it equals c.P instead of c.P^-1), so the replay exits
    # nonzero with exactly that one mismatch
    assert main(["demo", "paper-example", "--scheme", "mceliece"]) == 1
    captured = capsys.readouterr()
    out = captured.out
    assert out.count("MISMATCH") == 1
    bad_line = next(ln for ln in out.splitlines() if "MISMATCH" in ln)
    assert "c_hat" in bad_line
    assert "1100110101011001" in bad_line  # computed
    assert "1100100111110100" in bad_line  # stored reference
    # every other intermediate matches
    assert out.count("[ok]") == 4
    assert "replay finished with mismatches" in captured.err


# -- attack demo --


def test_demo_attack_report(capsys):
    rc = main([
        "demo", "attack", "--scheme", "ntru",
        "--n", "7", "--q", "41", "--seeds", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "seed,candidates,success,recovered_f"
    assert len(lines) == 5  # header + 3 rows + summary
    for seed, row in enumerate(lines[1:4]):
        assert row.startswith(f"{seed},")
    assert lines[4].startswith("ntru-lll:")
    assert "(N=7, q=41, d_f=2)" in lines[4]


def test_demo_attack_deterministic(capsys):
    argv = ["demo", "attack", "--scheme", "ntru", "--n", "7", "--q", "41", "--seeds", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_refused_attack_draws_no_key(monkeypatch, capsys):
    # the attack's limits are checked in analysis before the first keygen
    from pqlab import analysis, ntru

    def no_keygen(*args):
        raise AssertionError("a refused attack drew a key")

    monkeypatch.setattr(ntru, "keygen", no_keygen)
    attack = ["demo", "attack", "--scheme", "ntru", "--q", "41", "--seeds", "2"]
    for extra, reason in [
        (["--n", "7", "--p", "2"],
         "attack trials draw ternary messages, so p must be >= 3, got p=2"),
        (["--n", "13"], "attack demo limited to N <= 12, got N=13"),
    ]:
        assert main([*attack, *extra]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: {reason}"
    with pytest.raises(errors.UnknownParams):
        analysis.run_attack_trials(ntru.NtruParams(13, 3, 41, 2), [0])


# -- info --


def test_info_legacy(capsys):
    assert main(["info", "--params", "legacy"]) == 0
    out = capsys.readouterr().out
    assert "262000" in out
    assert "2^60.55" in out
    assert "work factor log2" in out


def test_info_rec443(capsys):
    assert main(["info", "--params", "rec443"]) == 0
    out = capsys.readouterr().out
    assert "[443,3,2048]" in out
    assert "128-bit post-quantum" in out


def test_info_unknown(capsys):
    from pqlab.mceliece import PRESETS as MCE
    from pqlab.ntru import PRESETS as NTRU

    assert main(["info", "--params", "nope"]) == 1
    choices = ", ".join(sorted(MCE) + sorted(NTRU))
    # printed without the quotes KeyError.__str__ would add
    assert capsys.readouterr().err == f"pqlab: unknown preset 'nope'; choices: {choices}\n"


_MCE_INFO = """\
scheme: mceliece
preset: {}
params: [n,k,t] = [{}]
public key bits: {}
public key bits (systematic): {}
work factor log2: codeword search {}, coset leaders {}
"""
_INFO_STDOUT = {
    "toy": _MCE_INFO.format("toy", "16,8,2", 128, 64, 8, 8),
    "demo": _MCE_INFO.format("demo", "32,17,3", 544, 255, 17, 15),
    "legacy": _MCE_INFO.format("legacy", "1024,524,50", 536576, 262000, 524, 500)
    + "note: original parameter proposal\n"
    "note: broken in about 2^60.55 bit operations by improved information-set"
    " decoding (literature value, not recomputed)\n",
    "revised": _MCE_INFO.format("revised", "2048,1751,27", 3586048, 520047, 1751, 297)
    + "note: revision restoring 80-bit security against that attack (literature value)\n",
    "pq128": _MCE_INFO.format("pq128", "6960,5413,119", 37674480, 8373911, 5413, 1547)
    + "note: sized for 128-bit post-quantum security (literature value)\n",
    "toy11": "scheme: ntru\npreset: toy11\nparams: [N,p,q] = [11,3,41]\n",
    "attack7": "scheme: ntru\npreset: attack7\nparams: [N,p,q] = [7,3,41]\n",
    "rec443": "scheme: ntru\npreset: rec443\nparams: [N,p,q] = [443,3,2048]\n"
    "note: recommended for 128-bit post-quantum security (literature value)\n"
    "note: alternate ring degrees 587 and 743 target higher margins\n",
}


def test_info_output_is_pinned(capsys):
    for name, expected in _INFO_STDOUT.items():
        assert main(["info", "--params", name]) == 0
        assert capsys.readouterr() == (expected, "")
    assert main(["info", "--params", "nope"]) == 1
    assert capsys.readouterr() == ("", (
        "pqlab: unknown preset 'nope'; choices: "
        "demo, legacy, pq128, revised, toy, attack7, rec443, toy11\n"
    ))


# -- the documented entry point --

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")


def test_readme_examples_parse_and_run(capsys):
    # every `pqlab ...` line of the README's code blocks, split as a shell
    # would; the info and paper-example lines also run, to the exit code
    # their comment gives (0 without one)
    commands, in_block = [], False
    for line in (_ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("pqlab "):
            commands.append((shlex.split(line, comments=True)[1:], line))
    assert {"keygen", "encrypt", "decrypt", "demo", "info"} <= {a[0] for a, _ in commands}
    for argv, line in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        if argv[0] == "info" or argv[:2] == ["demo", "paper-example"]:
            expected = re.search(r"# exit (\d)", line)
            assert main(argv) == (int(expected[1]) if expected else 0), line
    capsys.readouterr()


def _python_m_pqlab(cwd, *argv):
    """Run `python -m pqlab` in a child process with the package on its path."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-m", "pqlab", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_python_m_pqlab_round_trip(tmp_path):
    (tmp_path / "msg.bin").write_bytes(bytes(range(64)))
    steps = [
        ["keygen", "--scheme", "mceliece", "--preset", "toy", "--seed", "1", "--out", "keys"],
        ["encrypt", "--pub", "keys/key.mcpub", "--in", "msg.bin", "--out", "msg.ct", "--seed", "2"],
        ["decrypt", "--priv", "keys/key.mcpriv", "--in", "msg.ct", "--out", "msg.out"],
    ]
    for argv in steps:
        assert _python_m_pqlab(tmp_path, *argv).returncode == 0, argv
    assert (tmp_path / "msg.out").read_bytes() == bytes(range(64))


def test_python_m_pqlab_info_matches_main(tmp_path, capsys):
    assert main(["info", "--params", "toy"]) == 0
    run = _python_m_pqlab(tmp_path, "info", "--params", "toy")
    assert (run.returncode, run.stdout) == (0, capsys.readouterr().out)


def test_python_m_pqlab_unknown_subcommand(tmp_path):
    assert _python_m_pqlab(tmp_path, "frobnicate").returncode == 1


# -- decrypt-time guards --


def test_wrong_key_params_hash(tmp_path, rng, capsys):
    a = _keygen(tmp_path, "a", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    b = _keygen(tmp_path, "b", "--scheme", "ntru", "--params", "13,3,41,2", "--seed", "2")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"hello")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(a / "key.ntpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "3",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "decrypt", "--priv", str(b / "key.ntpriv"),
        "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert "params-hash mismatch" in capsys.readouterr().err


def test_scheme_mismatch(tmp_path, rng, capsys):
    mc = _keygen(tmp_path, "mc", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")
    nt = _keygen(tmp_path, "nt", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"x")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(mc / "key.mcpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "decrypt", "--priv", str(nt / "key.ntpriv"),
        "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert "does not match key scheme" in capsys.readouterr().err


@pytest.mark.parametrize("t", [0, -1, 100])
def test_out_of_range_public_t_rejected(tmp_path, capsys, t):
    # t = 0 would encrypt m.G_hat in the clear; t beyond (n - k) / 2 cannot
    # be corrected by any code of this size; no writer spells a param with
    # a sign, so -1 fails as a spelling
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")
    pub = keys / "key.mcpub"
    pub.write_text(pub.read_text().replace("param t 2\n", f"param t {t}\n"))
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    capsys.readouterr()
    assert main([
        "encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(tmp_path / "m.ct"),
    ]) == 2
    reason = (
        "bad integer in param t" if t < 0
        else f"malformed mceliece public file: t must lie in [1, 4], got t={t}"
    )
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


# k = 0 keys that are whole otherwise: a public key with a 0-row g_hat, and
# a private key on a four-element support, where H has full rank (any 2t = 4
# columns of a binary Goppa H are independent) and the code no message bits
_ZERO_K_KEYS = {
    "public": "PQLAB1 mceliece public\nparam n 16\nparam k 0\nparam t 2\n"
    "param systematic 0\nmatrix g_hat 0 16\nend\n",
    "private": "PQLAB1 mceliece private\nparam n 4\nparam k 0\nparam t 2\nparam m 4\n"
    "param modulus 19\nparam systematic 0\nmatrix s 0 0\nperm p 0 1 2 3\n"
    "poly g 6 3 1\nsupport l 0 1 2 3\nend\n",
}


def test_zero_t_mceliece_private_key_rejected(tmp_path, capsys):
    # n = k = 16 with a constant g: identity S and P, and no error to correct,
    # so every "ciphertext" would be the message in the clear
    perm = " ".join(map(str, range(16)))
    key = tmp_path / "key.mcpriv"
    key.write_text(
        "PQLAB1 mceliece private\nparam n 16\nparam k 16\nparam t 0\nparam m 4\n"
        "param modulus 19\nparam systematic 0\nmatrix s 16 16\n"
        + "".join(f"{1 << i:04x}\n" for i in range(16))
        + f"perm p {perm}\npoly g 5\nsupport l {perm}\nend\n"
    )
    ct = tmp_path / "m.ct"
    ct.write_text("PQLAB1 mceliece ciphertext\nparam blocks 1\nparam n 16\nhash 0\nblock 0\nend\n")
    capsys.readouterr()
    assert main(["decrypt", "--priv", str(key), "--in", str(ct), "--out", str(tmp_path / "m.out")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pqlab: format error: malformed mceliece private file: t must lie in [1, 0], got t=0"
    )


@pytest.mark.parametrize("kind", list(_ZERO_K_KEYS))
def test_zero_k_mceliece_key_rejected(tmp_path, capsys, kind):
    # encrypting with such a public key divided by zero in the block packer;
    # every decrypt with such a private key lost the padding marker
    # k = 0 is not a McElieceParams, so the hash is taken of the bare dict
    from pqlab.formats import params_hash

    key = tmp_path / "key"
    key.write_text(_ZERO_K_KEYS[kind])
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    ct = tmp_path / "m.ct"
    ct.write_text(
        "PQLAB1 mceliece ciphertext\nparam blocks 1\nparam n 4\n"
        f"hash {params_hash('mceliece', {'n': 4, 'k': 0, 't': 2})}\nblock 0\nend\n"
    )
    if kind == "public":
        argv = ["encrypt", "--pub", str(key), "--in", str(plain), "--out", str(ct), "--seed", "1"]
    else:
        argv = ["decrypt", "--priv", str(key), "--in", str(ct), "--out", str(tmp_path / "m.out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: malformed mceliece {kind} file: k must be at least 1, got k=0"
    )


@pytest.mark.parametrize("blocks", [0, -1])
def test_ciphertext_without_blocks_rejected(tmp_path, capsys, blocks):
    # every writer emits at least one block, so a file with none is malformed
    # rather than a message whose padding marker is missing
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(keys / "key.ntpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    lines = [ln for ln in ct.read_text().splitlines() if not ln.startswith("block ")]
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("param blocks "))
    lines[idx] = f"param blocks {blocks}"
    ct.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([
        "decrypt", "--priv", str(keys / "key.ntpriv"),
        "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ]) == 2
    # no writer spells a param with a sign, so -1 fails as a spelling
    reason = "param blocks 0 is below 1" if blocks == 0 else "bad integer in param blocks"
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


@pytest.mark.parametrize(
    "h, reason, kind",
    [
        ("0 0 0 0 0 0 0 0 0 0 0", "public polynomial h is zero", "pub"),
        ("41 82 0 0 0 0 0 0 0 -41 0", "public polynomial h is not centered mod 41", "pub"),
        ("0 0 0 0 0 0 0 0 0 0 0", "public polynomial h is zero", "priv"),
        ("41 82 0 0 0 0 0 0 0 -41 0", "public polynomial h is not centered mod 41", "priv"),
    ],
    ids=["zero", "multiples-of-q", "private-zero", "private-multiples-of-q"],
)
def test_zero_or_uncentered_public_h_rejected(tmp_path, capsys, h, reason, kind):
    # both are h = 0 mod q, so c = p.r.h + m = m would carry the message in
    # the clear; every writer emits h centered mod q and nonzero.  The
    # private key holds the same h, and f * h stays ternary for both
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")

    def put_h(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("poly h "))
        lines[idx] = f"poly h {h}"

    capsys.readouterr()
    if kind == "priv":
        assert _encrypt_then_decrypt_with(tmp_path, keys, "nt", put_h) == 2
    else:
        pub = keys / "key.ntpub"
        lines = pub.read_text().splitlines()
        put_h(lines)
        pub.write_text("\n".join(lines) + "\n")
        plain = tmp_path / "m.bin"
        plain.write_bytes(b"hello")
        assert main([
            "encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(tmp_path / "m.ct"),
        ]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


def test_negative_d_f_public_key_rejected(tmp_path, capsys):
    # d_f = -1 would leave r no coefficients, so encrypt could not blind m;
    # no writer spells a param with a sign, so the reader stops at the '-'
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    pub = keys / "key.ntpub"
    pub.write_text(pub.read_text().replace("param d_f 2\n", "param d_f -1\n"))
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"hello")
    capsys.readouterr()
    assert main([
        "encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(tmp_path / "m.ct"),
    ]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pqlab: format error: bad integer in param d_f"
    )


def _edit_and_use(tmp_path, scheme, file, edit, *keygen_args):
    """Make a toy key pair (keygen_args added to the keygen command) and a
    ciphertext under it, rewrite the public key, the private key or the
    ciphertext with edit(text), and return that text before the edit and the
    exit code of using the file: encrypt with the public key, decrypt the
    ciphertext with the private key."""
    preset, ext = ("toy", "mc") if scheme == "mceliece" else ("toy11", "nt")
    keys = _keygen(
        tmp_path, "k", "--scheme", scheme, "--preset", preset, "--seed", "1", *keygen_args
    )
    pub, priv = keys / f"key.{ext}pub", keys / f"key.{ext}priv"
    plain, ct = tmp_path / "m.bin", tmp_path / "m.ct"
    plain.write_bytes(b"abc")
    assert main(["encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(ct), "--seed", "2"]) == 0
    path = {"pub": pub, "priv": priv, "ct": ct}[file]
    text = path.read_text()
    edited = edit(text)
    assert edited != text
    path.write_text(edited)
    if file == "pub":
        argv = ["encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(tmp_path / "m2.ct")]
    else:
        argv = ["decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(tmp_path / "m.out")]
    return text, main(argv)


@pytest.mark.parametrize(
    "scheme, file, edit, reason",
    [
        ("ntru", "pub", lambda t: t + "garbage after end\n", "line {after} follows the end line"),
        ("ntru", "pub", lambda t: t + t, "line {after} follows the end line"),
        ("mceliece", "priv", lambda t: t + "\n", "line {after} follows the end line"),
        ("ntru", "ct", lambda t: t + "end\n", "line {after} follows the end line"),
        ("ntru", "pub", lambda t: t.replace("param d_f 2\n", "param d_f 2\nparam d_f 3\n"),
         "param d_f repeated"),
        ("mceliece", "priv",
         lambda t: t.replace("param systematic 0\n", "param systematic 0\nparam systematic 0\n"),
         "param systematic repeated"),
        ("ntru", "pub", lambda t: t.replace("param d_f 2\n", "param d_f 2\nparam bogus 7\n"),
         "unknown param bogus"),
        ("mceliece", "pub", lambda t: t.replace("param t 2\n", "param t 2\nparam m 4\n"),
         "unknown param m"),
        ("mceliece", "ct", lambda t: t.replace("param n 16\n", "param n 16\nparam t 2\n"),
         "unknown param t"),
    ],
    ids=[
        "garbage-after-end", "two-key-files", "blank-line-after-end", "ciphertext-after-end",
        "repeated-d_f", "repeated-systematic", "unknown-bogus", "private-param-in-public",
        "key-param-in-ciphertext",
    ],
)
def test_lines_after_end_and_repeated_or_unknown_params_rejected(
    tmp_path, capsys, scheme, file, edit, reason
):
    # the writers emit each of their params once, nothing else, and no line
    # after end: a second file appended, or a second value of a param,
    # used to load as if it were not there or as the last value
    text, code = _edit_and_use(tmp_path, scheme, file, edit)
    assert code == 2
    after = len(text.splitlines()) + 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: {reason.format(after=after)}"
    )


@pytest.mark.parametrize("file", ["pub", "priv"])
def test_mceliece_key_without_systematic_param_loads(tmp_path, file):
    # systematic defaults to 0, so a key file may leave it out
    _, code = _edit_and_use(tmp_path, "mceliece", file, lambda t: t.replace("param systematic 0\n", ""))
    assert code == 0


@pytest.mark.parametrize(
    "file, keygen_args, edit, reason",
    [
        ("priv", (), lambda t: t.replace("param modulus 19\n", "param modulus 25\n"),
         "param modulus 25 != 19, the modulus of GF(2^4)"),
        ("priv", (),
         lambda t: t.replace("param m 4\nparam modulus 19\n", "param m 5\nparam modulus 37\n"),
         "param m 5 != 4, the field degree of n = 16"),
        ("pub", ("--systematic",),
         lambda t: t.replace("param systematic 1\n", "param systematic 7\n"),
         "param systematic 7 is not 0 or 1"),
        ("priv", ("--systematic",),
         lambda t: t.replace("param systematic 1\n", "param systematic 7\n"),
         "param systematic 7 is not 0 or 1"),
        ("pub", (), lambda t: t.replace("param k 8\n", "param k 7\n"),
         "public matrix has wrong shape"),
    ],
    ids=["modulus-25", "m-5", "public-systematic-7", "private-systematic-7", "public-k-7"],
)
def test_mceliece_param_values_the_writer_never_emits_rejected(
    tmp_path, capsys, file, keygen_args, edit, reason
):
    # x^4 + x^3 + 1 (25) is primitive too, but GF(16) has one modulus, 19: a
    # seed-1 key read under 25 used to load and fail at decrypt.  n = 16 needs
    # m = 4, and m = 5 with GF(32)'s modulus 37 used to fail only when the
    # rebuilt code's k did not match the stored key.  The writer
    # emits systematic as 0 or 1, and 7 used to load as 1.  k = 7 passes the
    # range checks, but the toy key's 8 x 16 matrix is not k x n
    _, code = _edit_and_use(tmp_path, "mceliece", file, edit, *keygen_args)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


def _edit_first(tag, change):
    """An edit that rewrites the first line starting with tag + " " as tag
    plus change(rest of the line)."""
    def edit(text):
        lines = text.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(tag + " "))
        lines[i] = f"{tag} {change(lines[i][len(tag) + 1:])}"
        return "\n".join(lines) + "\n"
    return edit


def _leading_zero(rest):
    """The integer list with a 0 put before the first value's digits."""
    return "-0" + rest[1:] if rest.startswith("-") else "0" + rest


def _add_to_first_coefficient(extra):
    return lambda rest: " ".join([str(int(rest.split()[0]) + extra), *rest.split()[1:]])


@pytest.mark.parametrize("extra", [41, 41_000, -41])
def test_ntru_ciphertext_coefficient_outside_centered_range_rejected(tmp_path, capsys, extra):
    # every writer centers the coefficients mod q = 41, to [-20, 20]; the
    # same residues a multiple of q away used to decrypt with exit 0
    edit = _edit_first("block", _add_to_first_coefficient(extra))
    _, code = _edit_and_use(tmp_path, "ntru", "ct", edit)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pqlab: format error: ciphertext coefficient outside (-q/2, q/2] for q = 41"
    )


@pytest.mark.parametrize(
    "scheme, file, edit, reason",
    [
        ("mceliece", "ct", _edit_first("block", lambda h: "0x" + h), "bad hex mceliece block"),
        ("mceliece", "ct", _edit_first("block", lambda h: "+" + h), "bad hex mceliece block"),
        ("mceliece", "ct", _edit_first("block", str.upper), "bad hex mceliece block"),
        ("mceliece", "ct", _edit_first("block", lambda h: "0" + h), "bad hex mceliece block"),
        ("mceliece", "priv", lambda t: t.replace("\nf1\n", "\nF1\n"), "bad hex row"),
        ("mceliece", "ct", _edit_first("param n", lambda v: "+" + v), "bad integer in param n"),
        ("mceliece", "ct", _edit_first("param n", lambda v: "1_6"), "bad integer in param n"),
        ("ntru", "pub", _edit_first("param d_f", lambda v: "+" + v), "bad integer in param d_f"),
        ("mceliece", "priv", _edit_first("matrix s", lambda v: "+8 8"), "bad integer in matrix s"),
        ("ntru", "ct", _edit_first("block", lambda c: "+9" + c[1:]), "bad integer in ntru block"),
        ("ntru", "priv", _edit_first("poly f", lambda c: c.replace(" 1", " +1", 1)),
         "bad integer in poly f"),
        ("mceliece", "ct", _edit_first("param n", lambda v: "0" + v), "bad integer in param n"),
        ("mceliece", "priv", _edit_first("matrix s", lambda v: "0" + v), "bad integer in matrix s"),
        ("ntru", "pub", _edit_first("poly h", _leading_zero), "bad integer in poly h"),
        ("ntru", "ct", _edit_first("block", _leading_zero), "bad integer in ntru block"),
        ("ntru", "priv", _edit_first("poly f", lambda c: "-0 " + c), "bad integer in poly f"),
        ("ntru", "ct", _edit_first("block", lambda c: "-0" + c[c.index(" "):]),
         "bad integer in ntru block"),
        ("ntru", "priv", _edit_first("poly f", lambda c: ""), "bad integer in poly f"),
        ("ntru", "ct", _edit_first("block", lambda c: ""), "bad integer in ntru block"),
    ],
    ids=[
        "block-0x", "block-plus", "block-upper", "block-wide", "row-upper", "param-plus",
        "param-underscore", "ntru-param-plus", "matrix-shape-plus", "ntru-block-plus",
        "poly-plus", "param-leading-zero", "matrix-shape-leading-zero", "poly-leading-zero",
        "ntru-block-leading-zero", "poly-minus-zero", "ntru-block-minus-zero", "poly-empty",
        "ntru-block-empty",
    ],
)
def test_integer_spellings_the_writers_never_emit_rejected(
    tmp_path, capsys, scheme, file, edit, reason
):
    # int() reads each of these as the value the writer wrote, and each
    # used to load; the writers emit str(int) and fixed-width lowercase hex
    _, code = _edit_and_use(tmp_path, scheme, file, edit)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


@pytest.mark.parametrize(
    "scheme, edit, reason",
    [
        ("ntru", lambda t: t.replace("param n 11\n", "param n  11\n"), "bad spacing in param line"),
        ("ntru", lambda t: t.replace("param n 11\n", "param n 11 \n"), "bad spacing in param line"),
        ("ntru", lambda t: t.replace("param n 11\n", "param n\n"), "bad param line"),
        ("ntru", lambda t: t.replace("param n 11\n", "param n 11 7\n"), "bad param line"),
        ("ntru", lambda t: t.replace("param n 11\n", "param n\t11\n"), "bad param line"),
        ("ntru", _edit_first("poly h", lambda c: c.replace(" ", "  ", 1)), "bad spacing in poly h"),
        ("mceliece", _edit_first("matrix g_hat", lambda v: v.replace(" ", "  ")),
         "bad spacing in matrix g_hat"),
        ("ntru", _edit_first("poly h", lambda c: c.replace(" ", "-", 1)), "bad integer in poly h"),
    ],
    ids=[
        "param-doubled", "param-trailing", "param-one-token", "param-four-tokens", "param-tab",
        "poly-doubled", "matrix-shape-doubled", "poly-inner-minus",
    ],
)
def test_spacing_or_misplaced_minus_named(tmp_path, capsys, scheme, edit, reason):
    # the writers put tokens one space apart, three on a param line, and '-'
    # only at the start of a token; these used to surface as a
    # tuple-unpacking or int() message that named neither the fault nor the line
    _, code = _edit_and_use(tmp_path, scheme, "pub", edit)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pqlab: format error: {reason}"


def test_non_ascii_key_file_rejected(tmp_path, capsys):
    pub, plain = tmp_path / "key.ntpub", tmp_path / "m.bin"
    pub.write_bytes("PQLAB1 ntru public\nparam n 1\u00b9\n".encode())
    plain.write_bytes(b"x")
    rc = main(["encrypt", "--pub", str(pub), "--in", str(plain), "--out", str(tmp_path / "m.ct")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: {pub} is not a text key file"
    )


def test_key_kind_checks(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"x")
    # encrypting with a private key file is refused
    rc = main([
        "encrypt", "--pub", str(keys / "key.ntpriv"),
        "--in", str(plain), "--out", str(tmp_path / "m.ct"), "--seed", "2",
    ])
    assert rc == 2
    assert "not a public key" in capsys.readouterr().err
    # decrypting with a public key file is refused
    rc = main([
        "decrypt", "--priv", str(keys / "key.ntpub"),
        "--in", str(plain), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert "not a private key" in capsys.readouterr().err
    # decrypting a key file in place of a ciphertext is refused
    rc = main([
        "decrypt", "--priv", str(keys / "key.ntpriv"),
        "--in", str(keys / "key.ntpub"), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: {keys / 'key.ntpub'} is not a ciphertext file"
    )


def _encrypt_then_decrypt_with(tmp_path, keys, ext, edit_private):
    """Encrypt a file, rewrite the private key text with edit_private(lines),
    and return the exit code of decrypting with the edited key."""
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(keys / f"key.{ext}pub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    priv = keys / f"key.{ext}priv"
    lines = priv.read_text().splitlines()
    edit_private(lines)
    priv.write_text("\n".join(lines) + "\n")
    return main([
        "decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ])


def test_singular_scramble_key_rejected(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")

    def duplicate_first_row_of_s(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("matrix s "))
        lines[idx + 2] = lines[idx + 1]

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "mc", duplicate_first_row_of_s) == 2
    assert "format error" in capsys.readouterr().err


def test_short_permutation_key_rejected(tmp_path, capsys):
    # a permutation of 0..14 is well formed on its own but has the wrong
    # length for the n = 16 code
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")

    def drop_15_from_perm(lines):
        idx = lines.index("perm p 2 9 4 1 5 7 12 11 8 15 13 3 10 6 14 0")
        lines[idx] = "perm p 2 9 4 1 5 7 12 11 8 13 3 10 6 14 0"

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "mc", drop_15_from_perm) == 2
    assert "permutation must have length 16" in capsys.readouterr().err


def test_non_squarefree_goppa_key_rejected(tmp_path, capsys):
    import random

    from pqlab.gf2m import FieldCtx, random_irreducible

    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--params", "5,4", "--seed", "1")
    # h has degree t/2 = 2 and no root in GF(2^5), so g = h^2 keeps degree t
    # and has no root on the support
    ctx = FieldCtx(5)
    h = random_irreducible(ctx, 2, random.Random(3))

    def square_g(lines):
        assert f"param modulus {ctx.modulus}" in lines
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("poly g "))
        lines[idx] = "poly g " + " ".join(str(c) for c in h.square().coeffs)

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "mc", square_g) == 2
    assert "g is not squarefree" in capsys.readouterr().err


@pytest.mark.parametrize("tag, index, value, field", [
    ("support l", 15, -1, "support l element"),
    ("support l", 3, -1, "support l element"),
    ("poly g", 0, -1, "poly g coefficient"),
    ("support l", 15, 16, "support l element"),
], ids=["support-15-neg", "support-3-neg", "g-neg", "support-16"])
def test_out_of_field_goppa_key_rejected(tmp_path, capsys, tag, index, value, field):
    # a negative value would index the field's log table from the end
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")

    def put_value(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith(tag + " "))
        parts = lines[idx].split()
        parts[2 + index] = str(value)
        lines[idx] = " ".join(parts)

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "mc", put_value) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: {field} {value} outside [0, 16)"
    )


def test_bad_f_p_inv_key_rejected(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")

    def bump_first_f_p_inv_coefficient(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("poly f_p_inv "))
        parts = lines[idx].split()
        parts[2] = str((int(parts[2]) + 1) % 3)
        lines[idx] = " ".join(parts)

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "nt", bump_first_f_p_inv_coefficient) == 2
    assert "format error" in capsys.readouterr().err


def test_swapped_h_key_rejected(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    other = _keygen(tmp_path, "o", "--scheme", "ntru", "--preset", "toy11", "--seed", "2")
    other_h = next(
        ln for ln in (other / "key.ntpriv").read_text().splitlines() if ln.startswith("poly h ")
    )

    def swap_in_other_h(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("poly h "))
        assert lines[idx] != other_h
        lines[idx] = other_h

    capsys.readouterr()
    assert _encrypt_then_decrypt_with(tmp_path, keys, "nt", swap_in_other_h) == 2
    assert "f * h is not ternary" in capsys.readouterr().err


def test_corrupt_ciphertext(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(keys / "key.mcpub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    lines = ct.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("block "))
    lines[idx] = "block zz" + lines[idx].split()[1][2:]
    ct.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([
        "decrypt", "--priv", str(keys / "key.mcpriv"),
        "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert "format error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, preset, ext, n, grow", [
    ("mceliece", "toy", "mc", 16, 20),
    ("ntru", "toy11", "nt", 11, 12),
], ids=["mceliece", "ntru"])
def test_ciphertext_length_must_match_key(tmp_path, capsys, scheme, preset, ext, n, grow):
    # the params hash still matches the key; only the header's n and each
    # block's length (NTRU coefficients, McEliece hex digits) are changed
    keys = _keygen(tmp_path, "k", "--scheme", scheme, "--preset", preset, "--seed", "1")
    plain = tmp_path / "m.bin"
    plain.write_bytes(b"abc")
    ct = tmp_path / "m.ct"
    assert main([
        "encrypt", "--pub", str(keys / f"key.{ext}pub"),
        "--in", str(plain), "--out", str(ct), "--seed", "2",
    ]) == 0
    lines = ct.read_text().splitlines()
    lines[lines.index(f"param n {n}")] = f"param n {grow}"
    if scheme == "ntru":
        lines = [ln + " 0" * (grow - n) if ln.startswith("block ") else ln for ln in lines]
    else:
        lines = [f"block 0{ln[6:]}" if ln.startswith("block ") else ln for ln in lines]
    ct.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([
        "decrypt", "--priv", str(keys / f"key.{ext}priv"),
        "--in", str(ct), "--out", str(tmp_path / "m.out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pqlab: format error: ciphertext block length differs from the key's n = {n}"
    )


def test_undecodable_blocks(tmp_path, capsys):
    # well-formed ciphertexts whose only block strips to an empty message
    # (the padding marker is missing) or to one stray bit (not a whole byte)
    # must fail as a crypto error
    keys = _keygen(tmp_path, "k", "--scheme", "mceliece", "--preset", "toy", "--seed", "1")
    import random

    from pqlab.f2linalg import BinVector
    from pqlab.formats import load_file, serialize_ciphertext_mceliece
    from pqlab.mceliece import encrypt

    _, _, pub = load_file(str(keys / "key.mcpub"))
    stray = BinVector.from_bits([1, 1, 0, 0, 0, 0, 0, 0])
    for block in [BinVector(pub.n, 0), encrypt(pub, stray, rng=random.Random(0))]:
        ct = tmp_path / "m.ct"
        ct.write_text(serialize_ciphertext_mceliece(pub, [block]))
        capsys.readouterr()
        rc = main([
            "decrypt", "--priv", str(keys / "key.mcpriv"),
            "--in", str(ct), "--out", str(tmp_path / "m.out"),
        ])
        assert rc == 3
        assert "crypto failure" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    keys = _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "1")
    rc = main([
        "encrypt", "--pub", str(keys / "key.ntpub"),
        "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "m.ct"),
        "--seed", "2",
    ])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


# -- seeding --


def test_seed_determinism(tmp_path):
    a = _keygen(tmp_path, "a", "--scheme", "ntru", "--preset", "toy11", "--seed", "7")
    b = _keygen(tmp_path, "b", "--scheme", "ntru", "--preset", "toy11", "--seed", "7")
    assert (a / "key.ntpub").read_bytes() == (b / "key.ntpub").read_bytes()
    assert (a / "key.ntpriv").read_bytes() == (b / "key.ntpriv").read_bytes()
    c = _keygen(tmp_path, "c", "--scheme", "ntru", "--preset", "toy11", "--seed", "8")
    assert (a / "key.ntpriv").read_bytes() != (c / "key.ntpriv").read_bytes()


def test_env_seed_beats_flag(tmp_path, monkeypatch, capsys):
    baseline = _keygen(
        tmp_path, "base", "--scheme", "ntru", "--preset", "toy11", "--seed", "9"
    )
    monkeypatch.setenv("PQLAB_SEED", "9")
    override = _keygen(
        tmp_path, "env", "--scheme", "ntru", "--preset", "toy11", "--seed", "7"
    )
    assert "seed: 9" in capsys.readouterr().err
    assert (override / "key.ntpriv").read_bytes() == (baseline / "key.ntpriv").read_bytes()


def test_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PQLAB_SEED", "banana")
    rc = main([
        "keygen", "--scheme", "ntru", "--preset", "toy11",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert "PQLAB_SEED" in capsys.readouterr().err


def test_seed_always_reported(tmp_path, capsys):
    _keygen(tmp_path, "k", "--scheme", "ntru", "--preset", "toy11", "--seed", "4")
    assert "seed: 4" in capsys.readouterr().err


# -- the exit-code contract --

# every PqlabError class in pqlab.errors and its documented exit code:
# 1 usage error, 2 format/parse error, 3 cryptographic or other failure
EXIT_CODES = {
    errors.PqlabError: 3,
    errors.DivisionByZero: 3,
    errors.DimensionError: 3,
    errors.RankError: 3,
    errors.SupportError: 3,
    errors.DecodingFailure: 3,
    errors.NotInvertible: 3,
    errors.SamplingExhausted: 3,
    errors.MessageRangeError: 3,
    errors.UnknownParams: 1,
    errors.FormatError: 2,
}


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    classes = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.PqlabError)
    }
    # a new error class needs a row in the table before it can pass
    assert classes == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        def raise_it(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_info", raise_it)
        assert main(["info", "--params", "toy"]) == code, cls.__name__
        err = capsys.readouterr().err
        assert err.startswith("pqlab: ") and err.endswith("boom\n"), cls.__name__

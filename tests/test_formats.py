"""Round-trip and rejection tests for the versioned text file formats."""

import functools
import hashlib
import os
import random
import tempfile
from dataclasses import asdict, fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqlab import cli, kat, mceliece, ntru
from pqlab.errors import DecodingFailure, FormatError
from pqlab.f2linalg import BinVector
from pqlab.formats import (
    load_file,
    params_hash,
    parse_file,
    serialize_ciphertext_mceliece,
    serialize_ciphertext_ntru,
    serialize_mceliece_private,
    serialize_mceliece_public,
    serialize_ntru_private,
    serialize_ntru_public,
)
from pqlab.gf2m import FieldPoly
from pqlab.ntru import NtruParams

from oracles import poly_gcd


@pytest.fixture(scope="module")
def mce_kp():
    import random

    return mceliece.keygen(4, 2, random.Random(7))


@pytest.fixture(scope="module")
def mce_kp_sys():
    import random

    return mceliece.keygen(4, 2, random.Random(7), systematic=True)


@pytest.fixture(scope="module")
def ntru_kp():
    import random

    return ntru.keygen(ntru.PRESETS["toy11"], random.Random(7))


# -- params hash --


def test_params_hash_oracle():
    # canonical form: scheme;k1=v1;... with sorted names, sha256, first 16 hex
    expected = hashlib.sha256(b"mceliece;k=8;n=16;t=2").hexdigest()[:16]
    assert params_hash("mceliece", {"n": 16, "t": 2, "k": 8}) == expected
    assert params_hash("mceliece", asdict(mceliece.McElieceParams(16, 8, 2))) == expected


def test_params_hash_regression():
    # frozen so an accidental canonicalization change shows up
    assert params_hash("mceliece", asdict(mceliece.McElieceParams(16, 8, 2))) == "68ca8b6a0d9f1d6b"
    toy = ntru.PRESETS["toy11"]
    assert params_hash("ntru", asdict(toy)) == hashlib.sha256(
        f"ntru;d_f={toy.d_f};n={toy.n};p={toy.p};q={toy.q}".encode()
    ).hexdigest()[:16]


def test_params_hash_distinguishes():
    mce = mceliece.McElieceParams
    assert params_hash("mceliece", asdict(mce(16, 8, 2))) != params_hash(
        "mceliece", asdict(mce(16, 8, 3))
    )
    assert params_hash("ntru", asdict(NtruParams(11, 3, 41, 2))) != params_hash(
        "ntru", asdict(NtruParams(11, 3, 43, 2))
    )


# -- byte-identical round-trips for all six kinds --


def test_mceliece_public_roundtrip(mce_kp):
    text = serialize_mceliece_public(mce_kp.public)
    scheme, kind, pub = parse_file(text)
    assert (scheme, kind) == ("mceliece", "public")
    assert pub.g_hat == mce_kp.public.g_hat
    assert pub.t == mce_kp.public.t
    assert not pub.systematic
    assert serialize_mceliece_public(pub) == text


def test_mceliece_public_systematic_roundtrip(mce_kp_sys):
    text = serialize_mceliece_public(mce_kp_sys.public)
    _, _, pub = parse_file(text)
    assert pub.systematic
    assert pub.g_hat == mce_kp_sys.public.g_hat
    assert serialize_mceliece_public(pub) == text
    # the systematic file stores only the A block
    assert "matrix a " in text


def test_mceliece_private_roundtrip(mce_kp):
    text = serialize_mceliece_private(mce_kp)
    scheme, kind, kp = parse_file(text)
    assert (scheme, kind) == ("mceliece", "private")
    assert kp.s == mce_kp.s
    assert kp.p.perm == mce_kp.p.perm
    assert kp.code.g.coeffs == mce_kp.code.g.coeffs
    assert kp.code.support == mce_kp.code.support
    assert kp.public.g_hat == mce_kp.public.g_hat
    assert serialize_mceliece_private(kp) == text


def test_ntru_public_roundtrip(ntru_kp):
    text = serialize_ntru_public(ntru_kp.public)
    scheme, kind, pub = parse_file(text)
    assert (scheme, kind) == ("ntru", "public")
    assert pub.params == ntru_kp.params
    assert pub.h == ntru_kp.public.h
    assert serialize_ntru_public(pub) == text


@pytest.fixture(scope="module")
def mce_kp_demo_sys():
    demo = mceliece.PRESETS["demo"]
    return mceliece.keygen(demo.m, demo.t, random.Random(4), n=demo.n, systematic=True)


@pytest.mark.parametrize("part", ["public", "private"])
@pytest.mark.parametrize("fixture", ["mce_kp", "mce_kp_demo_sys", "ntru_kp"])
def test_key_params_match_file(request, rng, fixture, part):
    # every key carries its scheme's params class; its file's param lines
    # open with those fields, and ciphertexts under it hash them
    kp = request.getfixturevalue(fixture)
    if fixture == "ntru_kp":
        scheme, cls = "ntru", NtruParams
        writers = {"public": serialize_ntru_public, "private": serialize_ntru_private}
        ct = serialize_ciphertext_ntru(kp.params, ntru.encrypt_bytes(kp.public, b"pq", rng))
    else:
        scheme, cls = "mceliece", mceliece.McElieceParams
        writers = {"public": serialize_mceliece_public, "private": serialize_mceliece_private}
        blocks = mceliece.encrypt_long(kp.public, b"pq", rng)
        ct = serialize_ciphertext_mceliece(kp.public, blocks)
    key = kp.public if part == "public" else kp
    text = writers[part](key)
    loaded = parse_file(text)[2]
    expected = asdict(key.params)
    assert list(expected) == [f.name for f in fields(cls)]
    lines = [line.split(" ") for line in text.splitlines() if line.startswith("param ")]
    assert [(name, int(v)) for _, name, v in lines[: len(expected)]] == list(expected.items())
    for k in (key, loaded):
        assert isinstance(k.params, cls)
        assert k.params == key.params
    assert parse_file(ct)[2].hash == params_hash(scheme, expected)


def test_ntru_private_roundtrip(ntru_kp):
    text = serialize_ntru_private(ntru_kp)
    scheme, kind, kp = parse_file(text)
    assert (scheme, kind) == ("ntru", "private")
    assert kp.f == ntru_kp.f
    assert kp.f_p_inv == ntru_kp.f_p_inv
    assert kp.public.h == ntru_kp.public.h
    assert serialize_ntru_private(kp) == text


def test_mceliece_ciphertext_roundtrip(mce_kp, rng):
    blocks = [BinVector(16, rng.randrange(1 << 16)) for _ in range(3)]
    text = serialize_ciphertext_mceliece(mce_kp.public, blocks)
    scheme, kind, ct = parse_file(text)
    assert (scheme, kind) == ("mceliece", "ciphertext")
    assert ct.blocks == blocks
    assert ct.hash == params_hash("mceliece", asdict(mce_kp.params))
    assert serialize_ciphertext_mceliece(mce_kp.public, ct.blocks) == text


def test_ntru_ciphertext_roundtrip(ntru_kp, rng):
    params = ntru_kp.params
    blocks = [
        [rng.randrange(-params.q // 2, params.q // 2) for _ in range(params.n)]
        for _ in range(2)
    ]
    text = serialize_ciphertext_ntru(params, blocks)
    scheme, kind, ct = parse_file(text)
    assert (scheme, kind) == ("ntru", "ciphertext")
    assert ct.blocks == blocks
    assert ct.hash == params_hash("ntru", asdict(params))
    assert serialize_ciphertext_ntru(params, ct.blocks) == text


# -- reloaded keys still work --


def test_reloaded_mceliece_key_decrypts(mce_kp, rng):
    _, _, pub = parse_file(serialize_mceliece_public(mce_kp.public))
    _, _, priv = parse_file(serialize_mceliece_private(mce_kp))
    msg = BinVector(mce_kp.k, rng.randrange(1 << mce_kp.k))
    c = mceliece.encrypt(pub, msg, rng=rng)
    assert mceliece.decrypt(priv, c) == msg


def test_reloaded_ntru_key_decrypts(ntru_kp, rng):
    _, _, pub = parse_file(serialize_ntru_public(ntru_kp.public))
    _, _, priv = parse_file(serialize_ntru_private(ntru_kp))
    from pqlab.convring import sample_ternary

    m = sample_ternary(pub.params.n, *pub.params.shape, rng)
    c = ntru.encrypt(pub, m, rng=rng)
    assert ntru.decrypt(priv, c) == m


# -- rejections --


def test_bad_magic(ntru_kp):
    text = serialize_ntru_public(ntru_kp.public)
    with pytest.raises(FormatError):
        parse_file(text.replace("PQLAB1", "PQLAB2", 1))
    with pytest.raises(FormatError):
        parse_file(text.replace("PQLAB1 ntru public", "PQLAB1 ntru", 1))
    with pytest.raises(FormatError):
        parse_file("")


def test_unknown_kind(ntru_kp):
    text = serialize_ntru_public(ntru_kp.public)
    with pytest.raises(FormatError):
        parse_file(text.replace("ntru public", "ntru sign", 1))
    with pytest.raises(FormatError):
        parse_file(text.replace("ntru public", "rsa public", 1))


def test_truncation_rejected(mce_kp, ntru_kp):
    for text in [
        serialize_mceliece_public(mce_kp.public),
        serialize_mceliece_private(mce_kp),
        serialize_ntru_private(ntru_kp),
    ]:
        lines = text.splitlines()
        for cut in [1, len(lines) // 2, len(lines) - 1]:
            with pytest.raises(FormatError):
                parse_file("\n".join(lines[:cut]) + "\n")


def test_missing_end_line(ntru_kp):
    text = serialize_ntru_public(ntru_kp.public)
    with pytest.raises(FormatError):
        parse_file(text.replace("\nend\n", "\n"))


def test_bad_hex_row(mce_kp):
    text = serialize_mceliece_public(mce_kp.public)
    lines = text.splitlines()
    lines[6] = "zz" + lines[6][2:]
    with pytest.raises(FormatError):
        parse_file("\n".join(lines) + "\n")


def test_bad_integer_coefficient(ntru_kp):
    text = serialize_ntru_public(ntru_kp.public)
    with pytest.raises(FormatError):
        parse_file(text.replace("poly h", "poly h x", 1))


def _first_token(change):
    return lambda rest: " ".join([change(rest.split(" ")[0]), *rest.split(" ")[1:]])


def _leading_zero(token):
    return "-0" + token[1:] if token.startswith("-") else "0" + token


@pytest.mark.parametrize("kind", ["public", "private", "ciphertext"])
@pytest.mark.parametrize(
    "change",
    [_first_token(_leading_zero), _first_token(lambda t: "-0"), lambda rest: ""],
    ids=["leading-zero", "minus-zero", "empty"],
)
def test_integer_list_spelled_as_no_writer_spells_it(ntru_kp, rng, kind, change):
    # a key poly or a ciphertext block with a leading zero, -0 or no value:
    # int() reads the first two as the values they spell
    if kind == "ciphertext":
        text = serialize_ciphertext_ntru(ntru_kp.params, [[1, 0, -3] + [0] * 8])
        tag, what = "block", "ntru block"
    else:
        kp = ntru_kp.public if kind == "public" else ntru_kp
        text = (serialize_ntru_public if kind == "public" else serialize_ntru_private)(kp)
        tag, what = "poly h", "poly h"
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
    lines[i] = f"{tag} {change(lines[i][len(tag) + 1:])}"
    with pytest.raises(FormatError, match=f"^bad integer in {what}$"):
        parse_file("\n".join(lines) + "\n")


def test_wrong_shape_rejected(ntru_kp, mce_kp_sys):
    # drop one coefficient from h
    text = serialize_ntru_public(ntru_kp.public)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("poly h"))
    lines[idx] = lines[idx].rsplit(" ", 1)[0]
    with pytest.raises(FormatError):
        parse_file("\n".join(lines) + "\n")
    # lie about the systematic block shape
    k = mce_kp_sys.k
    text = serialize_mceliece_public(mce_kp_sys.public)
    assert f"param k {k}" in text
    with pytest.raises(FormatError):
        parse_file(text.replace(f"param k {k}", f"param k {k - 1}", 1))


def test_mismatched_private_params_rejected(mce_kp):
    # stored (n, k) must match the code rebuilt from (g, L)
    k = mce_kp.k
    text = serialize_mceliece_private(mce_kp)
    assert f"param k {k}" in text
    with pytest.raises(FormatError):
        parse_file(text.replace(f"param k {k}", f"param k {k + 1}", 1))


def test_private_t_must_match_goppa_degree(mce_kp):
    text = serialize_mceliece_private(mce_kp)
    assert "param t 2" in text and mce_kp.code.g.degree == 2
    with pytest.raises(FormatError):
        parse_file(text.replace("param t 2", "param t 3", 1))


def test_private_scramble_must_be_k_by_k(mce_kp):
    # drop the last row of S: a 7 x 8 scramble has full row rank but no inverse
    lines = serialize_mceliece_private(mce_kp).splitlines()
    idx = lines.index("matrix s 8 8")
    lines[idx] = "matrix s 7 8"
    del lines[idx + 8]
    with pytest.raises(FormatError, match="scramble matrix must be 8 x 8"):
        parse_file("\n".join(lines) + "\n")


KAT_PARAMS = mceliece.McElieceParams(kat.MCE_G_HAT.cols, kat.MCE_G_HAT.rows, kat.MCE_T)


@pytest.mark.parametrize(
    "params", [*mceliece.PRESETS.values(), KAT_PARAMS], ids=[*mceliece.PRESETS, "kat"]
)
def test_every_preset_t_passes_the_public_range_check(params):
    # 1 <= t and 2t <= n - k; a header-only file gets past the check to the
    # missing matrix
    n, k, t = params.n, params.k, params.t
    assert 1 <= t and 2 * t <= n - k
    text = f"PQLAB1 mceliece public\nparam n {n}\nparam k {k}\nparam t {t}\nend\n"
    with pytest.raises(FormatError, match="expected matrix g_hat"):
        parse_file(text)


def test_public_key_loads_exactly_when_mceliece_params_accept():
    # one McEliece rule: a minimal public key, a zero g_hat of k x n, loads
    # exactly when McElieceParams takes its (n, k, t)
    for n in range(1, 21):
        for k in range(n + 2):
            rows = f"{0:0{(n + 3) // 4}x}\n" * k
            for t in range(13):
                text = (
                    f"PQLAB1 mceliece public\nparam n {n}\nparam k {k}\nparam t {t}\n"
                    f"param systematic 0\nmatrix g_hat {k} {n}\n{rows}end\n"
                )
                try:
                    mceliece.McElieceParams(n, k, t)
                except ValueError:
                    with pytest.raises(FormatError):
                        parse_file(text)
                else:
                    _, _, pub = parse_file(text)
                    assert (pub.n, pub.k, pub.t) == (n, k, t)


# a demo-preset private key and a fixed ciphertext under it; the fuzz below
# edits the integers of its param, perm p, poly g and support l lines
_DEMO = mceliece.preset("demo")
_DEMO_KP = mceliece.keygen(_DEMO.m, _DEMO.t, random.Random(21), n=_DEMO.n)
_DEMO_TEXT = serialize_mceliece_private(_DEMO_KP)
_DEMO_LINES = _DEMO_TEXT.splitlines()
_DEMO_BLOCKS = mceliece.encrypt_long(_DEMO_KP.public, b"fuzz", random.Random(22))
_FUZZ_LINES = [
    i for i, line in enumerate(_DEMO_LINES)
    if line.startswith(("param ", "perm p ", "poly g ", "support l "))
]
_FUZZ_INTS = st.integers(-3, 40) | st.sampled_from([-(1 << 13), 63, 64, 1 << 13, 1 << 40])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_private_key_loads_or_raises_format_error(data):
    lines = list(_DEMO_LINES)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.sampled_from(_FUZZ_LINES))
        tokens = lines[i].split()
        head, values = tokens[:2], tokens[2:]
        ops = ["insert", "change", "duplicate", "drop"] if values else ["insert"]
        op = data.draw(st.sampled_from(ops))
        if op == "insert":
            values.insert(data.draw(st.integers(0, len(values))), str(data.draw(_FUZZ_INTS)))
        else:
            j = data.draw(st.integers(0, len(values) - 1))
            if op == "change":
                values[j] = str(data.draw(_FUZZ_INTS))
            elif op == "duplicate":
                values.insert(j, values[j])
            else:
                del values[j]
        lines[i] = " ".join(head + values)
    text = "\n".join(lines) + "\n"
    try:
        _, _, kp = parse_file(text)
    except FormatError:
        return
    assert 0 <= _exit_code_of_use("mceliece-private", text) <= 3
    # a key that loads is structurally whole: decrypting with it may fail
    # to decode, but never with a dimension, range or other load-time error
    try:
        out = mceliece.decrypt_long(kp, _DEMO_BLOCKS)
    except DecodingFailure:
        return
    assert isinstance(out, bytes)


# one file of each other kind; the fuzz below edits their tokens and lines
_NTRU_KP = ntru.keygen(ntru.preset("toy11"), random.Random(23))
_OTHER_FILES = {
    "mceliece-public": serialize_mceliece_public(_DEMO_KP.public),
    "mceliece-public-systematic": serialize_mceliece_public(
        mceliece.keygen(4, 2, random.Random(24), systematic=True).public
    ),
    "ntru-public": serialize_ntru_public(_NTRU_KP.public),
    "ntru-private": serialize_ntru_private(_NTRU_KP),
    "mceliece-ciphertext": serialize_ciphertext_mceliece(_DEMO_KP.public, _DEMO_BLOCKS),
    "ntru-ciphertext": serialize_ciphertext_ntru(
        _NTRU_KP.params, ntru.encrypt_bytes(_NTRU_KP.public, b"fuzz", random.Random(25))
    ),
}
_PRIVATE_TEXT = {"mceliece": _DEMO_TEXT, "ntru": _OTHER_FILES["ntru-private"]}


def _exit_code_of_use(kind: str, text: str) -> int:
    """Use a file of the given kind through cli.main as pqlab would: encrypt
    with a public key, decrypt the original ciphertext with a private key,
    or decrypt a ciphertext with the original private key."""
    scheme = kind.split("-")[0]
    with tempfile.TemporaryDirectory() as tmp:
        def put(name: str, content: str) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(content)
            return path

        file, out = put("file", text), os.path.join(tmp, "out")
        if "-public" in kind:
            argv = ["encrypt", "--pub", file, "--in", put("m", "fuzz"), "--seed", "1"]
        elif kind.endswith("-private"):
            argv = ["decrypt", "--priv", file, "--in", put("ct", _OTHER_FILES[f"{scheme}-ciphertext"])]
        else:
            argv = ["decrypt", "--priv", put("key", _PRIVATE_TEXT[scheme]), "--in", file]
        return cli.main([*argv, "--out", out])


_FUZZ_TOKENS = _FUZZ_INTS.map(str) | st.sampled_from(["ff", "1g", "-0", "x", "end", "param", "h"])
_FUZZ_OPS = ["change", "drop", "duplicate", "insert", "drop line", "duplicate line", "insert line"]


@pytest.mark.parametrize("kind", list(_OTHER_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_format_error(kind, data):
    lines = _OTHER_FILES[kind].splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = data.draw(st.sampled_from(_FUZZ_OPS if tokens else ["insert", *_FUZZ_OPS[4:]]))
        if op == "drop line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "insert line":
            lines.insert(i, " ".join(data.draw(st.lists(_FUZZ_TOKENS, max_size=3))))
        elif op == "insert":
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_FUZZ_TOKENS))
        else:
            j = data.draw(st.integers(0, len(tokens) - 1))
            if op == "change":
                tokens[j] = data.draw(_FUZZ_TOKENS)
            elif op == "duplicate":
                tokens.insert(j, tokens[j])
            else:
                del tokens[j]
        if not op.endswith(" line"):
            lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    try:
        _, _, obj = parse_file(text)
    except FormatError:
        return
    # a file that loads is also usable: any failure is an exit code, not a raise
    assert 0 <= _exit_code_of_use(kind, text) <= 3
    if isinstance(obj, ntru.NtruPublicKey):
        # a loaded h is as keygen writes it: centered mod q and nonzero
        q = obj.params.q
        assert all(-q < 2 * c <= q for c in obj.h) and any(obj.h)


# every kind of file, for the value fuzz below
_ALL_FILES = {"mceliece-private": _DEMO_TEXT, **_OTHER_FILES}
_HEX_DIGITS = "0123456789abcdef"


def _payload_slots(lines: list[str]) -> list[tuple[int, int, bool]]:
    """(line, token, is_hex) for every payload value: the hex rows of a
    matrix and of a mceliece block line, and each integer of a poly, perm,
    support or ntru block line."""
    scheme = lines[0].split()[1]
    slots = []
    rows = 0
    for i, line in enumerate(lines):
        tag, *rest = line.split()
        if rows:
            slots.append((i, 0, True))
            rows -= 1
        elif tag == "matrix":
            rows = int(rest[1])
        elif tag == "block" and scheme == "mceliece":
            slots.append((i, 1, True))
        elif tag in ("poly", "perm", "support", "block"):
            first = 1 if tag == "block" else 2
            slots += [(i, j, False) for j in range(first, len(rest) + 1)]
    return slots


@pytest.mark.parametrize("kind", list(_ALL_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_value_mutated_file_loads_or_raises_format_error(kind, data):
    # one payload value becomes another of the same form, so the line and
    # token counts stay and most mutated files load
    lines = _ALL_FILES[kind].splitlines()
    i, j, is_hex = data.draw(st.sampled_from(_payload_slots(lines)))
    tokens = lines[i].split()
    old = tokens[j]
    if is_hex:
        at = data.draw(st.integers(0, len(old) - 1))
        digit = data.draw(st.sampled_from(_HEX_DIGITS.replace(old[at], "")))
        tokens[j] = old[:at] + digit + old[at + 1:]
    else:
        tokens[j] = str(data.draw(st.integers(-20, 40).filter(lambda v: v != int(old))))
    lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    try:
        parse_file(text)
    except FormatError:
        return
    assert 0 <= _exit_code_of_use(kind, text) <= 3


def _respellings(token: str, is_hex: bool) -> list[str]:
    """Spellings of the token's value that int() reads back but no writer
    emits: '_' between digits, a '+' sign, a leading zero, -0 for 0, and for
    hex a 0x prefix and upper case."""
    sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
    out = [f"{sign}{digits[0]}_{digits[1:]}"] if len(digits) > 1 else []
    out += [f"{sign}0{digits}"] + (["-0"] if token == "0" else [])
    if not sign:
        out.append("+" + token)
    if is_hex:
        out += ["0x" + token] + ([token.upper()] if token.upper() != token else [])
    return out


def _integer_slots(lines: list[str]) -> list[tuple[int, int, bool]]:
    """(line, token, is_hex) for every integer a writer emits that has a
    respelling: the payload values, the param values and the matrix shapes."""
    slots = _payload_slots(lines)
    for i, line in enumerate(lines):
        tag = line.split()[0]
        if tag in ("param", "matrix"):
            slots += [(i, j, False) for j in range(2, len(line.split()))]
    return [(i, j, h) for i, j, h in slots if _respellings(lines[i].split()[j], h)]


@pytest.mark.parametrize("kind", list(_ALL_FILES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_respelled_integer_exits_2(kind, data):
    # one integer spelled another way int() reads as the same value: the
    # readers take values only as the writers spell them
    lines = _ALL_FILES[kind].splitlines()
    i, j, is_hex = data.draw(st.sampled_from(_integer_slots(lines)))
    tokens = lines[i].split()
    spelling = data.draw(st.sampled_from(_respellings(tokens[j], is_hex)))
    assert int(spelling, 16 if is_hex else 10) == int(tokens[j], 16 if is_hex else 10)
    tokens[j] = spelling
    lines[i] = " ".join(tokens)
    assert _exit_code_of_use(kind, "\n".join(lines) + "\n") == 2


@pytest.mark.parametrize("kind", list(_ALL_FILES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_respaced_line_exits_2(kind, data):
    # one line with a doubled inner space, a leading space or a trailing
    # space: the writers put tokens one space apart and none at either end
    lines = _ALL_FILES[kind].splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    spaces = [j for j, ch in enumerate(line) if ch == " "]
    edit = data.draw(st.sampled_from(["leading", "trailing"] + (["doubled"] if spaces else [])))
    if edit == "doubled":
        j = data.draw(st.sampled_from(spaces))
        lines[i] = line[:j] + " " + line[j:]
    else:
        lines[i] = " " + line if edit == "leading" else line + " "
    assert _exit_code_of_use(kind, "\n".join(lines) + "\n") == 2


@pytest.mark.parametrize("kind", list(_ALL_FILES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_line_after_end_exits_2(kind, data):
    # a copy of one of the file's own lines, or up to three fuzz tokens
    # (zero tokens make a blank line), appended after end
    lines = _ALL_FILES[kind].splitlines()
    extra = data.draw(st.sampled_from(lines) | st.lists(_FUZZ_TOKENS, max_size=3).map(" ".join))
    assert _exit_code_of_use(kind, "\n".join([*lines, extra]) + "\n") == 2


@pytest.mark.parametrize("kind", list(_ALL_FILES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_duplicated_param_line_exits_2(kind, data):
    # a copy of one param line, put anywhere among the param lines
    lines = _ALL_FILES[kind].splitlines()
    params = [i for i, line in enumerate(lines) if line.startswith("param ")]
    line = lines[data.draw(st.sampled_from(params))]
    lines.insert(data.draw(st.integers(params[0], params[-1] + 1)), line)
    assert _exit_code_of_use(kind, "\n".join(lines) + "\n") == 2


# the demo key's perm p and support l lines, and its g and g's line
_SWAP_LINES = [i for i, line in enumerate(_DEMO_LINES) if line.startswith(("perm p ", "support l "))]
_DEMO_G = _DEMO_KP.code.g
_G_LINE = next(i for i, line in enumerate(_DEMO_LINES) if line.startswith("poly g "))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_swap_or_squarefree_g_private_key_loads_or_raises_format_error(data):
    # edits that keep the load checks' invariants: a swap of two entries of
    # perm p or support l keeps them distinct, and a changed coefficient
    # below g's lead that leaves gcd(g, g') = 1 keeps g squarefree, so most
    # of these files load and reach the decrypt
    lines = list(_DEMO_LINES)
    if data.draw(st.booleans()):
        i = data.draw(st.sampled_from(_SWAP_LINES))
        tokens = lines[i].split()
        a, b = data.draw(st.lists(st.integers(2, len(tokens) - 1), min_size=2, max_size=2, unique=True))
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[i] = " ".join(tokens)
    else:
        ctx = _DEMO_G.ctx
        coeffs = list(_DEMO_G.coeffs)
        j = data.draw(st.integers(0, _DEMO_G.degree - 1))
        coeffs[j] = data.draw(st.integers(0, ctx.order - 1).filter(lambda c: c != coeffs[j]))
        g = FieldPoly(coeffs, ctx)
        # in characteristic 2, g' keeps the odd-degree terms of g
        derivative = FieldPoly([c if i % 2 else 0 for i, c in enumerate(coeffs)][1:], ctx)
        assume(poly_gcd(g, derivative).degree == 0)
        lines[_G_LINE] = "poly g " + " ".join(map(str, coeffs))
    text = "\n".join(lines) + "\n"
    try:
        parse_file(text)
    except FormatError:
        return
    assert 0 <= _exit_code_of_use("mceliece-private", text) <= 3


@pytest.mark.parametrize("q", [41, 32])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ntru_public_h_loads_only_centered_and_nonzero(q, data):
    # -q/2 < h_i <= q/2 is the range center_mod gives; h = 0 would encrypt
    # every message to itself. Draws reach one step past each end
    near_centered = st.integers(-q // 2 - 1, q // 2 + 1)
    h = data.draw(st.lists(near_centered, min_size=11, max_size=11))
    text = serialize_ntru_public(ntru.NtruPublicKey(NtruParams(11, 3, q, 2), tuple(h)))
    try:
        parse_file(text)
        loads = True
    except FormatError:
        loads = False
    assert loads == (all(-q < 2 * c <= q for c in h) and any(h))


# -- NTRU private keys edited consistently --


@functools.cache
def _rotation_case(name: str):
    """A key of the preset, a plaintext and the ciphertext file of it."""
    params = ntru.preset(name)
    kp = ntru.keygen(params, random.Random(26))
    plain = bytes(range(40))
    blocks = ntru.encrypt_bytes(kp.public, plain, random.Random(27))
    return kp, plain, serialize_ciphertext_ntru(params, blocks)


@st.composite
def _rotated_ntru_private(draw, kp):
    """The private key file of kp with f made s * x^i * f and f_p_inv made
    s * x^-i * f_p_inv, kept in [0, p), for a drawn i and sign s: f * f_p_inv
    stays 1 mod p and f * h is s * x^i * g, still ternary, so the key loads,
    and (x^i * f) * c = x^i * (f * c) centers the same way, so it decrypts."""
    n, p = kp.params.n, kp.params.p
    i = draw(st.integers(0, n - 1))
    s = draw(st.sampled_from([1, -1]))
    f = [s * kp.f[(j - i) % n] for j in range(n)]
    f_p_inv = [s * kp.f_p_inv[(j + i) % n] % p for j in range(n)]
    return serialize_ntru_private(ntru.NtruKeyPair(kp.public, tuple(f), tuple(f_p_inv)))


@pytest.mark.parametrize("name", ["toy11", "rec443"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_rotated_ntru_private_key_decrypts(name, data):
    kp, plain, ct_text = _rotation_case(name)
    text = data.draw(_rotated_ntru_private(kp))
    with tempfile.TemporaryDirectory() as tmp:
        key, ct, out = (os.path.join(tmp, f) for f in ("key", "ct", "out"))
        for path, content in ((key, text), (ct, ct_text)):
            with open(path, "w") as fh:
                fh.write(content)
        assert cli.main(["decrypt", "--priv", key, "--in", ct, "--out", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == plain


# -- line ends --


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_load_as_lf(tmp_path, end, mce_kp, ntru_kp):
    # a file whose lines end in CRLF or CR loads to the object its LF form
    # loads to, compared by serializing it again
    rng = random.Random(28)
    mce_blocks = mceliece.encrypt_long(mce_kp.public, b"line ends", rng)
    ntru_blocks = ntru.encrypt_bytes(ntru_kp.public, b"line ends", rng)
    files = {
        "mceliece-public": (serialize_mceliece_public(mce_kp.public), serialize_mceliece_public),
        "mceliece-private": (serialize_mceliece_private(mce_kp), serialize_mceliece_private),
        "ntru-public": (serialize_ntru_public(ntru_kp.public), serialize_ntru_public),
        "ntru-private": (serialize_ntru_private(ntru_kp), serialize_ntru_private),
        "mceliece-ciphertext": (
            serialize_ciphertext_mceliece(mce_kp.public, mce_blocks),
            lambda ct: serialize_ciphertext_mceliece(mce_kp.public, ct.blocks),
        ),
        "ntru-ciphertext": (
            serialize_ciphertext_ntru(ntru_kp.params, ntru_blocks),
            lambda ct: serialize_ciphertext_ntru(ntru_kp.params, ct.blocks),
        ),
    }
    for kind, (text, serialize) in files.items():
        lf, other = tmp_path / f"{kind}.lf", tmp_path / f"{kind}.other"
        lf.write_bytes(text.encode("ascii"))
        other.write_bytes(text.replace("\n", end).encode("ascii"))
        assert serialize(load_file(str(other))[2]) == serialize(load_file(str(lf))[2]) == text, kind


def test_ciphertext_block_count_must_match(ntru_kp):
    text = serialize_ciphertext_ntru(ntru_kp.params, [[0] * 11])
    with pytest.raises(FormatError):
        parse_file(text.replace("param blocks 1", "param blocks 2", 1))


def test_load_file_missing_path(tmp_path):
    with pytest.raises(FormatError):
        load_file(str(tmp_path / "nope.key"))


def test_load_file_reads_disk(tmp_path, ntru_kp):
    path = tmp_path / "pub.key"
    text = serialize_ntru_public(ntru_kp.public)
    path.write_text(text)
    scheme, kind, pub = load_file(str(path))
    assert (scheme, kind) == ("ntru", "public")
    assert pub.h == ntru_kp.public.h

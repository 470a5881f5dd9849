"""Versioned text formats for key files and ciphertext files.

Every file starts with the magic line "PQLAB1 <scheme> <kind>".  Bodies are
"param <name> <int>" lines followed by typed payload sections: matrices as
hex-packed rows (bit j of the row integer is column j), polynomials and
permutations as space-separated integers, and a closing "end" line.  One
writer, `_text`, emits that layout and `parse_file` reads it back, so each
serializer is its params plus its body and each reader its body alone (the
NTRU private reader reads h with the public one).  A file is read as its
writer wrote it: each param name at most once and only names the writer of
that (scheme, kind) emits (`systematic` is optional in McEliece keys), only
values that writer emits (`systematic` 0 or 1, `modulus` the one modulus of
GF(2^m)), spelled as it spells them (tokens one space apart, every decimal
integer as str(int) spells it, rows as (cols + 3) // 4 lowercase hex digits),
and no line after "end".  A key's scheme parameters are a set its params class
(`McElieceParams`, `NtruParams`) accepts; the ValueError of any other set
reads as a FormatError.  Every key exposes that set as `params`: its file's
param lines open with the fields of `params` in field order, and the readers
take those names from the class.
Serialization is canonical, so identical inputs give byte-identical files;
ciphertexts carry params_hash of the key's `params`, which decryption checks
before any block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial

from . import mceliece as mce
from .convring import centered, conv_mul, poly_to_text, ternary_shape
from .errors import DivisionByZero, FormatError, RankError
from .f2linalg import BinMatrix, BinVector, PermMatrix
from .gf2m import FieldCtx, FieldPoly
from .goppa import GoppaCode
from .ntru import NtruKeyPair, NtruParams, NtruPublicKey

MAGIC = "PQLAB1"


def params_hash(scheme: str, params: dict[str, int]) -> str:
    canon = scheme + ";" + ";".join(f"{k}={params[k]}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _hex_row(row: int, cols: int) -> str:
    return format(row, f"0{(cols + 3) // 4}x")


def _matrix_lines(name: str, m: BinMatrix) -> list[str]:
    out = [f"matrix {name} {m.rows} {m.cols}"]
    out.extend(_hex_row(r, m.cols) for r in m.data)
    return out


def _text(head: str, params: dict[str, int], body: list[str]) -> str:
    """The mirror of parse_file: the magic line, one param line per item in
    order, the body lines and the end line."""
    lines = [f"{MAGIC} {head}", *(f"param {k} {v}" for k, v in params.items())]
    return "\n".join([*lines, *body, "end"]) + "\n"


# the characters each writer spells its values with
_DECIMAL = b"-0123456789 "
_HEX = b"0123456789abcdef"


def _ints(text: str, what: str) -> list[int]:
    """Integers as str(int) spells them, one space apart: one translate of
    the line rejects every other character int() takes ('+', '_', 'x', ...),
    '-0' and the empty line are looked for by name, and JSON's number
    grammar, read at C speed, rejects the rest: a leading zero, an empty
    token (which any other spacing leaves) or a misplaced '-'.  The spacing
    is looked at only then, so a valid line pays for no search."""
    if not text or "-0" in text or text.encode().translate(None, _DECIMAL):
        raise FormatError(f"bad integer in {what}")
    try:
        return json.loads("[" + text.replace(" ", ",") + "]")
    except ValueError:
        spacing = "  " in text or text.startswith(" ") or text.endswith(" ")
        raise FormatError(f"bad {'spacing' if spacing else 'integer'} in {what}") from None


def _hex(texts: list[str], cols: int, what: str) -> list[int]:
    """Rows of cols bits as _hex_row spells them, (cols + 3) // 4 lowercase
    hex digits each: one translate checks the digits of all the rows."""
    if set(map(len, texts)) - {(cols + 3) // 4} or "".join(texts).encode().translate(None, _HEX):
        raise FormatError(f"bad hex {what}")
    return [int(t, 16) for t in texts]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect_magic(self) -> tuple[str, str]:
        parts = self.next().split(" ")
        if len(parts) != 3 or parts[0] != MAGIC:
            raise FormatError(f"bad magic line (expected '{MAGIC} <scheme> <kind>')")
        return parts[1], parts[2]

    def body(self, head: str) -> str:
        """The rest of the next line, which must start with `head` and a space."""
        line = self.next()
        if not line.startswith(head + " "):
            raise FormatError(f"expected {head}")
        return line[len(head) + 1 :]

    def params(self, names: tuple[str, ...]) -> dict[str, int]:
        """The param lines, each name once and one of `names`."""
        out: dict[str, int] = {}
        while self.pos < len(self.lines) and self.lines[self.pos].startswith("param "):
            line = self.next()
            if "  " in line or line.endswith(" "):
                raise FormatError("bad spacing in param line")
            parts = line.split(" ")
            if len(parts) != 3:
                raise FormatError("bad param line")
            _, name, value = parts
            if name in out:
                raise FormatError(f"param {name} repeated")
            if name not in names:
                raise FormatError(f"unknown param {name}")
            if not (value.isdigit() and value.isascii() and str(int(value)) == value):
                raise FormatError(f"bad integer in param {name}")
            out[name] = int(value)
        return out

    def matrix(self, name: str) -> BinMatrix:
        shape = self.body(f"matrix {name}")
        rows, cols = _ints(shape, f"matrix {name}")
        return BinMatrix(rows, cols, _hex([self.next() for _ in range(rows)], cols, "row"))

    def int_list(self, tag: str, name: str) -> list[int]:
        return _ints(self.body(f"{tag} {name}"), f"{tag} {name}")

    def expect_end(self) -> None:
        if self.next() != "end":
            raise FormatError("missing end line")
        if self.pos < len(self.lines):
            raise FormatError(f"line {self.pos + 1} follows the end line")


# -- McEliece --


def serialize_mceliece_public(pub: mce.McEliecePublicKey) -> str:
    n, k = pub.n, pub.k
    if pub.systematic:
        a = BinMatrix(k, n - k, [r & ((1 << (n - k)) - 1) for r in pub.g_hat.data])
        body = _matrix_lines("a", a)
    else:
        body = _matrix_lines("g_hat", pub.g_hat)
    params = {**asdict(pub.params), "systematic": int(pub.systematic)}
    return _text("mceliece public", params, body)


def _systematic(params: dict[str, int]) -> bool:
    """The systematic flag of a McEliece key file, 0 when absent."""
    flag = params.get("systematic", 0)
    if flag not in (0, 1):
        raise FormatError(f"param systematic {flag} is not 0 or 1")
    return bool(flag)


def _parse_mceliece_public(p: _Parser, params: dict[str, int]) -> mce.McEliecePublicKey:
    n, k, t = astuple(mce.McElieceParams(params["n"], params["k"], params["t"]))
    systematic = _systematic(params)
    if systematic:
        a = p.matrix("a")
        if (a.rows, a.cols) != (k, n - k):
            raise FormatError("systematic block has wrong shape")
        data = [a.data[i] | (1 << (n - k + i)) for i in range(k)]
        g_hat = BinMatrix(k, n, data)
    else:
        g_hat = p.matrix("g_hat")
        if (g_hat.rows, g_hat.cols) != (k, n):
            raise FormatError("public matrix has wrong shape")
    return mce.McEliecePublicKey(g_hat, t, systematic)


def serialize_mceliece_private(kp: mce.McElieceKeyPair) -> str:
    code = kp.code
    if not isinstance(code, GoppaCode):
        raise FormatError("only Goppa-backed private keys can be serialized")
    params = {**asdict(kp.params), "m": code.ctx.m, "modulus": code.ctx.modulus}
    params["systematic"] = int(kp.systematic)
    body = [
        *_matrix_lines("s", kp.s),
        f"perm p {poly_to_text(kp.p.perm)}",
        f"poly g {poly_to_text(code.g.coeffs)}",
        f"support l {poly_to_text(code.support)}",
    ]
    return _text("mceliece private", params, body)


def _parse_mceliece_private(p: _Parser, params: dict[str, int]) -> mce.McElieceKeyPair:
    n, k, t = astuple(mce.McElieceParams(params["n"], params["k"], params["t"]))
    s = p.matrix("s")
    perm = PermMatrix(p.int_list("perm", "p"))
    ctx = FieldCtx(params["m"])
    modulus = params["modulus"]
    if modulus != ctx.modulus:
        raise FormatError(f"param modulus {modulus} != {ctx.modulus}, the modulus of GF(2^{ctx.m})")
    g = FieldPoly(p.int_list("poly", "g"), ctx)
    support = p.int_list("support", "l")
    for field, values in (("poly g coefficient", g.coeffs), ("support l element", support)):
        for v in values:
            if not 0 <= v < ctx.order:
                raise FormatError(f"{field} {v} outside [0, {ctx.order})")
    if g.degree != t:
        raise FormatError(f"param t {t} != deg g {g.degree}")
    try:
        code = GoppaCode(ctx, g, support)
    except DivisionByZero:
        raise FormatError("Goppa polynomial g is not squarefree: gcd(g, g') != 1") from None
    if code.k != k or code.n != n:
        raise FormatError("code parameters do not match the stored key")
    try:
        kp = mce.McElieceKeyPair(s, code, perm, code.t, _systematic(params))
        kp.s_solver  # formed here so that a singular S fails at load
        return kp
    except RankError:
        raise FormatError("scramble matrix s is singular") from None


# -- NTRU --


def serialize_ntru_public(pub: NtruPublicKey) -> str:
    return _text("ntru public", asdict(pub.params), [f"poly h {poly_to_text(pub.h)}"])


def _parse_ntru_public(p: _Parser, params: dict[str, int]) -> NtruPublicKey:
    np_ = NtruParams(params["n"], params["p"], params["q"], params["d_f"])
    h = p.int_list("poly", "h")
    if len(h) != np_.n:
        raise FormatError("public polynomial has wrong degree")
    # every writer centers h mod q; h = 0 would send the message in the clear
    if not centered(h, np_.q):
        raise FormatError(f"public polynomial h is not centered mod {np_.q}")
    if not any(h):
        raise FormatError("public polynomial h is zero")
    return NtruPublicKey(np_, tuple(h))


def serialize_ntru_private(kp: NtruKeyPair) -> str:
    body = [
        f"poly f {poly_to_text(kp.f)}",
        f"poly f_p_inv {poly_to_text(kp.f_p_inv)}",
        f"poly h {poly_to_text(kp.public.h)}",
    ]
    return _text("ntru private", asdict(kp.params), body)


def _parse_ntru_private(p: _Parser, params: dict[str, int]) -> NtruKeyPair:
    f = p.int_list("poly", "f")
    f_p_inv = p.int_list("poly", "f_p_inv")
    public = _parse_ntru_public(p, params)
    np_ = public.params
    if not len(f) == len(f_p_inv) == np_.n:
        raise FormatError("private polynomials have wrong degree")
    kp = NtruKeyPair(public=public, f=tuple(f), f_p_inv=tuple(f_p_inv))
    # the checks multiply the operands decrypt keeps with the key
    f_packed, f_p_inv_packed = kp.operands
    if conv_mul(f_packed, f_p_inv_packed, np_.p) != [1] + [0] * (np_.n - 1):
        raise FormatError("f * f_p_inv is not 1 mod p")
    # g = f * h mod q is ternary for every key keygen writes; an h taken
    # from another key's file gives a g of full-size residues
    if ternary_shape(conv_mul(f_packed, public.h, np_.q)) is None:
        raise FormatError("f * h is not ternary mod q")
    return kp


# -- ciphertext files --


@dataclass(frozen=True)
class CiphertextFile:
    hash: str
    blocks: list


def serialize_ciphertext_mceliece(
    pub: mce.McEliecePublicKey, blocks: list[BinVector]
) -> str:
    digest = params_hash("mceliece", asdict(pub.params))
    body = [f"hash {digest}", *(f"block {_hex_row(b.bits, b.n)}" for b in blocks)]
    return _text("mceliece ciphertext", {"blocks": len(blocks), "n": pub.n}, body)


def serialize_ciphertext_ntru(params: NtruParams, blocks: list[list[int]]) -> str:
    digest = params_hash("ntru", asdict(params))
    body = [f"hash {digest}", *(f"block {poly_to_text(b)}" for b in blocks)]
    return _text("ntru ciphertext", {"blocks": len(blocks), "n": params.n}, body)


def _parse_ciphertext(p: _Parser, params: dict[str, int], scheme: str) -> CiphertextFile:
    nblocks = params["blocks"]
    # the 10* padding fills at least one block
    if nblocks < 1:
        raise FormatError(f"param blocks {nblocks} is below 1")
    n = params["n"]
    digest = p.body("hash")
    texts = [p.body("block") for _ in range(nblocks)]
    if scheme == "mceliece":
        return CiphertextFile(digest, [BinVector(n, b) for b in _hex(texts, n, "mceliece block")])
    blocks = [_ints(t, "ntru block") for t in texts]
    if any(len(b) != n for b in blocks):
        raise FormatError("bad ntru block length")
    return CiphertextFile(hash=digest, blocks=blocks)


# -- top-level load --


# the param names each writer emits, and the reader of the body
_MCE_PARAMS = tuple(f.name for f in fields(mce.McElieceParams))
_NTRU_PARAMS = tuple(f.name for f in fields(NtruParams))
_READERS = {
    ("mceliece", "public"): ((*_MCE_PARAMS, "systematic"), _parse_mceliece_public),
    ("mceliece", "private"): (
        (*_MCE_PARAMS, "m", "modulus", "systematic"),
        _parse_mceliece_private,
    ),
    ("ntru", "public"): (_NTRU_PARAMS, _parse_ntru_public),
    ("ntru", "private"): (_NTRU_PARAMS, _parse_ntru_private),
    ("mceliece", "ciphertext"): (("blocks", "n"), partial(_parse_ciphertext, scheme="mceliece")),
    ("ntru", "ciphertext"): (("blocks", "n"), partial(_parse_ciphertext, scheme="ntru")),
}


def parse_file(text: str):
    """Parse any pqlab file, the mirror of _text; returns (scheme, kind, object)."""
    p = _Parser(text)
    scheme, kind = p.expect_magic()
    if (scheme, kind) not in _READERS:
        raise FormatError(f"unknown file type {scheme!r} {kind!r}")
    names, reader = _READERS[scheme, kind]
    try:
        obj = reader(p, p.params(names))
    except FormatError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed {scheme} {kind} file: {exc}") from exc
    p.expect_end()
    return scheme, kind, obj


def read_bytes(path: str) -> bytes:
    """The bytes of the file at path; an unreadable path is a FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load_file(path: str):
    try:
        text = read_bytes(path).decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not a text key file") from exc
    return parse_file(text)

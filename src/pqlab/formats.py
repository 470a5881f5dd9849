"""Versioned text formats for key files and ciphertext files.

Every file starts with the magic line "PQLAB1 <scheme> <kind>".  Bodies are
"param <name> <int>" lines followed by typed payload sections: matrices as
hex-packed rows (bit j of the row integer is column j), polynomials and
permutations as space-separated integers, and a closing "end" line.  One
writer, `_text`, emits that layout and `_Parser` reads it back; each
serializer is its params plus its body.  Serialization is canonical, so
identical inputs give byte-identical files; ciphertexts carry a hash of the
scheme parameters that decryption checks before touching any block.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from . import mceliece as mce
from .convring import conv_mul, poly_to_text, ternary_shape
from .errors import DivisionByZero, FormatError, SingularMatrix
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
    """The mirror of _Parser: the magic line, one param line per item in
    order, the body lines and the end line."""
    lines = [f"{MAGIC} {head}", *(f"param {k} {v}" for k, v in params.items())]
    return "\n".join([*lines, *body, "end"]) + "\n"


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def peek(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of file")
        return self.lines[self.pos]

    def next(self) -> str:
        line = self.peek()
        self.pos += 1
        return line

    def expect_magic(self) -> tuple[str, str]:
        parts = self.next().split()
        if len(parts) != 3 or parts[0] != MAGIC:
            raise FormatError(f"bad magic line (expected '{MAGIC} <scheme> <kind>')")
        return parts[1], parts[2]

    def params(self) -> dict[str, int]:
        out: dict[str, int] = {}
        while self.pos < len(self.lines) and self.peek().startswith("param "):
            _, name, value = self.next().split()
            out[name] = int(value)
        return out

    def matrix(self, name: str) -> BinMatrix:
        parts = self.next().split()
        if len(parts) != 4 or parts[0] != "matrix" or parts[1] != name:
            raise FormatError(f"expected matrix {name}")
        rows, cols = int(parts[2]), int(parts[3])
        data = []
        for _ in range(rows):
            try:
                data.append(int(self.next(), 16))
            except ValueError as exc:
                raise FormatError("bad hex row") from exc
        return BinMatrix(rows, cols, data)

    def int_list(self, tag: str, name: str) -> list[int]:
        parts = self.next().split()
        if len(parts) < 2 or parts[0] != tag or parts[1] != name:
            raise FormatError(f"expected {tag} {name}")
        try:
            return list(map(int, parts[2:]))
        except ValueError as exc:
            raise FormatError(f"bad integer in {tag} {name}") from exc

    def expect_end(self) -> None:
        if self.next() != "end":
            raise FormatError("missing end line")


# -- McEliece --


def serialize_mceliece_public(pub: mce.McEliecePublicKey) -> str:
    n, k = pub.n, pub.k
    if pub.systematic:
        a = BinMatrix(k, n - k, [r & ((1 << (n - k)) - 1) for r in pub.g_hat.data])
        body = _matrix_lines("a", a)
    else:
        body = _matrix_lines("g_hat", pub.g_hat)
    params = {"n": n, "k": k, "t": pub.t, "systematic": int(pub.systematic)}
    return _text("mceliece public", params, body)


def _parse_mceliece_public(p: _Parser) -> mce.McEliecePublicKey:
    params = p.params()
    n, k, t = params["n"], params["k"], params["t"]
    # a block carries k message bits
    if k < 1:
        raise FormatError(f"param k {k} is below 1")
    # a t-error-correcting code has distance 2t + 1 <= n - k + 1 (Singleton)
    if not 1 <= t <= (n - k) // 2:
        raise FormatError(f"param t {t} outside [1, {(n - k) // 2}]")
    systematic = bool(params.get("systematic", 0))
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
    p.expect_end()
    return mce.McEliecePublicKey(g_hat, t, systematic)


def serialize_mceliece_private(kp: mce.McElieceKeyPair) -> str:
    code = kp.code
    if not isinstance(code, GoppaCode):
        raise FormatError("only Goppa-backed private keys can be serialized")
    params = {
        "n": kp.n,
        "k": kp.k,
        "t": kp.t,
        "m": code.ctx.m,
        "modulus": code.ctx.modulus,
        "systematic": int(kp.systematic),
    }
    body = [
        *_matrix_lines("s", kp.s),
        f"perm p {poly_to_text(kp.p.perm)}",
        f"poly g {poly_to_text(code.g.coeffs)}",
        f"support l {poly_to_text(code.support)}",
    ]
    return _text("mceliece private", params, body)


def _parse_mceliece_private(p: _Parser) -> mce.McElieceKeyPair:
    params = p.params()
    s = p.matrix("s")
    perm = PermMatrix(p.int_list("perm", "p"))
    ctx = FieldCtx(params["m"], params["modulus"])
    g = FieldPoly(p.int_list("poly", "g"), ctx)
    support = p.int_list("support", "l")
    p.expect_end()
    for field, values in (("poly g coefficient", g.coeffs), ("support l element", support)):
        for v in values:
            if not 0 <= v < ctx.order:
                raise FormatError(f"{field} {v} outside [0, {ctx.order})")
    if params["k"] < 1:
        raise FormatError(f"param k {params['k']} is below 1")
    if g.degree != params["t"]:
        raise FormatError(f"param t {params['t']} != deg g {g.degree}")
    try:
        code = GoppaCode(ctx, g, support)
    except DivisionByZero:
        raise FormatError("Goppa polynomial g is not squarefree: gcd(g, g') != 1") from None
    if code.k != params["k"] or code.n != params["n"]:
        raise FormatError("code parameters do not match the stored key")
    try:
        kp = mce.McElieceKeyPair(s, code, perm, code.t, bool(params.get("systematic", 0)))
        kp.s_inv  # formed here so that a singular S fails at load
        return kp
    except SingularMatrix:
        raise FormatError("scramble matrix s is singular") from None


# -- NTRU --


def serialize_ntru_public(pub: NtruPublicKey) -> str:
    return _text("ntru public", asdict(pub.params), [f"poly h {poly_to_text(pub.h)}"])


def _parse_ntru_public(p: _Parser) -> NtruPublicKey:
    params = p.params()
    np_ = NtruParams(params["n"], params["p"], params["q"], params["d_f"])
    h = p.int_list("poly", "h")
    if len(h) != np_.n:
        raise FormatError("public polynomial has wrong degree")
    p.expect_end()
    # every writer centers h mod q; h = 0 would send the message in the clear
    q = np_.q
    if not all(-q < 2 * c <= q for c in h):
        raise FormatError(f"public polynomial h is not centered mod {q}")
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


def _parse_ntru_private(p: _Parser) -> NtruKeyPair:
    params = p.params()
    np_ = NtruParams(params["n"], params["p"], params["q"], params["d_f"])
    f = p.int_list("poly", "f")
    f_p_inv = p.int_list("poly", "f_p_inv")
    h = p.int_list("poly", "h")
    p.expect_end()
    if not len(f) == len(f_p_inv) == len(h) == np_.n:
        raise FormatError("private polynomials have wrong degree")
    kp = NtruKeyPair(
        public=NtruPublicKey(np_, tuple(h)), f=tuple(f), f_p_inv=tuple(f_p_inv)
    )
    # the checks multiply the operands decrypt keeps with the key
    f_packed, f_p_inv_packed = kp.operands
    if conv_mul(f_packed, f_p_inv_packed, np_.p) != [1] + [0] * (np_.n - 1):
        raise FormatError("f * f_p_inv is not 1 mod p")
    # g = f * h mod q is ternary for every key keygen writes; an h taken
    # from another key's file gives a g of full-size residues
    if ternary_shape(conv_mul(f_packed, h, np_.q)) is None:
        raise FormatError("f * h is not ternary mod q")
    return kp


# -- ciphertext files --


@dataclass(frozen=True)
class CiphertextFile:
    scheme: str
    hash: str
    blocks: list


def mceliece_params_hash(n: int, k: int, t: int) -> str:
    return params_hash("mceliece", {"n": n, "k": k, "t": t})


def ntru_params_hash(params: NtruParams) -> str:
    return params_hash("ntru", asdict(params))


def serialize_ciphertext_mceliece(
    pub: mce.McEliecePublicKey, blocks: list[BinVector]
) -> str:
    body = [
        f"hash {mceliece_params_hash(pub.n, pub.k, pub.t)}",
        *(f"block {_hex_row(b.bits, b.n)}" for b in blocks),
    ]
    return _text("mceliece ciphertext", {"blocks": len(blocks), "n": pub.n}, body)


def serialize_ciphertext_ntru(params: NtruParams, blocks: list[list[int]]) -> str:
    body = [f"hash {ntru_params_hash(params)}", *(f"block {poly_to_text(b)}" for b in blocks)]
    return _text("ntru ciphertext", {"blocks": len(blocks), "n": params.n}, body)


def _parse_ciphertext(p: _Parser, scheme: str) -> CiphertextFile:
    params = p.params()
    nblocks = params["blocks"]
    # the 10* padding fills at least one block
    if nblocks < 1:
        raise FormatError(f"param blocks {nblocks} is below 1")
    n = params["n"]
    parts = p.next().split()
    if len(parts) != 2 or parts[0] != "hash":
        raise FormatError("expected hash line")
    digest = parts[1]
    blocks = []
    for _ in range(nblocks):
        tokens = p.next().split()
        if not tokens or tokens[0] != "block":
            raise FormatError("expected block line")
        if scheme == "mceliece":
            if len(tokens) != 2:
                raise FormatError("bad mceliece block")
            blocks.append(BinVector(n, int(tokens[1], 16)))
        else:
            coeffs = list(map(int, tokens[1:]))
            if len(coeffs) != n:
                raise FormatError("bad ntru block length")
            blocks.append(coeffs)
    p.expect_end()
    return CiphertextFile(scheme=scheme, hash=digest, blocks=blocks)


# -- top-level load --


def parse_file(text: str):
    """Parse any pqlab file; returns (scheme, kind, object)."""
    p = _Parser(text)
    scheme, kind = p.expect_magic()
    try:
        if scheme == "mceliece" and kind == "public":
            return scheme, kind, _parse_mceliece_public(p)
        if scheme == "mceliece" and kind == "private":
            return scheme, kind, _parse_mceliece_private(p)
        if scheme == "ntru" and kind == "public":
            return scheme, kind, _parse_ntru_public(p)
        if scheme == "ntru" and kind == "private":
            return scheme, kind, _parse_ntru_private(p)
        if kind == "ciphertext" and scheme in ("mceliece", "ntru"):
            return scheme, kind, _parse_ciphertext(p, scheme)
    except FormatError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed {scheme} {kind} file: {exc}") from exc
    raise FormatError(f"unknown file type {scheme!r} {kind!r}")


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

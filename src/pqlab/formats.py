"""Versioned text formats for key files and ciphertext files.

Every file starts with the magic line "PQLAB1 <scheme> <kind>".  Bodies are
"param <name> <int>" lines followed by typed payload sections: matrices as
hex-packed rows (bit j of the row integer is column j), polynomials and
permutations as space-separated integers, and a closing "end" line.
Serialization is canonical, so identical inputs give byte-identical files;
ciphertexts carry a hash of the scheme parameters that decryption checks
before touching any block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import mceliece as mce
from .convring import conv_mul
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
            return [int(tok) for tok in parts[2:]]
        except ValueError as exc:
            raise FormatError(f"bad integer in {tag} {name}") from exc

    def expect_end(self) -> None:
        if self.next() != "end":
            raise FormatError("missing end line")


# -- McEliece --


def serialize_mceliece_public(pub: mce.McEliecePublicKey) -> str:
    lines = [
        f"{MAGIC} mceliece public",
        f"param n {pub.n}",
        f"param k {pub.k}",
        f"param t {pub.t}",
        f"param systematic {int(pub.systematic)}",
    ]
    if pub.systematic:
        k, n = pub.k, pub.n
        a = BinMatrix(
            k, n - k, [r & ((1 << (n - k)) - 1) for r in pub.g_hat.data]
        )
        lines.extend(_matrix_lines("a", a))
    else:
        lines.extend(_matrix_lines("g_hat", pub.g_hat))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_mceliece_public(p: _Parser) -> mce.McEliecePublicKey:
    params = p.params()
    n, k, t = params["n"], params["k"], params["t"]
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
    lines = [
        f"{MAGIC} mceliece private",
        f"param n {kp.n}",
        f"param k {kp.k}",
        f"param t {kp.t}",
        f"param m {code.ctx.m}",
        f"param modulus {code.ctx.modulus}",
        f"param systematic {int(kp.systematic)}",
    ]
    lines.extend(_matrix_lines("s", kp.s))
    lines.append("perm p " + " ".join(str(i) for i in kp.p.perm))
    lines.append("poly g " + " ".join(str(c) for c in code.g.coeffs))
    lines.append("support l " + " ".join(str(a) for a in code.support))
    lines.append("end")
    return "\n".join(lines) + "\n"


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
    if g.degree != params["t"]:
        raise FormatError(f"param t {params['t']} != deg g {g.degree}")
    try:
        code = GoppaCode(ctx, g, support)
    except DivisionByZero:
        raise FormatError("Goppa polynomial g is not squarefree: gcd(g, g') != 1") from None
    if code.k != params["k"] or code.n != params["n"]:
        raise FormatError("code parameters do not match the stored key")
    try:
        return mce.McElieceKeyPair(s, code, perm, code.t, bool(params.get("systematic", 0)))
    except SingularMatrix:
        raise FormatError("scramble matrix s is singular") from None


# -- NTRU --


def _ntru_param_lines(params: NtruParams) -> list[str]:
    return [
        f"param n {params.n}",
        f"param p {params.p}",
        f"param q {params.q}",
        f"param d_f {params.d_f}",
    ]


def serialize_ntru_public(pub: NtruPublicKey) -> str:
    lines = [f"{MAGIC} ntru public"]
    lines.extend(_ntru_param_lines(pub.params))
    lines.append("poly h " + " ".join(str(c) for c in pub.h))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_ntru_public(p: _Parser) -> NtruPublicKey:
    params = p.params()
    np_ = NtruParams(params["n"], params["p"], params["q"], params["d_f"])
    h = p.int_list("poly", "h")
    if len(h) != np_.n:
        raise FormatError("public polynomial has wrong degree")
    p.expect_end()
    return NtruPublicKey(np_, tuple(h))


def serialize_ntru_private(kp: NtruKeyPair) -> str:
    lines = [f"{MAGIC} ntru private"]
    lines.extend(_ntru_param_lines(kp.params))
    lines.append("poly f " + " ".join(str(c) for c in kp.f))
    lines.append("poly f_p_inv " + " ".join(str(c) for c in kp.f_p_inv))
    lines.append("poly h " + " ".join(str(c) for c in kp.public.h))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_ntru_private(p: _Parser) -> NtruKeyPair:
    params = p.params()
    np_ = NtruParams(params["n"], params["p"], params["q"], params["d_f"])
    f = p.int_list("poly", "f")
    f_p_inv = p.int_list("poly", "f_p_inv")
    h = p.int_list("poly", "h")
    p.expect_end()
    if not len(f) == len(f_p_inv) == len(h) == np_.n:
        raise FormatError("private polynomials have wrong degree")
    if conv_mul(f, f_p_inv, np_.p) != [1] + [0] * (np_.n - 1):
        raise FormatError("f * f_p_inv is not 1 mod p")
    return NtruKeyPair(
        public=NtruPublicKey(np_, tuple(h)), f=tuple(f), f_p_inv=tuple(f_p_inv)
    )


# -- ciphertext files --


@dataclass(frozen=True)
class CiphertextFile:
    scheme: str
    hash: str
    blocks: list


def mceliece_params_hash(n: int, k: int, t: int) -> str:
    return params_hash("mceliece", {"n": n, "k": k, "t": t})


def ntru_params_hash(params: NtruParams) -> str:
    return params_hash(
        "ntru", {"n": params.n, "p": params.p, "q": params.q, "d_f": params.d_f}
    )


def serialize_ciphertext_mceliece(
    pub: mce.McEliecePublicKey, blocks: list[BinVector]
) -> str:
    lines = [
        f"{MAGIC} mceliece ciphertext",
        f"param blocks {len(blocks)}",
        f"param n {pub.n}",
        f"hash {mceliece_params_hash(pub.n, pub.k, pub.t)}",
    ]
    lines.extend("block " + _hex_row(b.bits, b.n) for b in blocks)
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_ciphertext_ntru(params: NtruParams, blocks: list[list[int]]) -> str:
    lines = [
        f"{MAGIC} ntru ciphertext",
        f"param blocks {len(blocks)}",
        f"param n {params.n}",
        f"hash {ntru_params_hash(params)}",
    ]
    lines.extend("block " + " ".join(str(c) for c in b) for b in blocks)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_ciphertext(p: _Parser, scheme: str) -> CiphertextFile:
    params = p.params()
    nblocks = params["blocks"]
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
            coeffs = [int(tok) for tok in tokens[1:]]
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


def load_file(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_file(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not a text key file") from exc

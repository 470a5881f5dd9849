"""Command-line front end.

Subcommands:
  keygen   --scheme {mceliece,ntru} [--preset NAME | --params CSV] [--seed N]
           [--out DIR] [--systematic]
  encrypt  --pub FILE --in FILE --out FILE [--seed N]
  decrypt  --priv FILE --in FILE --out FILE
  demo paper-example --scheme {mceliece,ntru}
  demo attack --scheme ntru --n N --q Q --seeds K [--d-f D] [--p P]
  info     --params PRESET

Exit codes: 0 success, 1 usage error or replay mismatch, 2 format/parse
error, 3 cryptographic failure.  The env var PQLAB_SEED overrides --seed;
the effective seed is printed on the diagnostic stream by every run that
draws from it, once its inputs are valid, so any run can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import secrets
import sys
from dataclasses import asdict

from . import analysis, convring, formats, kat, mceliece, ntru
from .errors import (
    DecodingFailure,
    FormatError,
    MessageRangeError,
    NotInvertible,
    PqlabError,
    SamplingExhausted,
    UnknownParams,
)
from .f2linalg import BinMatrix, BinVector
from .gf2m import MODULI
from .goppa import bruteforce_decode
from .ntru import NtruParams


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the documented code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seeded_rng(explicit: int | None) -> random.Random:
    env = os.environ.get("PQLAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UnknownParams(f"PQLAB_SEED must be an integer, got {env!r}")
    elif explicit is not None:
        seed = explicit
    else:
        seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return random.Random(seed)


def _int_csv(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise UnknownParams(f"--params for {what} needs {count} integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UnknownParams("--params must be comma-separated integers") from None


def _params(cls, *values):
    """cls(*values) for NtruParams or McElieceParams; a set the class
    rejects is a usage error."""
    try:
        return cls(*values)
    except ValueError as exc:
        scheme = cls.__name__.removesuffix("Params").lower()
        raise UnknownParams(f"invalid {scheme} parameters: {exc}") from None


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UnknownParams(f"cannot write {path}: {exc.strerror}") from None


# -- keygen --


def _cmd_keygen(args) -> int:
    if args.preset and args.params:
        raise UnknownParams("--preset and --params are mutually exclusive")
    if args.systematic and args.scheme != "mceliece":
        raise UnknownParams("--systematic applies to mceliece keys only")
    # the seed is read and printed once the request is known to be valid
    if args.scheme == "mceliece":
        if args.params:
            m, t = _int_csv(args.params, 2, "mceliece (m,t)")
            # m names the field, and guards 2**m; at the full support n = 2^m,
            # t = 1 puts the root of g on the support
            if m not in MODULI or t < 2:
                raise UnknownParams(f"mceliece needs 2 <= m <= 13 and t >= 2, got m={m}, t={t}")
            params = _params(mceliece.McElieceParams, 2**m, 2**m - m * t, t)
        else:
            params = mceliece.preset(args.preset or "toy")
        kp = mceliece.keygen(params, _seeded_rng(args.seed), systematic=args.systematic)
        files = {
            "key.mcpub": formats.serialize_mceliece_public(kp.public),
            "key.mcpriv": formats.serialize_mceliece_private(kp),
        }
    else:
        if args.params:
            params = _params(NtruParams, *_int_csv(args.params, 4, "ntru (n,p,q,d_f)"))
            ntru.check_byte_encoding(params)
        else:
            params = ntru.preset(args.preset or "toy11")
        kp = ntru.keygen(params, _seeded_rng(args.seed))
        files = {
            "key.ntpub": formats.serialize_ntru_public(kp.public),
            "key.ntpriv": formats.serialize_ntru_private(kp),
        }
    # only a valid request creates the output directory
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UnknownParams(f"cannot write {args.out}: {exc.strerror}") from None
    for name, text in files.items():
        path = os.path.join(args.out, name)
        _write(path, text.encode("ascii"))
        print(f"wrote {path}", file=sys.stderr)
    return 0


# -- encrypt / decrypt --


def _cmd_encrypt(args) -> int:
    scheme, kind, key = formats.load_file(args.pub)
    if kind != "public":
        raise FormatError(f"{args.pub} is a {scheme} {kind} file, not a public key")
    data = formats.read_bytes(args.infile)
    rng = _seeded_rng(args.seed)
    if scheme == "mceliece":
        blocks = mceliece.encrypt_long(key, data, rng)
        text = formats.serialize_ciphertext_mceliece(key, blocks)
    else:
        blocks = ntru.encrypt_bytes(key, data, rng)
        text = formats.serialize_ciphertext_ntru(key.params, blocks)
    _write(args.out, text.encode("ascii"))
    return 0


def _cmd_decrypt(args) -> int:
    scheme, kind, key = formats.load_file(args.priv)
    if kind != "private":
        raise FormatError(f"{args.priv} is a {scheme} {kind} file, not a private key")
    ct_scheme, ct_kind, ct = formats.load_file(args.infile)
    if ct_kind != "ciphertext":
        raise FormatError(f"{args.infile} is not a ciphertext file")
    if ct_scheme != scheme:
        raise FormatError(
            f"ciphertext scheme {ct_scheme!r} does not match key scheme {scheme!r}"
        )
    expected = formats.params_hash(scheme, asdict(key.params))
    n = key.params.n
    if ct.hash != expected:
        raise FormatError(
            f"params-hash mismatch: key expects {expected}, ciphertext has {ct.hash}"
        )
    if any(len(block) != n for block in ct.blocks):
        raise FormatError(f"ciphertext block length differs from the key's n = {n}")
    if scheme == "mceliece":
        data = mceliece.decrypt_long(key, ct.blocks)
    else:
        # every NTRU writer centers the coefficients mod q
        q = key.params.q
        if not all(convring.centered(b, q) for b in ct.blocks):
            raise FormatError(f"ciphertext coefficient outside (-q/2, q/2] for q = {q}")
        data = ntru.decrypt_bytes(key, ct.blocks)
    _write(args.out, data)
    return 0


# -- demos --


def _fmt_bits(v: BinVector) -> str:
    return "".join(str(b) for b in v.to_bits())


def _fmt_mat(m: BinMatrix) -> str:
    return "\n".join("  " + _fmt_bits(m.row(i)) for i in range(m.rows))


class _Replay:
    """Print name/value lines, compare against stored reference values, and
    remember whether everything matched."""

    def __init__(self):
        self.ok = True

    def given(self, name: str, value: str) -> None:
        print(f"{name} =\n{value}" if "\n" in value else f"{name} = {value}")

    def check(self, name: str, computed, reference, fmt, canon=None) -> None:
        # canon maps both sides to one representative (e.g. centered mod q)
        if canon is None:
            match = computed == reference
        else:
            match = canon(computed) == canon(reference)
        tail = "ok" if match else f"MISMATCH (stored reference: {fmt(reference)})"
        value = fmt(computed)
        self.given(name, f"{value}\n  [{tail}]" if "\n" in value else f"{value}  [{tail}]")
        if not match:
            self.ok = False

    def verdict(self) -> int:
        if not self.ok:
            print("replay finished with mismatches", file=sys.stderr)
        return 0 if self.ok else 1


def _demo_mceliece() -> int:
    r = _Replay()
    kp = mceliece.from_components(kat.MCE_S, kat.MCE_G, kat.MCE_P, kat.MCE_T)
    r.given("G", _fmt_mat(kat.MCE_G))
    r.given("S", _fmt_mat(kat.MCE_S))
    r.given("P columns", " ".join(str(c) for c in kat.MCE_P_COLS))
    r.check("G_hat = S.G.P", kp.public.g_hat, kat.MCE_G_HAT, _fmt_mat)
    r.given("m", _fmt_bits(kat.MCE_MESSAGE))
    r.given("e", _fmt_bits(kat.MCE_ERROR))
    c = mceliece.encrypt(kp.public, kat.MCE_MESSAGE, e=kat.MCE_ERROR)
    r.check("c = m.G_hat + e", c, kat.MCE_C, _fmt_bits)
    c_hat = kat.MCE_P.apply_vec_inverse(c)
    r.check("c_hat = c.P^-1", c_hat, kat.MCE_C_HAT, _fmt_bits)
    codeword, _ = bruteforce_decode(kp.code, c_hat, kat.MCE_T)
    v = kp.code.message_of(codeword)
    r.check("v (decoded message)", v, kat.MCE_V, _fmt_bits)
    m = mceliece.decrypt(kp, c)
    r.check("m = v.S^-1", m, kat.MCE_MESSAGE, _fmt_bits)
    return r.verdict()


def _demo_ntru() -> int:
    r = _Replay()
    params = ntru.preset("toy11")
    fmt = convring.poly_to_text
    # stored references keep the published digit choices; equality is judged
    # after centering both sides, which identifies 31 with -10 mod 41
    mod_q = lambda v: convring.center_mod(list(v), params.q)
    mod_p = lambda v: convring.center_mod(list(v), params.p)
    r.given("f", fmt(kat.NTRU_F))
    r.given("g", fmt(kat.NTRU_G_POLY))
    kp = ntru.keypair_from_values(params, kat.NTRU_F, kat.NTRU_G_POLY)
    r.check("f_p^-1", list(kp.f_p_inv), kat.NTRU_F_P_INV, fmt, canon=mod_p)
    f_q_inv = convring.invert_mod(kat.NTRU_F, params.q)
    r.check("f_q^-1", f_q_inv, kat.NTRU_F_Q_INV, fmt, canon=mod_q)
    r.check("h = f_q^-1 * g mod q", list(kp.public.h), kat.NTRU_H, fmt, canon=mod_q)
    r.given("m", fmt(kat.NTRU_M))
    r.given("r", fmt(kat.NTRU_R))
    c = ntru.encrypt(kp.public, kat.NTRU_M, r=kat.NTRU_R)
    r.check("c = p*(r*h) + m mod q", c, kat.NTRU_C, fmt, canon=mod_q)
    a, m = ntru.decrypt_with_intermediate(kp, c)
    r.check("a = center(f*c mod q)", a, kat.NTRU_A, fmt, canon=mod_q)
    r.check("m = center(f_p^-1 * a mod p)", m, kat.NTRU_M, fmt, canon=mod_p)
    return r.verdict()


def _cmd_demo_example(args) -> int:
    if args.scheme == "mceliece":
        return _demo_mceliece()
    return _demo_ntru()


def _cmd_demo_attack(args) -> int:
    params = _params(NtruParams, args.n, args.p, args.q, args.d_f)
    if args.seeds < 1:
        raise UnknownParams(f"--seeds must be at least 1, got {args.seeds}")
    report = analysis.run_attack_trials(params, list(range(args.seeds)))
    for line in report.csv_rows():
        print(line)
    print(report.summary())
    print(f"wall time: {report.wall_time:.2f} s", file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    for line in analysis.security_summary(args.params):
        print(line)
    return 0


# -- parser / dispatch --


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand names
    its handler, which main looks up in this module at call time."""
    parser = _Parser(prog="pqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--scheme", choices=["mceliece", "ntru"], required=True)
    kg.add_argument("--preset", help="named parameter set")
    kg.add_argument("--params", help="custom parameters: m,t (mceliece) or n,p,q,d_f (ntru)")
    kg.add_argument("--seed", type=int)
    kg.add_argument("--out", default=".", help="output directory")
    kg.add_argument(
        "--systematic", action="store_true",
        help="mceliece only: public matrix in [A | I] form",
    )
    kg.set_defaults(func="_cmd_keygen")

    en = sub.add_parser("encrypt", help="encrypt a file with a public key")
    en.add_argument("--pub", required=True)
    en.add_argument("--in", dest="infile", required=True)
    en.add_argument("--out", required=True)
    en.add_argument("--seed", type=int)
    en.set_defaults(func="_cmd_encrypt")

    de = sub.add_parser("decrypt", help="decrypt a file with a private key")
    de.add_argument("--priv", required=True)
    de.add_argument("--in", dest="infile", required=True)
    de.add_argument("--out", required=True)
    de.set_defaults(func="_cmd_decrypt")

    demo = sub.add_parser("demo", help="worked-example replays and attack demos")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    ex = demo_sub.add_parser(
        "paper-example",
        help="replay the published worked example, checking every intermediate",
    )
    ex.add_argument("--scheme", choices=["mceliece", "ntru"], required=True)
    ex.set_defaults(func="_cmd_demo_example")
    at = demo_sub.add_parser("attack", help="LLL key-recovery demo on toy parameters")
    at.add_argument("--scheme", choices=["ntru"], required=True)
    at.add_argument("--n", type=int, required=True)
    at.add_argument("--q", type=int, required=True)
    at.add_argument("--seeds", type=int, required=True, help="number of trial seeds (0..k-1)")
    at.add_argument("--d-f", dest="d_f", type=int, default=2)
    at.add_argument("--p", type=int, default=3)
    at.set_defaults(func="_cmd_demo_attack")

    info = sub.add_parser("info", help="print the security summary for a preset")
    info.add_argument("--params", required=True, metavar="PRESET")
    info.set_defaults(func="_cmd_info")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return globals()[args.func](args)
    except FormatError as exc:
        print(f"pqlab: format error: {exc}", file=sys.stderr)
        return 2
    except (DecodingFailure, NotInvertible, SamplingExhausted, MessageRangeError) as exc:
        print(f"pqlab: crypto failure: {exc}", file=sys.stderr)
        return 3
    except UnknownParams as exc:
        print(f"pqlab: {exc}", file=sys.stderr)
        return 1
    except PqlabError as exc:
        print(f"pqlab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The McEliece public-key cryptosystem over binary Goppa codes.

Key generation hides a decodable code G behind an invertible scramble S and
a column permutation P: the public matrix is G_hat = S x G x P.  Encryption
adds a secret weight-t error to m . G_hat; decryption unwinds P, decodes the
error e, and solves m . G_hat = c + e.  Includes the key-size and
work-factor calculators for the standard parameter sets and block encryption
for byte streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import f2linalg, goppa
from .errors import (
    DecodingFailure,
    DimensionError,
    RankError,
    SamplingExhausted,
    SingularMatrix,
    UnknownParams,
)
from .f2linalg import BinMatrix, BinVector, PermMatrix, RowSolver
from .gf2m import FieldCtx, random_irreducible
from .goppa import GoppaCode, LinearCode
from .packing import pack, unpack


@dataclass(frozen=True)
class McElieceParams:
    n: int
    k: int
    t: int

    def __post_init__(self):
        if self.n <= 0 or self.k <= 0 or self.t <= 0:
            raise ValueError("parameters must be positive")
        if self.k > self.n:
            raise ValueError("k cannot exceed n")

    @property
    def m(self) -> int:
        """Field degree: the smallest m with n <= 2^m."""
        return (self.n - 1).bit_length()


# Named parameter sets: two desk-scale codes for demos and tests, the classic
# original proposal, the revision that restored its security margin, and the
# 128-bit post-quantum set.  k = n - m*t throughout.
PRESETS = {
    "toy": McElieceParams(16, 8, 2),
    "demo": McElieceParams(32, 17, 3),
    "legacy": McElieceParams(1024, 524, 50),
    "revised": McElieceParams(2048, 1751, 27),
    "pq128": McElieceParams(6960, 5413, 119),  # hours of keygen at this size
}


@dataclass(frozen=True)
class McEliecePublicKey:
    g_hat: BinMatrix
    t: int
    systematic: bool = False

    @property
    def n(self) -> int:
        return self.g_hat.cols

    @property
    def k(self) -> int:
        return self.g_hat.rows


@dataclass(frozen=True)
class McElieceKeyPair:
    public: McEliecePublicKey
    s: BinMatrix
    code: GoppaCode | LinearCode
    p: PermMatrix
    # solves m . G_hat = y: the whole of unscrambling, built once per key
    solver: RowSolver = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.public.n

    @property
    def k(self) -> int:
        return self.public.k

    @property
    def t(self) -> int:
        return self.public.t


def keygen(
    m: int,
    t: int,
    rng: random.Random,
    n: int | None = None,
    systematic: bool = False,
    max_tries: int = 100,
) -> McElieceKeyPair:
    """Generate a key pair over a fresh Goppa code with parameters (m, t).

    n defaults to the full support 2^m; smaller n uses the first n field
    elements.  With systematic=True, S is chosen as the inverse of the last
    k columns of G x P so the public matrix ends in an identity block and
    stores as k x (n-k) bits.
    """
    ctx = FieldCtx(m)
    if n is None:
        n = ctx.order
    if not t * m < n <= ctx.order:
        raise DimensionError(f"need m*t < n <= 2^m, got n={n}")
    g = random_irreducible(ctx, t, rng)
    code = GoppaCode(ctx, g, range(n))
    k = code.k
    if systematic:
        for _ in range(max_tries):
            p = f2linalg.random_permutation(n, rng)
            gp = p.apply_mat(code.generator)
            tail = BinMatrix(k, k, [r >> (n - k) for r in gp.data])
            try:
                s = f2linalg.invert(tail)
            except SingularMatrix:
                continue
            break
        else:
            raise SamplingExhausted("no permutation gave an invertible tail block")
    else:
        s = f2linalg.random_invertible(k, rng)
        p = f2linalg.random_permutation(n, rng)
    return assemble(s, code, p, t, systematic)


def assemble(
    s: BinMatrix, code: GoppaCode | LinearCode, p: PermMatrix, t: int, systematic=False
) -> McElieceKeyPair:
    """Key pair with G_hat = S x G x P; RankError if S is singular."""
    g_hat = p.apply_mat(f2linalg.mat_mul(s, code.generator))
    public = McEliecePublicKey(g_hat, t, systematic)
    return McElieceKeyPair(public, s, code, p, RowSolver(g_hat))


def from_components(
    s: BinMatrix, generator: BinMatrix, p: PermMatrix, t: int
) -> McElieceKeyPair:
    """Assemble a key pair from explicit (S, G, P) with G treated as an
    opaque linear code (decoding falls back to the exhaustive oracle)."""
    return assemble(s, LinearCode(generator), p, t)


def encrypt(
    pub: McEliecePublicKey,
    message: BinVector,
    e: BinVector | None = None,
    rng: random.Random | None = None,
) -> BinVector:
    """c = m . G_hat + e with weight(e) = t (e sampled when not supplied)."""
    if message.n != pub.k:
        raise DimensionError(f"message length {message.n} != k {pub.k}")
    if e is None:
        if rng is None:
            raise ValueError("need either an explicit error vector or an rng")
        e = f2linalg.random_weight_vector(pub.n, pub.t, rng)
    elif e.n != pub.n:
        raise DimensionError(f"error length {e.n} != n {pub.n}")
    return f2linalg.vec_mat_mul(message, pub.g_hat) + e


def decrypt(kp: McElieceKeyPair, c: BinVector) -> BinVector:
    """Unwind P, decode the error e, solve m . G_hat = c + e.  The solve is
    the re-encryption check: a misdecode leaves c + e outside the row space."""
    if c.n != kp.n:
        raise DimensionError(f"ciphertext length {c.n} != n {kp.n}")
    c_hat = kp.p.apply_vec_inverse(c)
    if isinstance(kp.code, GoppaCode):
        _, e_hat = goppa.patterson_decode(kp.code, c_hat)
    else:
        _, e_hat = goppa.bruteforce_decode(kp.code, c_hat, kp.t)
    if e_hat.weight() <= kp.t:
        try:
            return kp.solver.solve(c + kp.p.apply_vec(e_hat))
        except RankError:
            pass
    raise DecodingFailure("re-encryption check failed")


# -- byte-stream block encryption --


def _flip(block: int, k: int) -> int:
    """Reverse a k-bit block: the packer holds the first stream bit at the
    top, a message vector holds it at bit 0."""
    return int(format(block, f"0{k}b")[::-1], 2)


def encrypt_long(
    pub: McEliecePublicKey, data: bytes, rng: random.Random
) -> list[BinVector]:
    """Split a byte stream into k-bit blocks (10* padded) and encrypt each
    with a fresh error vector."""
    k = pub.k
    return [
        encrypt(pub, BinVector(k, _flip(block, k)), rng=rng)
        for block in pack(data, k)
    ]


def decrypt_long(kp: McElieceKeyPair, blocks: list[BinVector]) -> bytes:
    k = kp.k
    return unpack([_flip(decrypt(kp, c).bits, k) for c in blocks], k)


# -- calculators --


def key_size_bits(params: McElieceParams, systematic: bool = False) -> int:
    """Public-key storage: k*n bits, or k*(n-k) in systematic form."""
    if systematic:
        return params.k * (params.n - params.k)
    return params.k * params.n


def work_factor_log2(params: McElieceParams) -> tuple[int, int]:
    """log2 work of the two generic attacks: codeword search 2^k and
    coset-leader search 2^(n-k)."""
    return params.k, params.n - params.k


def preset(name: str) -> McElieceParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownParams(
            f"unknown mceliece preset {name!r}; choices: {', '.join(PRESETS)}"
        ) from None

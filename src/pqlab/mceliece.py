"""The McEliece public-key cryptosystem over binary Goppa codes.

Key generation hides a decodable code G behind an invertible scramble S and
a column permutation P: the private key is (S, g, L, P), and the public
matrix G_hat = S x (G x P) is derived from it: the null-space pass of H
leaves G by columns, so G x P is those columns moved by P and transposed
once.  Keygen eliminates H once and draws g with a root test ahead of
Ben-Or (see gf2m).  Encryption adds a secret weight-t error to m . G_hat;
decryption unwinds P, decodes the error, reads v = m . S off the codeword
and solves it for m through one `RowSolver` of S per key pair, never at keygen.
Systematic keygen redraws P while the tail block it inverts is singular
(`f2linalg.invert` raises RankError, as the solver does for a singular S).
Includes the key-size and work-factor calculators and block encryption for
byte streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import f2linalg, goppa
from .errors import (
    DecodingFailure,
    DimensionError,
    RankError,
    SamplingExhausted,
    UnknownParams,
)
from .f2linalg import BinMatrix, BinVector, PermMatrix
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
    # seed 0: keygen 5.7 s at 81.5 MiB peak RSS, key load and decrypt 1.2-1.6 s
    # at 54 MiB (2-core Xeon, CPython 3.11)
    "pq128": McElieceParams(6960, 5413, 119),
}

# Permutations drawn before systematic keygen gives up on an invertible tail
SYSTEMATIC_TRIES = 100


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
    """The private key (S, code, P) and t; S must be an invertible k x k
    and P a permutation of the code's n positions."""

    s: BinMatrix
    code: GoppaCode | LinearCode
    p: PermMatrix
    t: int
    systematic: bool = False

    def __post_init__(self):
        if (self.s.rows, self.s.cols) != (self.code.k, self.code.k):
            raise DimensionError(f"scramble matrix must be {self.code.k} x {self.code.k}")
        if self.p.n != self.code.n:
            raise DimensionError(f"permutation must have length {self.code.n}")

    @cached_property
    def s_solver(self) -> f2linalg.RowSolver:
        """Solves m . S = v: one forward pass of S per key pair, on first use."""
        return f2linalg.RowSolver(self.s)

    @cached_property
    def public(self) -> McEliecePublicKey:
        """G_hat = S x (G x P), formed on first use only: G x P is the
        code's generator columns moved by P and transposed once."""
        g_p = self.p.apply_columns(self.code.generator_columns, self.k)
        g_hat = f2linalg.mat_mul(self.s, g_p)
        return McEliecePublicKey(g_hat, self.t, self.systematic)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k


def keygen(
    m: int,
    t: int,
    rng: random.Random,
    n: int | None = None,
    systematic: bool = False,
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
    # the public key needs G's columns: formed before S is drawn, S is not
    # alive at the elimination's peak (2 MiB of pq128 keygen's peak RSS),
    # and the code reads k and its free columns off them
    columns = code.generator_columns
    k = code.k
    if systematic:
        for _ in range(SYSTEMATIC_TRIES):
            p = f2linalg.random_permutation(n, rng)
            tail = BinMatrix(k, k, f2linalg.transpose([columns[i] for i in p._inv[n - k :]], k))
            try:
                s = f2linalg.invert(tail)
            except RankError:
                continue
            break
        else:
            raise SamplingExhausted("no permutation gave an invertible tail block")
    else:
        s = f2linalg.random_invertible(k, rng)
        p = f2linalg.random_permutation(n, rng)
    return McElieceKeyPair(s, code, p, t, systematic)


def from_components(
    s: BinMatrix, generator: BinMatrix, p: PermMatrix, t: int
) -> McElieceKeyPair:
    """Key pair from explicit (S, G, P) with G treated as an opaque linear
    code (decoding falls back to the exhaustive oracle)."""
    return McElieceKeyPair(s, LinearCode(generator), p, t)


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
    """Unwind P, decode e, read v off the codeword c.P^-1 + e, solve m . S = v.
    S is invertible, so message_of's codeword check is the re-encryption check."""
    if c.n != kp.n:
        raise DimensionError(f"ciphertext length {c.n} != n {kp.n}")
    c_hat = kp.p.apply_vec_inverse(c)
    if isinstance(kp.code, GoppaCode):
        _, e_hat = goppa.patterson_decode(kp.code, c_hat)
    else:
        _, e_hat = goppa.bruteforce_decode(kp.code, c_hat, kp.t)
    if e_hat.weight() <= kp.t:
        try:
            return kp.s_solver.solve(kp.code.message_of(c_hat + e_hat))
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

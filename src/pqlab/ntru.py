"""NTRU encryption in the ring formulation.

Keys: ternary f (invertible mod p and mod q) and ternary g give the public
h = f_q^-1 * g mod q; the private key keeps (f, f_p^-1) and discards g.
Encryption blinds the message with p*r*h; decryption multiplies by f,
centers mod q (the step everything hinges on), then unwinds f mod p.
decryption_identity_check evaluates the exact integer condition under which
decryption is guaranteed to recover the message.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import convring
from .errors import (
    DimensionError,
    MessageRangeError,
    NotInvertible,
    SamplingExhausted,
    UnknownParams,
)
from .convring import center, center_mod, conv_mul, invert_mod, sample_ternary
from .packing import pack, unpack


@dataclass(frozen=True)
class NtruParams:
    n: int
    p: int
    q: int
    d_f: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ring degree too small")
        if convring.prime_power(self.p) is None:
            raise ValueError("p must be a prime power >= 2")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        if self.p >= self.q:
            raise ValueError("p must be smaller than q")
        q_pe = convring.prime_power(self.q)
        if q_pe is None or not (q_pe[1] == 1 or q_pe[0] == 2):
            raise ValueError("q must be prime or a power of two")
        if 2 * self.d_f + 1 > self.n:
            raise ValueError("ternary shape does not fit the ring degree")

    @property
    def shape(self) -> tuple[int, int]:
        """Ternary shape (d_f + 1 ones, d_f minus-ones) for f, g and r."""
        return self.d_f + 1, self.d_f


PRESETS = {
    "toy11": NtruParams(11, 3, 41, 2),
    "attack7": NtruParams(7, 3, 41, 2),
    "rec443": NtruParams(443, 3, 2048, 147),  # recommended size; d_f is a choice
}


@dataclass(frozen=True)
class NtruPublicKey:
    params: NtruParams
    h: tuple[int, ...]  # centered mod q


@dataclass(frozen=True)
class NtruKeyPair:
    public: NtruPublicKey
    f: tuple[int, ...]
    f_p_inv: tuple[int, ...]  # representatives in [0, p)

    @property
    def params(self) -> NtruParams:
        return self.public.params


# Draws of f before keygen gives up; lattice.lattice_keygen shares the budget
KEYGEN_TRIES = 100


def keygen(params: NtruParams, rng: random.Random) -> NtruKeyPair:
    """Sample ternary f until invertible mod p and mod q, sample ternary g,
    publish h = f_q^-1 * g mod q."""
    n = params.n
    d_plus, d_minus = params.shape
    for _ in range(KEYGEN_TRIES):
        f = sample_ternary(n, d_plus, d_minus, rng)
        try:
            f_p_inv = invert_mod(f, params.p)
            f_q_inv = invert_mod(f, params.q)
        except NotInvertible:
            continue
        g = sample_ternary(n, d_plus, d_minus, rng)
        h = conv_mul(f_q_inv, g, params.q)
        return NtruKeyPair(
            public=NtruPublicKey(params, tuple(h)),
            f=tuple(f),
            f_p_inv=tuple(f_p_inv),
        )
    raise SamplingExhausted(f"no invertible f in {KEYGEN_TRIES} draws")


def keypair_from_values(
    params: NtruParams, f: list[int], g: list[int]
) -> NtruKeyPair:
    """Key pair from explicit f, g (used by replays and tests)."""
    f_p_inv = invert_mod(f, params.p)
    f_q_inv = invert_mod(f, params.q)
    h = conv_mul(f_q_inv, g, params.q)
    return NtruKeyPair(
        public=NtruPublicKey(params, tuple(h)), f=tuple(f), f_p_inv=tuple(f_p_inv)
    )


def encrypt(
    pub: NtruPublicKey,
    m: list[int],
    r: list[int] | None = None,
    rng: random.Random | None = None,
) -> list[int]:
    """c = p*(r * h) + m, centered mod q."""
    params = pub.params
    if len(m) != params.n:
        raise DimensionError(f"message degree {len(m)} != N {params.n}")
    p = params.p
    for c in m:
        if not -p < 2 * c <= p:
            raise MessageRangeError(f"message coefficient {c} not centered mod {p}")
    if r is None:
        if rng is None:
            raise ValueError("need either an explicit blinding r or an rng")
        r = sample_ternary(params.n, *params.shape, rng)
    elif len(r) != params.n:
        raise DimensionError(f"blinding degree {len(r)} != N {params.n}")
    rh = conv_mul(r, list(pub.h), params.q)
    return center_mod(
        [params.p * a + b for a, b in zip(rh, m)], params.q
    )


def decrypt(kp: NtruKeyPair, c: list[int]) -> list[int]:
    """a = center(f * c mod q), then m = center(f_p^-1 * a mod p).

    Wrap failures (possible at toy q) are not detectable at this layer;
    callers that know (r, m) can consult decryption_identity_check.
    """
    return decrypt_with_intermediate(kp, c)[1]


def decrypt_with_intermediate(
    kp: NtruKeyPair, c: list[int]
) -> tuple[list[int], list[int]]:
    """(a, m) with a the centered mod-q product f * c (replay/demo use)."""
    params = kp.params
    if len(c) != params.n:
        raise DimensionError(f"ciphertext degree {len(c)} != N {params.n}")
    a = conv_mul(list(kp.f), c, params.q)
    return a, conv_mul(list(kp.f_p_inv), a, params.p)


def decryption_identity_check(
    f: list[int], g: list[int], r: list[int], m: list[int], params: NtruParams
) -> bool:
    """True iff every coefficient of p*(r*g) + f*m over the integers lies in
    (-q/2, q/2], exactly when centering f*c mod q strips the q-multiples
    and decryption is guaranteed correct."""
    rg = conv_mul(r, g)
    fm = conv_mul(f, m)
    q = params.q
    for a, b in zip(rg, fm):
        v = params.p * a + b
        if not (-q < 2 * v <= q):
            return False
    return True


# -- byte-stream encryption --


def block_bytes(n: int) -> int:
    """Largest B with 256^B <= 3^N: each B-byte block fits in N base-3 digits."""
    b = 0
    cap = 3**n
    while 256 ** (b + 1) <= cap:
        b += 1
    return b


def _bytes_to_blocks(data: bytes, n: int) -> list[list[int]]:
    blocks = []
    for value in pack(data, 8 * block_bytes(n)):
        # plain base-3 digits, each centered mod 3 (2 becomes -1); this is a
        # bijection on [0, 3^N), unlike balanced ternary whose range is smaller
        digits = []
        for _ in range(n):
            value, d = divmod(value, 3)
            digits.append(center(d, 3))
        blocks.append(digits)
    return blocks


def _blocks_to_bytes(blocks: list[list[int]], n: int) -> bytes:
    width = 8 * block_bytes(n)
    values = []
    for digits in blocks:
        value = 0
        for d in reversed(digits):
            value = value * 3 + (d % 3)
        if value >> width:
            raise MessageRangeError("decrypted block out of byte range")
        values.append(value)
    return unpack(values, width)


def encrypt_bytes(
    pub: NtruPublicKey, data: bytes, rng: random.Random
) -> list[list[int]]:
    """Encrypt a byte stream as a sequence of ring ciphertexts, fresh r per
    block.  Requires p = 3 (ternary digit alphabet)."""
    if pub.params.p != 3:
        raise UnknownParams("byte encoding is defined for p = 3 only")
    return [encrypt(pub, m, rng=rng) for m in _bytes_to_blocks(data, pub.params.n)]


def decrypt_bytes(kp: NtruKeyPair, blocks: list[list[int]]) -> bytes:
    if kp.params.p != 3:
        raise UnknownParams("byte encoding is defined for p = 3 only")
    return _blocks_to_bytes([decrypt(kp, c) for c in blocks], kp.params.n)


def preset(name: str) -> NtruParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownParams(
            f"unknown ntru preset {name!r}; choices: {', '.join(PRESETS)}"
        ) from None

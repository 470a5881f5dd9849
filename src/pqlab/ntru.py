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
import struct
from dataclasses import dataclass
from functools import cached_property

from . import convring
from .errors import (
    DimensionError,
    MessageRangeError,
    NotInvertible,
    SamplingExhausted,
    UnknownParams,
)
from .convring import Operand, conv_mul, invert_mod, sample_ternary
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
        if not 0 < 2 * self.d_f + 1 <= self.n:
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

    @cached_property
    def ph(self) -> Operand:
        """p*h mod q, packed once per key: the per-key factor of encrypt."""
        p, q = self.params.p, self.params.q
        return Operand([p * c % q for c in self.h])


@dataclass(frozen=True)
class NtruKeyPair:
    public: NtruPublicKey
    f: tuple[int, ...]
    f_p_inv: tuple[int, ...]  # representatives in [0, p)

    @property
    def params(self) -> NtruParams:
        return self.public.params

    @cached_property
    def operands(self) -> tuple[Operand, Operand]:
        """f and f_p^-1, packed once per key: the per-key factors of decrypt."""
        return Operand(self.f), Operand(self.f_p_inv)


# Draws of f before keygen gives up; lattice.lattice_keygen shares the budget
KEYGEN_TRIES = 100


def _keypair(
    params: NtruParams, f: list[int], f_p_inv: list[int], f_q_inv: list[int], g: list[int]
) -> NtruKeyPair:
    """Private (f, f_p^-1) with the public h = f_q^-1 * g mod q."""
    h = conv_mul(f_q_inv, g, params.q)
    return NtruKeyPair(NtruPublicKey(params, tuple(h)), tuple(f), tuple(f_p_inv))


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
        return _keypair(params, f, f_p_inv, f_q_inv, sample_ternary(n, d_plus, d_minus, rng))
    raise SamplingExhausted(f"no invertible f in {KEYGEN_TRIES} draws")


def keypair_from_values(
    params: NtruParams, f: list[int], g: list[int]
) -> NtruKeyPair:
    """Key pair from explicit f, g (used by replays and tests)."""
    return _keypair(params, f, invert_mod(f, params.p), invert_mod(f, params.q), g)


def encrypt(
    pub: NtruPublicKey,
    m: list[int],
    r: list[int] | None = None,
    rng: random.Random | None = None,
) -> list[int]:
    """c = p*(r * h) + m, centered mod q: one product r * (p*h mod q) with
    m added into its slots, then one centering pass."""
    params = pub.params
    if len(m) != params.n:
        raise DimensionError(f"message degree {len(m)} != N {params.n}")
    p, q = params.p, params.q
    if not convring.centered(m, p):
        bad = next(c for c in m if not convring.centered([c], p))
        raise MessageRangeError(f"message coefficient {bad} not centered mod {p}")
    if r is None:
        if rng is None:
            raise ValueError("need either an explicit blinding r or an rng")
        r = Operand(sample_ternary(params.n, *params.shape, rng), bounds=(-1, 1))
    elif len(r) != params.n:
        raise DimensionError(f"blinding degree {len(r)} != N {params.n}")
    return conv_mul(r, pub.ph, q, Operand(m, bounds=(-((p - 1) // 2), p // 2)))


def decrypt(kp: NtruKeyPair, c: list[int]) -> list[int]:
    """a = center(f * c mod q), then m = center(f_p^-1 * a mod p).

    `convring.lift` reduces f * c mod q and a mod p in the packed slots and
    hands a to the f_p^-1 product with no list between.  Wrap failures
    (possible at toy q) are not detectable at this layer; callers that
    know (r, m) can consult decryption_identity_check.
    """
    params = kp.params
    if len(c) != params.n:
        raise DimensionError(f"ciphertext degree {len(c)} != N {params.n}")
    f, f_p_inv = kp.operands
    return conv_mul(f_p_inv, convring.lift(f, Operand(c), params.q, params.p), params.p)


def decrypt_with_intermediate(
    kp: NtruKeyPair, c: list[int]
) -> tuple[list[int], list[int]]:
    """(a, m): m as decrypt gives it, with a the centered mod-q product
    f * c that decrypt reduces mod p in passing (replay/demo use)."""
    m = decrypt(kp, c)
    return conv_mul(kp.f, c, kp.params.q), m


def decryption_identity_check(
    f: list[int], g: list[int], r: list[int], m: list[int], params: NtruParams
) -> bool:
    """True iff every coefficient of p*(r*g) + f*m over the integers lies in
    (-q/2, q/2], exactly when centering f*c mod q strips the q-multiples
    and decryption is guaranteed correct."""
    p = params.p
    return convring.centered([p * a + b for a, b in zip(conv_mul(r, g), conv_mul(f, m))], params.q)


# -- byte-stream encryption --


def block_bytes(n: int) -> int:
    """Largest B with 256^B <= 3^N: each B-byte block fits in N base-3 digits."""
    # 256^B <= 3^N exactly when 8B <= floor(log2 3^N)
    return ((3**n).bit_length() - 1) // 8


# Block digits are plain base-3 digits, least significant first, each
# centered mod 3 (2 becomes -1): a bijection on [0, 3^N), unlike balanced
# ternary, whose range is smaller.  _DIGITS5[v] holds the five digits of
# v < 3^5, so a block takes one divmod per five digits.
_DIGITS5 = [tuple((v // 3**i + 1) % 3 - 1 for i in range(5)) for v in range(243)]
# the decrypted digits -1, 0, 1 as signed bytes to base-3 characters
_DIGIT_CHARS = bytes.maketrans(b"\xff\x00\x01", b"201")


def _bytes_to_blocks(data: bytes, n: int) -> list[list[int]]:
    blocks = []
    for value in pack(data, 8 * block_bytes(n)):
        digits = []
        for _ in range(-(-n // 5)):
            value, d = divmod(value, 243)
            digits += _DIGITS5[d]
        del digits[n:]
        blocks.append(digits)
    return blocks


def _blocks_to_bytes(blocks: list[list[int]], n: int) -> bytes:
    width = 8 * block_bytes(n)
    values = []
    for digits in blocks:
        text = struct.pack(f"{n}b", *digits)[::-1].translate(_DIGIT_CHARS)
        value = int(text, 3)
        if value >> width:
            raise MessageRangeError("decrypted block out of byte range")
        values.append(value)
    return unpack(values, width)


def check_byte_encoding(params: NtruParams) -> None:
    """Bytes go in blocks of N ternary digits: p = 3, and 3^N >= 256."""
    if params.p != 3:
        raise UnknownParams(f"byte encoding is defined for p = 3 only, got p={params.p}")
    if not block_bytes(params.n):
        raise UnknownParams(f"byte encoding needs N >= 6 (3^N >= 256), got N={params.n}")


def encrypt_bytes(
    pub: NtruPublicKey, data: bytes, rng: random.Random
) -> list[list[int]]:
    """Encrypt a byte stream as a sequence of ring ciphertexts, fresh r per
    block.  Requires p = 3 (ternary digit alphabet) and N >= 6."""
    check_byte_encoding(pub.params)
    return [encrypt(pub, m, rng=rng) for m in _bytes_to_blocks(data, pub.params.n)]


def decrypt_bytes(kp: NtruKeyPair, blocks: list[list[int]]) -> bytes:
    check_byte_encoding(kp.params)
    return _blocks_to_bytes([decrypt(kp, c) for c in blocks], kp.params.n)


def preset(name: str) -> NtruParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownParams(
            f"unknown ntru preset {name!r}; choices: {', '.join(PRESETS)}"
        ) from None

"""Desk-scale analysis tooling: exhaustive code oracles, counting formulas,
security calculators, and the toy lattice attack on small NTRU keys.

Everything here is meant to make claims checkable at toy sizes.  The
exhaustive oracles weigh all 2^k codewords by bit-slicing: the messages of
the last min(k, 14) generator rows are the lanes of one int, one column of
their codewords is one lane mask, and a ripple counter over the n columns
gives every lane's weight at once; an outer loop runs over the messages of
the other rows.  Lanes and outer loop both go in bit-0-first message order
(message bits compared from bit 0 up, a 0 first), so the first lane to
reach a weight is the first message at it: that is the tie-break of
`nearest_codeword_bruteforce` and the witness of `min_weight_bruteforce`.
The attack runs LLL on the public lattice basis and tests whether any
short row works as a decryption key.  Published attack costs for the
full-size parameter sets are echoed as literature values, never
recomputed.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from . import lattice as lattice_mod
from . import mceliece, ntru
from .convring import invert_mod, sample_ternary, ternary_shape
from .errors import DimensionError, NotInvertible, UnknownParams
from .f2linalg import BinMatrix, BinVector, _span_table, _xor_rows, transpose
from .lattice import build_public_basis, lll_reduce
from .ntru import NtruParams


# the last min(k, _LANE_BITS) generator rows span the lanes of one int
_LANE_BITS = 14


@functools.cache
def _lane_patterns(h: int) -> tuple[int, ...]:
    """Lane masks over 2^h lanes: pattern i is set in the lanes l with bit
    i of l set, the transpose of the lane numbers."""
    return tuple(transpose(list(range(1 << h)), h))


@functools.lru_cache(maxsize=2)
def _lane_columns(hi: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """(column, flipped column) for the n columns of the lane codewords of
    the rows hi: lane l is the XOR of the rows over the set bits of l.
    Cached, since the oracles are called many times on one generator."""
    full = (1 << (1 << len(hi))) - 1
    patterns = _lane_patterns(len(hi))
    columns = [_xor_rows(patterns, c) for c in transpose(hi, n)]
    return tuple((c, c ^ full) for c in columns)


def _weight_blocks(g: BinMatrix, target: int):
    """Bit-sliced Hamming distances from `target` of all 2^k codewords.

    The last h = min(k, _LANE_BITS) rows, reversed, span the 2^h lanes of
    one int: lane l is the XOR of those reversed rows over the set bits of
    l, so it holds the message whose last h bits, bit-reversed, are l, and
    column j of the lane codewords is one mask.  The first k - h rows give
    the outer words a, from a span table over the same rows reversed, so
    the table runs in bit-reversed message order too.  Per a, the columns
    where a ^ target has a 1 are flipped, a ripple counter adds the n
    columns into weight bit-slices, and splitting on the slices, highest
    first, leaves one lane mask per weight.

    Yields (a, hi, masks) per outer word, masks[w] holding the lanes at
    distance w.  Blocks come in bit-0-first message order, and so do the
    lanes within a block, so the lowest lane of the first block reaching a
    distance is the first message at it.
    """
    k, n = g.rows, g.cols
    h = min(k, _LANE_BITS)
    full = (1 << (1 << h)) - 1
    hi = tuple(g.data[k - h :][::-1])
    pairs = _lane_columns(hi, n)
    fmt = f"0{n}b"
    for a in _span_table(g.data[: k - h][::-1]):
        slices: list[int] = []
        for (plain, flipped), bit in zip(pairs, format(a ^ target, fmt)[::-1]):
            x = flipped if bit == "1" else plain
            for i, s in enumerate(slices):
                if not x:
                    break
                slices[i] = s ^ x
                x &= s
            else:
                if x:
                    slices.append(x)
        masks = [full]
        for s in reversed(slices):
            ns = ~s
            masks = [y for m in masks for y in (m & ns, m & s)]
        yield a, hi, masks


def _first_nearest(g: BinMatrix, target: int, least: int) -> tuple[int, int]:
    """(distance, codeword) of the first codeword in bit-0-first message
    order at the least distance >= `least` from `target`; the distance is
    g.cols + 1 and the codeword 0 when none is that far."""
    best_d, best = g.cols + 1, 0
    for a, hi, masks in _weight_blocks(g, target):
        for d in range(least, min(best_d, len(masks))):
            lanes = masks[d]
            if lanes:
                best_d = d
                best = a ^ _xor_rows(hi, (lanes & -lanes).bit_length() - 1)
                break
    return best_d, best


def _check_dimension(g: BinMatrix) -> None:
    if g.rows > 24:
        raise DimensionError("exhaustive enumeration limited to k <= 24")


def min_weight_bruteforce(g: BinMatrix) -> tuple[int, BinVector]:
    """Exact minimum nonzero codeword weight and a witness, over all 2^k
    codewords (k <= 24) by bit-sliced weight counting.  The witness is the
    first codeword of that weight in bit-0-first message order; a code with
    no nonzero codeword gives (n + 1, zero vector)."""
    _check_dimension(g)
    w, word = _first_nearest(g, 0, 1)
    return w, BinVector(g.cols, word)


def weight_spectrum(g: BinMatrix) -> dict[int, int]:
    """Codeword weight histogram over all 2^k messages (k <= 24), counted
    from the bit-sliced per-weight lane masks, in ascending weight order."""
    _check_dimension(g)
    counts = [0] * (g.cols + 1)
    for _, _, masks in _weight_blocks(g, 0):
        for w, lanes in enumerate(masks):
            if lanes:  # masks past weight n are empty
                counts[w] += lanes.bit_count()
    return {w: c for w, c in enumerate(counts) if c}


def nearest_codeword_bruteforce(g: BinMatrix, w: BinVector) -> BinVector:
    """Codeword at minimum Hamming distance from w, over all 2^k codewords
    (k <= 24) by bit-sliced distance counting; ties resolved toward the
    lexicographically smallest message (bit 0 first)."""
    _check_dimension(g)
    if w.n != g.cols:
        raise DimensionError("target length mismatch")
    return BinVector(g.cols, _first_nearest(g, w.bits, 0)[1])


def count_bases(k: int) -> int:
    """Number of unordered bases of GF(2)^k: prod(2^k - 2^i) / k!."""
    if not 1 <= k <= 16:
        raise DimensionError("exact counting supported for 1 <= k <= 16")
    prod = 1
    for i in range(k):
        prod *= (1 << k) - (1 << i)
    return prod // math.factorial(k)


# -- toy NTRU lattice attack --


@dataclass
class AttackCandidate:
    f: list[int]
    g: list[int]
    row_norm_sq: int
    decrypts: bool


@dataclass
class AttackReport:
    scheme: str
    params: NtruParams
    seeds: list[int]
    successes: int
    wall_time: float
    details: list[dict] = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        """Deterministic machine-readable rows (no timing: byte-stable
        across runs with the same seeds)."""
        out = ["seed,candidates,success,recovered_f"]
        for d in self.details:
            rec = "" if d["recovered_f"] is None else " ".join(map(str, d["recovered_f"]))
            out.append(f"{d['seed']},{d['candidates']},{int(d['success'])},{rec}")
        return out

    def summary(self) -> str:
        return (
            f"{self.scheme}: {self.successes}/{len(self.seeds)} keys recovered "
            f"(N={self.params.n}, q={self.params.q}, d_f={self.params.d_f})"
        )


def _try_candidate_key(
    f_cand: list[int], pub: ntru.NtruPublicKey, rng: random.Random
) -> bool:
    """Does f_cand work as a private key for pub?  Test: encrypt a random
    shaped message with the real public key and decrypt with the candidate."""
    params = pub.params
    try:
        f_p_inv = invert_mod(f_cand, params.p)
    except NotInvertible:
        return False
    m = sample_ternary(params.n, *params.shape, rng)
    r = sample_ternary(params.n, *params.shape, rng)
    c = ntru.encrypt(pub, m, r=r)
    candidate = ntru.NtruKeyPair(pub, tuple(f_cand), tuple(f_p_inv))
    return ntru.decrypt(candidate, c) == m


# largest ring degree N the attack demo accepts
ATTACK_MAX_N = 12


def ntru_lll_attack(
    h: Sequence[int], params: NtruParams, rng: random.Random, seed_label: int = 0
) -> AttackReport:
    """Reduce the public basis with LLL and scan the output rows for ternary
    (a, b) pairs that function as private keys.

    Every candidate satisfies a * h = b (mod q) automatically (rows of a
    lattice basis stay in the lattice under LLL), and the check is asserted
    anyway.  Success means the candidate actually decrypts a test
    ciphertext; rotations x^i * f and negations count, as they are valid
    keys in their own right.
    """
    n = params.n
    if n > ATTACK_MAX_N:
        raise DimensionError(f"attack demo limited to N <= {ATTACK_MAX_N}")
    start = time.monotonic()
    basis = build_public_basis(h, params.q)
    reduced = lll_reduce(basis)
    membership = lattice_mod.ConvModLattice(tuple(h), params.q)
    pub = ntru.NtruPublicKey(params, tuple(h))  # packs p*h once per attack
    candidates: list[AttackCandidate] = []
    success = False
    recovered = None
    for row in reduced:
        a, b = row[:n], row[n:]
        if ternary_shape(a) is None or ternary_shape(b) is None:
            continue
        if all(c == 0 for c in a):
            continue
        if not membership.contains(a, b):
            raise AssertionError("reduced row left the lattice")
        works = _try_candidate_key(a, pub, rng)
        candidates.append(
            AttackCandidate(
                f=a, g=b, row_norm_sq=sum(c * c for c in row), decrypts=works
            )
        )
        if works and not success:
            success = True
            recovered = a
    wall = time.monotonic() - start
    return AttackReport(
        scheme="ntru-lll",
        params=params,
        seeds=[seed_label],
        successes=1 if success else 0,
        wall_time=wall,
        details=[
            {
                "seed": seed_label,
                "candidates": len(candidates),
                "success": success,
                "recovered_f": recovered,
                "candidate_list": candidates,
            }
        ],
    )


def run_attack_trials(params: NtruParams, seeds: list[int]) -> AttackReport:
    """Fresh key per seed, one attack per key, merged into one report in
    seed order."""
    start = time.monotonic()
    details = []
    successes = 0
    for seed in seeds:
        rng = random.Random(seed)
        kp = ntru.keygen(params, rng)
        rep = ntru_lll_attack(kp.public.h, params, rng, seed_label=seed)
        d = rep.details[0]
        details.append(d)
        if d["success"]:
            successes += 1
    wall = time.monotonic() - start
    return AttackReport(
        scheme="ntru-lll",
        params=params,
        seeds=list(seeds),
        successes=successes,
        wall_time=wall,
        details=details,
    )


# -- security calculators --


_NOTES = {
    "legacy": (
        "original parameter proposal",
        "broken in about 2^60.55 bit operations by improved "
        "information-set decoding (literature value, not recomputed)",
    ),
    "revised": (
        "revision restoring 80-bit security against that attack "
        "(literature value)",
    ),
    "pq128": ("sized for 128-bit post-quantum security (literature value)",),
    "rec443": (
        "recommended for 128-bit post-quantum security (literature value)",
        "alternate ring degrees 587 and 743 target higher margins",
    ),
}


def security_summary(name: str) -> list[str]:
    """The `pqlab info` lines for a preset of either scheme: its parameters,
    for McEliece the computed key sizes and work factors, then the
    published security levels as notes."""
    if name in mceliece.PRESETS:
        p = mceliece.PRESETS[name]
        cw, cl = mceliece.work_factor_log2(p)
        lines = [
            "scheme: mceliece",
            f"preset: {name}",
            f"params: [n,k,t] = [{p.n},{p.k},{p.t}]",
            f"public key bits: {mceliece.key_size_bits(p)}",
            f"public key bits (systematic): {mceliece.key_size_bits(p, systematic=True)}",
            f"work factor log2: codeword search {cw}, coset leaders {cl}",
        ]
    elif name in ntru.PRESETS:
        p = ntru.PRESETS[name]
        lines = ["scheme: ntru", f"preset: {name}", f"params: [N,p,q] = [{p.n},{p.p},{p.q}]"]
    else:
        known = sorted(mceliece.PRESETS) + sorted(ntru.PRESETS)
        raise UnknownParams(f"unknown preset {name!r}; choices: {', '.join(known)}")
    return lines + [f"note: {n}" for n in _NOTES.get(name, ())]

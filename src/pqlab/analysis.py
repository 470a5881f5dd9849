"""Desk-scale analysis tooling: exhaustive code oracles, counting formulas,
security calculators, and the toy lattice attack on small NTRU keys.

Everything here is meant to make claims checkable at toy sizes.  The
exhaustive oracles weigh all 2^k codewords by bit-slicing: the messages of
the last min(k, 14) generator rows are the lanes of one int, one column of
their codewords is one lane mask, and a carry-save counter of full adders
over the n columns gives every lane's weight at once, as binary slices; an
outer loop runs over the messages of the other rows.  Each oracle builds
from the slices only the lane masks it reads: the nearest and minimum
weight oracles descend the slices to a block's least distance, and the
spectrum splits them into one mask per weight that occurs.  Lanes and
outer loop both go in bit-0-first message order (message bits compared
from bit 0 up, a 0 first), so the first lane to reach a weight is the first
message at it: that is the tie-break of `nearest_codeword_bruteforce` and
the witness of `min_weight_bruteforce`.
The attack runs LLL on the public lattice basis and tests whether any
short row works as a decryption key.  Its limits, p >= 3 (the test message
is ternary) and N <= ATTACK_MAX_N, are checked here once, before any key is
drawn; a set outside them raises UnknownParams.  Published attack costs for
the full-size parameter sets are echoed as literature values, never
recomputed.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from dataclasses import dataclass
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


def _weight_slices(columns) -> list[int]:
    """Binary weight slices of lane masks: lane l of slice i is bit i of
    the number of columns with lane l set, up to the highest nonzero slice.

    A carry-save counter: at each level i at most two vectors of weight 2^i
    wait, and a third one meets them in a full adder (five operations),
    which leaves their sum bit waiting at level i and sends their carry on
    to level i + 1.  At the end each level adds its waiting vectors to the
    carry from below, which gives slice i.  A lane's count has one binary
    form, so these are the slices any exact counter gives.
    """
    levels: list[list[int]] = []
    for x in columns:
        for waiting in levels:
            if len(waiting) == 1:
                waiting.append(x)
                break
            a, b = waiting
            u = a ^ b
            waiting[:] = (u ^ x,)
            x = (a & b) | (u & x)
        else:
            levels.append([x])
    slices, carry = [], 0
    for waiting in levels:
        a, b = waiting if len(waiting) == 2 else (waiting[0], 0)
        u = a ^ b
        slices.append(u ^ carry)
        carry = (a & b) | (u & carry)
    slices.append(carry)
    while slices and not slices[-1]:
        slices.pop()
    return slices


def _weight_blocks(g: BinMatrix, target: int):
    """Bit-sliced Hamming distances from `target` of all 2^k codewords.

    The last h = min(k, _LANE_BITS) rows, reversed, span the 2^h lanes of
    one int: lane l is the XOR of those reversed rows over the set bits of
    l, so it holds the message whose last h bits, bit-reversed, are l, and
    column j of the lane codewords is one mask.  The first k - h rows give
    the outer words a, from a span table over the same rows reversed, so
    the table runs in bit-reversed message order too.  Per a, the columns
    where a ^ target has a 1 are flipped and `_weight_slices` counts the n
    columns into binary distance slices.

    Yields (a, hi, full, slices) per outer word: full is the mask of all
    2^h lanes and bit i of a lane's distance is its bit in slices[i].
    Blocks come in bit-0-first message order, and so do the lanes within a
    block, so the lowest lane of the first block reaching a distance is the
    first message at it.
    """
    k, n = g.rows, g.cols
    h = min(k, _LANE_BITS)
    full = (1 << (1 << h)) - 1
    hi = tuple(g.data[k - h :][::-1])
    pairs = _lane_columns(hi, n)
    fmt = f"0{n}b"
    for a in _span_table(g.data[: k - h][::-1]):
        slices = _weight_slices(
            flipped if bit == "1" else plain
            for (plain, flipped), bit in zip(pairs, format(a ^ target, fmt)[::-1])
        )
        yield a, hi, full, slices


def _first_nearest(g: BinMatrix, target: int, least: int) -> tuple[int, int]:
    """(distance, codeword) of the first codeword in bit-0-first message
    order at the least distance >= `least` (0 or 1) from `target`; the
    distance is g.cols + 1 and the codeword 0 when none is that far.

    Per block the least distance is read off the slices, highest first: the
    lanes whose next bit is 0 are kept when there are any, and otherwise
    that bit of the distance is 1.  The lanes left are the block's lanes at
    its least distance, and only a block that beats the best so far counts.
    """
    best_d, best = g.cols + 1, 0
    for a, hi, full, slices in _weight_blocks(g, target):
        lanes = functools.reduce(operator.or_, slices, 0) if least else full
        if not lanes:
            continue
        d = 0
        for i in range(len(slices) - 1, -1, -1):
            low = lanes ^ (lanes & slices[i])
            if low:
                lanes = low
            else:
                d |= 1 << i
        if d < best_d:
            best_d = d
            best = a ^ _xor_rows(hi, (lanes & -lanes).bit_length() - 1)
            if d == least:
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
    """Codeword weight histogram over all 2^k messages (k <= 24), in
    ascending weight order.  Per block the lanes are split on the weight
    slices, highest first, into one mask per weight prefix; a prefix whose
    least weight exceeds n, or whose mask is empty, is dropped."""
    _check_dimension(g)
    n = g.cols
    counts = [0] * (n + 1)
    for _, _, full, slices in _weight_blocks(g, 0):
        prefixes = [(0, full)]
        for i in range(len(slices) - 1, -1, -1):
            s, bit = slices[i], 1 << i
            split = []
            for w, lanes in prefixes:
                if w + bit <= n:
                    one = lanes & s
                    if one:
                        split.append((w + bit, one))
                        lanes ^= one
                if lanes:
                    split.append((w, lanes))
            prefixes = split
        for w, lanes in prefixes:
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
    params: NtruParams
    seeds: list[int]
    successes: int
    wall_time: float
    details: list[dict]

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
            f"ntru-lll: {self.successes}/{len(self.seeds)} keys recovered "
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
    c = ntru.encrypt(pub, m, rng=rng)
    candidate = ntru.NtruKeyPair(pub, tuple(f_cand), tuple(f_p_inv))
    return ntru.decrypt(candidate, c) == m


def _report(params: NtruParams, details: list[dict], start: float) -> AttackReport:
    """The report over per-seed details, seeds and successes read off them."""
    seeds = [d["seed"] for d in details]
    successes = sum(d["success"] for d in details)
    return AttackReport(params, seeds, successes, time.monotonic() - start, details)


# largest ring degree N the attack demo accepts
ATTACK_MAX_N = 12


def _check_attack_params(params: NtruParams) -> None:
    """The attack demo's limits, checked before any key is drawn."""
    if params.p < 3:
        raise UnknownParams(
            f"attack trials draw ternary messages, so p must be >= 3, got p={params.p}"
        )
    if params.n > ATTACK_MAX_N:
        raise UnknownParams(f"attack demo limited to N <= {ATTACK_MAX_N}, got N={params.n}")


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
    _check_attack_params(params)
    n = params.n
    start = time.monotonic()
    basis = build_public_basis(h, params.q)
    reduced = lll_reduce(basis)
    membership = lattice_mod.ConvModLattice(tuple(h), params.q)
    pub = ntru.NtruPublicKey(params, tuple(h))  # packs p*h once per attack
    candidates: list[AttackCandidate] = []
    recovered = None
    for row in reduced:
        a, b = row[:n], row[n:]
        if ternary_shape(a) is None or ternary_shape(b) is None:
            continue
        if not membership.contains(a, b):
            raise AssertionError("reduced row left the lattice")
        works = _try_candidate_key(a, pub, rng)
        candidates.append(
            AttackCandidate(
                f=a, g=b, row_norm_sq=sum(c * c for c in row), decrypts=works
            )
        )
        if works and recovered is None:
            recovered = a
    detail = {
        "seed": seed_label,
        "candidates": len(candidates),
        "success": recovered is not None,
        "recovered_f": recovered,
        "candidate_list": candidates,
    }
    return _report(params, [detail], start)


def run_attack_trials(params: NtruParams, seeds: list[int]) -> AttackReport:
    """Fresh key per seed, one attack per key, merged into one report in
    seed order."""
    _check_attack_params(params)
    start = time.monotonic()
    details = []
    for seed in seeds:
        rng = random.Random(seed)
        kp = ntru.keygen(params, rng)
        details += ntru_lll_attack(kp.public.h, params, rng, seed_label=seed).details
    return _report(params, details, start)


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

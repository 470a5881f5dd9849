"""pqlab: a from-scratch lab for two post-quantum cryptosystems.

Implements McEliece over binary Goppa codes (with Patterson decoding) and
NTRU over Z[x]/(x^N - 1), plus the lattice view of NTRU, exact-arithmetic
LLL reduction, brute-force decoding/SVP/CVP oracles for cross-checking, and
desk-scale attack demos.  Everything is pure Python built on exact integer
arithmetic; nothing here is constant-time or hardened, so treat it as an
instrument for study rather than a way to protect data.
"""

from . import analysis, convring, f2linalg, formats, gf2m, goppa, kat, lattice
from . import mceliece, ntru
from .errors import (
    DecodingFailure,
    DimensionError,
    FormatError,
    MessageRangeError,
    NotInvertible,
    PqlabError,
    RankError,
    SamplingExhausted,
    SupportError,
    UnknownParams,
)

__all__ = [
    "analysis",
    "convring",
    "f2linalg",
    "formats",
    "gf2m",
    "goppa",
    "kat",
    "lattice",
    "mceliece",
    "ntru",
    "PqlabError",
    "DimensionError",
    "RankError",
    "SupportError",
    "DecodingFailure",
    "NotInvertible",
    "SamplingExhausted",
    "MessageRangeError",
    "UnknownParams",
    "FormatError",
]

__version__ = "0.1.0"

"""Frozen known-answer vectors for the worked-example replays.

Two fixed reference examples, one per scheme, exercised by `demo
paper-example` and the regression tests.  Values are stored exactly as
published.

Known inconsistency in the McEliece example: the stored C_HAT cannot be
reproduced from C and P; it equals c . P, while the decryption rule (and
the stored V, M_RECOVERED, which do follow from it) requires c . P^-1.  The
replay computes the correct transform and reports the mismatch against the
stored value; everything else in the chain reproduces bit-for-bit.
"""

from __future__ import annotations

from .f2linalg import BinMatrix, BinVector, PermMatrix

# -- McEliece reference example: a [16, 8, 5] code with t = 2 --

MCE_G = BinMatrix.from_rows([
    [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1],
    [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0],
])

MCE_S = BinMatrix.from_rows([
    [0, 0, 1, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [1, 1, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 1, 1, 1, 0],
])

# column j of P is basis vector e_{MCE_P_COLS[j]} (identity with columns
# scrambled); 0-indexed
MCE_P_COLS = [3, 4, 0, 11, 12, 10, 15, 1, 7, 8, 14, 6, 5, 2, 9, 13]
MCE_P = PermMatrix.from_cols(MCE_P_COLS)

MCE_G_HAT = BinMatrix.from_rows([
    [0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1],
    [0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1],
    [1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0],
])

MCE_T = 2
MCE_MESSAGE = BinVector.from_bits([1, 0, 1, 0, 0, 1, 1, 0])
MCE_ERROR = BinVector.from_support(16, [5, 11])
MCE_C = BinVector.from_bits([0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0])
# stored as published; see the module docstring for the inconsistency
MCE_C_HAT = BinVector.from_bits([1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0])
MCE_V = BinVector.from_bits([1, 1, 0, 0, 1, 1, 1, 1])
MCE_MIN_WEIGHT = 5

# -- NTRU reference example: N = 11, p = 3, q = 41 (ntru.preset("toy11")) --

NTRU_F = [1, -1, 0, 0, 0, 1, 1, 0, -1, 1, 0]
NTRU_G_POLY = [-1, 0, 1, 1, 0, 0, -1, 1, 0, 0, 1]
# inverses as published, with representatives in [0, p) and [0, q)
NTRU_F_P_INV = [0, 1, 2, 0, 0, 1, 1, 1, 2, 0, 0]
NTRU_F_Q_INV = [30, 31, 25, 32, 17, 35, 8, 17, 7, 0, 24]
NTRU_H = [31, 4, 11, 15, 40, 6, 11, 0, 1, 1, 4]
NTRU_M = [1, 0, 0, -1, 0, 1, 0, 0, 0, 1, 0]
NTRU_R = [-1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]
NTRU_C = [-7, 3, -19, 19, 6, -1, -3, -19, -14, 16, -17]
NTRU_A = [9, 1, -7, 1, 2, 5, 5, 1, -5, 4, -6]

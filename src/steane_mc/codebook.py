"""Coset algebra of the [7,4,3] Hamming code pair used by the [[7,1,3]] code.

Errors on the 7-qubit data block are 7-bit vectors: a plain int in 0..127
with bit j-1 standing for data qubit j.  The parity-check matrix is fixed so
that column j is the binary expansion of j, which makes Hamming decoding
"syndrome == error position".
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

# Rows of the parity-check matrix H as bit masks (bit j-1 <-> position j).
# Row k has 1s exactly at the positions whose k-th binary digit is set.
H_ROWS = (0b1010101, 0b1100110, 0b1111000)

ALL_ONES = 0b1111111


class ErrorClass(enum.IntEnum):
    """Correctability class of a residual error, ordered by effective weight."""

    TRIVIAL = 0
    CORRECTABLE_W1 = 1
    MISCORRECT_W2 = 2
    LOGICAL = 3


@dataclass(frozen=True)
class ResidualClass:
    x_class: ErrorClass
    z_class: ErrorClass


def _span(generators: tuple[int, ...]) -> frozenset[int]:
    words = {0}
    for g in generators:
        words |= {w ^ g for w in words}
    return frozenset(words)


@dataclass(frozen=True)
class CodeTables:
    """Precomputed word lists and lookup tables for the code pair C_perp < C."""

    cperp_words: frozenset[int]
    c_words: frozenset[int]
    # effective weight, which is also the class index, by the 7-bit error int
    class_lut: np.ndarray


def build_tables() -> CodeTables:
    """Construct the code tables; deterministic and cheap (128 vectors)."""
    cperp = _span(H_ROWS)
    c = _span(H_ROWS + (ALL_ONES,))
    w_eff = np.empty(128, dtype=np.uint8)
    for e in range(128):
        w_eff[e] = min(bin(e ^ u).count("1") for u in cperp)
    return CodeTables(cperp_words=cperp, c_words=c, class_lut=w_eff)


tables = functools.cache(build_tables)  # the tables, built once per process


def syndrome_of(e: int) -> int:
    """The 3-bit C-syndrome of e, bit k from row k of H: the Hamming-decoded
    error position (0 means no error).  Linear over F2."""
    return sum((bin(e & row).count("1") & 1) << k for k, row in enumerate(H_ROWS))


def effective_weight(e: int) -> int:
    """Min weight of e modulo C_perp; always in 0..3."""
    return int(tables().class_lut[e])


def classify(e: int) -> ErrorClass:
    """Correctability class of e, a function of its effective weight only."""
    return ErrorClass(effective_weight(e))


def correction_for(pos: int) -> int:
    """The unique weight<=1 vector with the 3-bit C-syndrome pos."""
    if not 0 <= pos < 8:
        raise ValueError(f"syndrome out of range: {pos}")
    return 0 if pos == 0 else 1 << (pos - 1)


def ideal_recovery(x_residual: int, z_residual: int) -> ResidualClass:
    """Noise-free Hamming correction of both sectors, then classification.

    The corrected vectors always land in C, so each output class is either
    TRIVIAL or LOGICAL; this is the oracle behind "uncorrectable".
    """
    x, z = (classify(v ^ correction_for(syndrome_of(v))) for v in (x_residual, z_residual))
    return ResidualClass(x, z)


def enumerate_by_class() -> dict[ErrorClass, list[int]]:
    """All 128 vectors grouped by class (sizes 8 / 56 / 56 / 8)."""
    groups: dict[ErrorClass, list[int]] = {c: [] for c in ErrorClass}
    for e in range(128):
        groups[classify(e)].append(e)
    return groups

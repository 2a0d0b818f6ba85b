"""Seeded stochastic error-location sampling for the depolarizing model.

Randomness is counter-based: draw t of trial i under master seed s is the
splitmix64 hash of (s, i, t), so any slice of trials can be simulated on
any worker in any order and reproduce bit-identical results.  A channel
with probability exactly 0 consumes no draws.

One 64-bit word decides each error location.  Category thresholds are
integers T(p) = floor(p * 2^64):
  memory / 1q gate / measurement:  z < T(p/3) -> X, < T(2p/3) -> Y, < T(p) -> Z
  two-qubit gate:                  z < T(p) -> pair code 1 + floor(15 u / p)
Pair codes 1..15 encode (control_pauli, target_pauli) base 4 with I=0, X=1,
Y=2, Z=3; code 0 is the no-error case.

Block sampling: a `depolarize_steps(p, n_steps, width)` call covers
n_steps * width consecutive locations (step-major) and returns one packed
width-bit mask column per step, and `cnot_pairs(p, n)` covers n locations;
this only batches draws and leaves each trial's draw sequence unchanged.
The words are hashed in row blocks of about _BLOCK words (256 KB, which
stays in L2 cache): each block is filled with its counter words and the
splitmix64 rounds run on it in place, with one scratch buffer reused by
every round.  Decoding touches only the faults: one `z < T(p)` pass and
one `flatnonzero` find the hit locations, and only the hits are split into
X/Y/Z (or given pair codes) and scattered into zeroed masks.  At the rates
of the threshold sweeps a trial has about 0.3 faults among its 1,508
locations, so the work per location is one hash and one compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO64 = 2**64

_BLOCK = 1 << 15  # uint64 words hashed per row block

# Pauli code (0=I,1=X,2=Y,3=Z) -> does it act on the x / z sector
PAULI_X_BIT = np.array([0, 1, 1, 0], dtype=np.uint8)
PAULI_Z_BIT = np.array([0, 0, 1, 1], dtype=np.uint8)


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer applied to z in place; t is scratch of z's shape."""
    # uint64 multiplication wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        np.right_shift(z, 30, out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, 27, out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, 31, out=t)
        z ^= t
    return z


def _thr(p: float) -> np.uint64:
    return np.uint64(min(int(p * _TWO64), _TWO64 - 1))


def stream_keys(master_seed: int, trial_indices: np.ndarray) -> np.ndarray:
    """Per-trial 64-bit stream keys, a pure function of (seed, index)."""
    with np.errstate(over="ignore"):
        base = np.full(1, master_seed & (_TWO64 - 1), dtype=np.uint64) + _GOLDEN
        base = _mix64(base, np.empty_like(base))[0]
        idx = trial_indices.astype(np.uint64, copy=False)
        keys = base + (idx + np.uint64(1)) * _GOLDEN
        return _mix64(keys, np.empty_like(keys))


def _scatter(m: int, n_steps: int, width: int, flat, code):
    """Packed (x, z) masks, shape (m, n_steps) uint8, holding Pauli code[i]
    (1=X, 2=Y, 3=Z) at flat location index flat[i] of an (m, n_steps * width)
    step-major block.  Two Paulis on one location multiply (XOR)."""
    cell = flat // width
    bit = (flat % width).astype(np.uint8)
    x = np.zeros(m * n_steps, dtype=np.uint8)
    z = np.zeros(m * n_steps, dtype=np.uint8)
    np.bitwise_xor.at(x, cell, PAULI_X_BIT[code] << bit)
    np.bitwise_xor.at(z, cell, PAULI_Z_BIT[code] << bit)
    return x.reshape(m, n_steps), z.reshape(m, n_steps)


@dataclass(frozen=True)
class NoiseParams:
    """Memory error per qubit per step, intrinsic gate error, and their ratio."""

    epsilon: float
    gamma: float
    ratio_C: float = field(default=math.inf)

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of [0,1]: {self.epsilon}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma out of [0,1]: {self.gamma}")
        if math.isinf(self.ratio_C):
            if self.gamma != 0.0:
                raise ValueError("ratio_C = inf requires gamma = 0")
        else:
            if self.ratio_C <= 0:
                raise ValueError(f"ratio_C must be positive: {self.ratio_C}")
            expect = self.epsilon / self.ratio_C
            tol = 1e-12 * max(abs(expect), abs(self.gamma), 1e-300)
            if abs(self.gamma - expect) > tol:
                raise ValueError(
                    f"gamma {self.gamma} inconsistent with epsilon/C = {expect}"
                )

    @classmethod
    def from_ratio(cls, epsilon: float, ratio_C: float) -> "NoiseParams":
        gamma = 0.0 if math.isinf(ratio_C) else epsilon / ratio_C
        return cls(epsilon=epsilon, gamma=gamma, ratio_C=ratio_C)

    @classmethod
    def zero(cls) -> "NoiseParams":
        return cls(0.0, 0.0, math.inf)


class StreamBank:
    """Vectorized per-trial uniform streams for a batch of trial indices.

    Every sampling call advances each covered trial's private draw counter
    by the number of locations, independent of the other trials, so
    rejection loops keep streams aligned across batch shapes and workers.
    """

    def __init__(self, master_seed: int, trial_indices: np.ndarray):
        trial_indices = np.asarray(trial_indices, dtype=np.uint64)
        self.keys = stream_keys(master_seed, trial_indices)
        self.counters = np.zeros(trial_indices.shape, dtype=np.uint64)
        self.size = trial_indices.shape[0]
        self._gold: dict[int, np.ndarray] = {}

    def _gold_offsets(self, n: int) -> np.ndarray:
        ar = self._gold.get(n)
        if ar is None:
            with np.errstate(over="ignore"):
                ar = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
            self._gold[n] = ar
        return ar

    def _raw(self, n: int, idx) -> np.ndarray:
        if idx is None:
            keys, ctr = self.keys, self.counters
        else:
            keys, ctr = self.keys[idx], self.counters[idx]
        gold = self._gold_offsets(n)
        z = np.empty((keys.shape[0], n), dtype=np.uint64)
        rows = max(1, _BLOCK // max(n, 1))
        t = np.empty((min(rows, z.shape[0]), n), dtype=np.uint64)
        with np.errstate(over="ignore"):
            base = keys + ctr * _GOLDEN
            for r in range(0, z.shape[0], rows):
                block = z[r : r + rows]
                np.add(base[r : r + rows, None], gold, out=block)
                _mix64(block, t[: block.shape[0]])
        if idx is None:
            self.counters += np.uint64(n)
        else:
            self.counters[idx] += np.uint64(n)
        return z

    def depolarize_steps(self, p: float, n_steps: int, width: int, idx=None, tag=""):
        """n_steps * width depolarizing locations, packed width bits per step.

        Returns (x, z) of shape (m, n_steps) uint8, or None when p == 0.
        """
        if p <= 0.0:
            return None
        z = self._raw(n_steps * width, idx)
        hit = np.flatnonzero(z < _thr(p))
        v = z.ravel()[hit]
        code = 1 + (v >= _thr(p / 3.0)).astype(np.uint8) + (v >= _thr(2.0 * p / 3.0))
        return _scatter(z.shape[0], n_steps, width, hit, code)

    def cnot_pairs(self, p: float, n: int, idx=None, tag=""):
        """n two-qubit gate locations; (m, n) pair codes 0..15, or None."""
        if p <= 0.0:
            return None
        z = self._raw(n, idx)
        hit = np.flatnonzero(z < _thr(p))
        u = z.ravel()[hit] * 2.0**-64
        out = np.zeros(z.shape, dtype=np.uint8)
        out.ravel()[hit] = 1 + np.minimum((u * (15.0 / p)).astype(np.int64), 14)
        return out


class FaultPlanSource:
    """Noise source that injects planned Paulis at chosen error locations.

    Locations are numbered per trial in draw order (each depolarizing or
    measurement slot is one location, each CNOT one).  Codes are 1..3
    (X,Y,Z) for one-qubit slots and 1..15 pair codes for CNOT slots.  All
    other locations are noise-free; probability arguments are ignored, and
    every call consumes its locations even at p = 0 (matching the
    recording pass used to enumerate them).
    """

    def __init__(self, size: int, slots, codes):
        slots = np.atleast_2d(np.asarray(slots, dtype=np.int64))
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        if slots.shape != codes.shape or slots.shape[0] != size:
            raise ValueError("slots/codes shape mismatch")
        self.size = size
        self.slots = slots
        self.codes = codes
        self.cursor = np.zeros(size, dtype=np.int64)

    def _planned(self, n: int, idx):
        if idx is None:
            cur, slots, codes = self.cursor, self.slots, self.codes
        else:
            cur, slots, codes = self.cursor[idx], self.slots[idx], self.codes[idx]
        rel = slots - cur[:, None]
        hit = (rel >= 0) & (rel < n)
        if idx is None:
            self.cursor += n
        else:
            self.cursor[idx] += n
        rows, cols = np.nonzero(hit)
        return rows, rel[rows, cols], codes[rows, cols], slots.shape[0]

    def depolarize_steps(self, p: float, n_steps: int, width: int, idx=None, tag=""):
        n = n_steps * width
        rows, pos, code, m = self._planned(n, idx)
        return _scatter(m, n_steps, width, rows * n + pos, code)

    def cnot_pairs(self, p: float, n: int, idx=None, tag=""):
        rows, pos, code, m = self._planned(n, idx)
        out = np.zeros((m, n), dtype=np.uint8)
        out[rows, pos] = code
        return out


@dataclass
class LocationRecord:
    slot: int
    n: int
    kind: str  # "pauli1" or "pauli2"
    width: int
    tag: str


class RecordingSource:
    """Dry-run source: counts and tags error locations, injects nothing."""

    def __init__(self, size: int = 1):
        self.size = size
        self.cursor = 0
        self.records: list[LocationRecord] = []

    def depolarize_steps(self, p: float, n_steps: int, width: int, idx=None, tag=""):
        self.records.append(
            LocationRecord(self.cursor, n_steps * width, "pauli1", width, tag)
        )
        self.cursor += n_steps * width
        return None

    def cnot_pairs(self, p: float, n: int, idx=None, tag=""):
        self.records.append(LocationRecord(self.cursor, n, "pauli2", 1, tag))
        self.cursor += n
        return None

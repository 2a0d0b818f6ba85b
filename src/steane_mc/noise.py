"""Seeded stochastic error-location sampling for the depolarizing model.

Error locations fall into classes: a sampler kind (`pauli1`, the memory,
one-qubit gate and measurement locations of `depolarize_steps`; `pauli2`,
the CNOT locations of `cnot_pairs`) together with its probability p.  Every
location of a class faults independently with probability p, so a trial's
faults in one class are sampled by their gaps: the number of fault-free
locations before the next fault is geometric, floor(ln(1-u) / ln(1-p)) for
a uniform u (the rare-error sampling of Stim, Gidney arXiv:2103.02202).
A fault strikes X, Y or Z with probability 1/3 each at a `pauli1`
location, and one of the 15 pair codes with probability 1/15 each at a
`pauli2` location.  Pair codes 1..15 encode (control_pauli, target_pauli)
base 4 with I=0, X=1, Y=2, Z=3; code 0 is the no-error case.

Randomness is counter-based.  Trial i under master seed s has a key (the
splitmix64 hash of (s, i)); class (kind, p) of that trial has a key hashed
from it and (kind, p); fault k of the class takes words 2k (the u of the
gap before it) and 2k+1 (its Pauli or pair code) of the splitmix64 stream
of that key.  So any slice of trials reproduces bit-identically on any
worker in any order, and the faults depend only on how many locations of a
class a trial has consumed, not on how calls split them: one call of
n1 + n2 locations returns what calls of n1 and n2 return.

Each trial keeps, per class, the distance to its next fault.  A call over n
locations compares that distance with n for its rows and walks only the
rows that fault, so it costs O(rows + faults), not O(rows * n).
`StreamBank.faults` returns a call's faults as a sparse (row, offset, code)
list, which the engine's signature kernel reads; `depolarize_steps` and
`cnot_pairs` scatter the same faults into the dense arrays the interpreter
reads (views of step-major arrays, so each step's column is contiguous), and
there a channel with p = 0 consumes no locations.  `fault_free`
reads only the first gaps and tells which trials have no fault among a
given number of locations per class; the engine skips those trials, whose
residual is exactly 0.  Each source's `reached` names the rows with a fault
among their next locations of given classes and moves every other row past
them (for a `StreamBank`, just as a call finding no fault would), so the
interpreter runs an ancilla attempt only where a fault strikes.

`STREAM_VERSION` names this stream in the sweep and stabilize manifests.
Version 1 hashed one word per location and decoded it by thresholds;
version 2 is the gap sampler.  Data rows are byte-identical for any worker
count and batch size within a stream version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STREAM_VERSION = 2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO64 = 2**64
_GAP_MAX = float(2**62)  # "no fault in reach"; keeps every distance inside int64
_KINDS = {"pauli1": 1, "pauli2": 2}

# the nonzero Pauli codes of a one-qubit location (1..3) and of a CNOT (1..15)
N_CODES = {"pauli1": 3, "pauli2": 15}


def pauli_bits(code):
    """(x, z) bits of Pauli code(s) 0=I, 1=X, 2=Y, 3=Z: does it act on the x / z sector."""
    return (code ^ code >> 1) & 1, code >> 1


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


def stream_keys(master_seed: int, trial_indices: np.ndarray) -> np.ndarray:
    """Per-trial 64-bit stream keys, a pure function of (seed, index)."""
    with np.errstate(over="ignore"):
        base = np.full(1, master_seed & (_TWO64 - 1), dtype=np.uint64) + _GOLDEN
        base = _mix64(base, np.empty_like(base))[0]
        idx = trial_indices.astype(np.uint64, copy=False)
        keys = base + (idx + np.uint64(1)) * _GOLDEN
        return _mix64(keys, np.empty_like(keys))


def _words(keys: np.ndarray, j) -> np.ndarray:
    """Word j (an int, or one per key) of each key's splitmix64 stream."""
    with np.errstate(over="ignore"):
        z = keys + (np.asarray(j, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    return _mix64(z, np.empty_like(z))


def _class_keys(keys: np.ndarray, kind: str, p: float) -> np.ndarray:
    """Per-trial keys of location class (kind, p), from the trials' keys."""
    salt = _words(np.float64(p).reshape(1).view(np.uint64), _KINDS[kind])
    k = keys ^ salt
    return _mix64(k, np.empty_like(k))


def _gaps(words: np.ndarray, p: float) -> np.ndarray:
    """Fault-free locations before the next fault, floor(ln(1-u) / ln(1-p)),
    with u = (top 52 bits + 1/2) / 2^52 strictly inside (0, 1).  p = 1 gives
    0; a gap too long to reach (p = 1e-300, say) is capped at _GAP_MAX."""
    u = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.log1p(-np.float64(p))  # -0.0 at p = 1
        g = np.log1p(-u) * inv
    return np.minimum(g, _GAP_MAX).astype(np.int64)


def _below(words: np.ndarray, k: int) -> np.ndarray:
    """Integers in [0, k) from the top 32 bits of each word (bias < k / 2^32)."""
    return (((words >> np.uint64(32)) * np.uint64(k)) >> np.uint64(32)).astype(np.uint8)


def fault_free(master_seed: int, trial_indices, locations: dict) -> np.ndarray:
    """True for each trial whose first n locations of class (kind, p) hold no
    fault, for every (kind, p) -> n in `locations` (each p > 0)."""
    keys = stream_keys(master_seed, np.asarray(trial_indices, dtype=np.uint64))
    ok = np.ones(keys.shape, dtype=bool)
    for (kind, p), n in locations.items():
        ok &= _Class(keys, kind, p).ahead >= n
    return ok


def _scatter(m: int, n_steps: int, width: int, rows, off, code):
    """Packed (x, z) masks, shape (m, n_steps) uint8, holding Pauli code[i]
    (1=X, 2=Y, 3=Z) at location off[i] = step * width + qubit of trial rows[i].
    The masks are views of step-major (n_steps, m) arrays, so a step's column
    is contiguous.  Two Paulis on one location multiply (XOR)."""
    cell = off // width * m + rows
    bit = (off % width).astype(np.uint8)
    x = np.zeros(n_steps * m, dtype=np.uint8)
    z = np.zeros(n_steps * m, dtype=np.uint8)
    xb, zb = pauli_bits(code)
    np.bitwise_xor.at(x, cell, xb << bit)
    np.bitwise_xor.at(z, cell, zb << bit)
    return x.reshape(n_steps, m).T, z.reshape(n_steps, m).T


def _pairs(m: int, n: int, rows, off, code):
    """Pair codes, shape (m, n) uint8, holding code[i] at CNOT location
    off[i] of trial rows[i]: a view of a step-major (n, m) array.  Two pair
    codes on one location multiply (XOR, the Pauli product on each qubit)."""
    out = np.zeros((n, m), dtype=np.uint8)
    np.bitwise_xor.at(out, (off, rows), code)
    return out.T


@dataclass(frozen=True)
class NoiseParams:
    """Memory error per qubit per step and its ratio C = epsilon / gamma to
    the intrinsic gate error gamma; C = inf is the gamma = 0 limit."""

    epsilon: float
    ratio_C: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of [0,1]: {self.epsilon}")
        if not self.ratio_C > 0:  # also rejects nan
            raise ValueError(f"ratio_C must be positive: {self.ratio_C}")
        if self.gamma > 1.0:
            raise ValueError(f"gamma = epsilon / C out of [0,1]: {self.gamma}")

    @property
    def gamma(self) -> float:
        return 0.0 if math.isinf(self.ratio_C) else self.epsilon / self.ratio_C

    @classmethod
    def zero(cls) -> "NoiseParams":
        return cls(0.0)


class _Class:
    """Gap state of one location class (kind, p) for the trials of a bank."""

    def __init__(self, keys: np.ndarray, kind: str, p: float):
        self.key = _class_keys(keys, kind, p)
        self.ordinal = np.zeros(keys.shape, dtype=np.int64)  # faults drawn so far
        self.ahead = _gaps(_words(self.key, 0), p)  # locations before the next fault


class StreamBank:
    """Per-trial fault streams for a batch of trial indices.

    Every sampling call with p > 0 advances each covered trial's `counters`
    (locations consumed) by the number of locations, independent of the
    other trials, so rejection loops keep streams aligned across batch
    shapes and workers.
    """

    def __init__(self, master_seed: int, trial_indices: np.ndarray):
        trial_indices = np.asarray(trial_indices, dtype=np.uint64)
        self.keys = stream_keys(master_seed, trial_indices)
        self.counters = np.zeros(trial_indices.shape, dtype=np.uint64)
        self.size = trial_indices.shape[0]
        self._classes: dict[tuple[str, float], _Class] = {}

    def _class(self, kind: str, p: float) -> _Class:
        c = self._classes.get((kind, p))
        if c is None:
            c = self._classes[(kind, p)] = _Class(self.keys, kind, p)
        return c

    def reached(self, locations: dict, idx=None) -> np.ndarray:
        """The rows (of all trials, or of idx) with a fault among their next
        n locations of some class (kind, p) -> n of `locations`.  Every other
        row skips those locations, advanced as a `faults` call that finds no
        fault advances it; classes with p = 0 consume nothing."""
        live = {c: n for c, n in locations.items() if c[1] > 0 and n}
        rows = np.arange(self.size) if idx is None else idx
        hit = np.zeros(rows.size, dtype=bool)
        for (kind, p), n in live.items():
            hit |= self._class(kind, p).ahead[rows] < n
        skip = rows[~hit]
        for (kind, p), n in live.items():
            self._class(kind, p).ahead[skip] -= n
        self.counters[skip] += np.uint64(sum(live.values()))
        return rows[hit]

    def faults(self, kind: str, p: float, n: int, idx=None):
        """(rows, offsets, codes) of the faults among the next n locations of
        class (kind, p), p > 0, rows counted within idx (None: all trials);
        advances the class and the rows' counters by n.  Codes are 1..3
        (X, Y, Z) for `pauli1` and pair codes 1..15 for `pauli2`; a row's
        offsets strictly increase, so no two faults share a location."""
        c = self._class(kind, p)
        rows = np.flatnonzero((c.ahead if idx is None else c.ahead[idx]) < n)
        at = rows if idx is None else idx[rows]
        found = [(rows[:0], c.ahead[:0], self.keys[:0])]  # typed empties: no fault at all
        while rows.size:
            off, k = c.ahead[at], c.ordinal[at]
            found.append((rows, off, _words(c.key[at], 2 * k + 1)))
            c.ordinal[at] = k + 1
            c.ahead[at] = off + 1 + _gaps(_words(c.key[at], 2 * k + 2), p)
            more = c.ahead[at] < n
            rows, at = rows[more], at[more]
        if idx is None:
            c.ahead -= n
            self.counters += np.uint64(n)
        else:
            c.ahead[idx] -= n
            self.counters[idx] += np.uint64(n)
        rows, off, words = (np.concatenate(a) for a in zip(*found))
        return rows, off, 1 + _below(words, N_CODES[kind])

    def depolarize_steps(self, p: float, n_steps: int, width: int, idx=None, tag=""):
        """n_steps * width depolarizing locations, packed width bits per step.

        Returns (x, z) of shape (m, n_steps) uint8, or None when p == 0.
        """
        if p <= 0.0:
            return None
        n = n_steps * width
        rows, off, code = self.faults("pauli1", p, n, idx)
        return _scatter(self.size if idx is None else len(idx), n_steps, width, rows, off, code)

    def cnot_pairs(self, p: float, n: int, idx=None, tag=""):
        """n two-qubit gate locations; (m, n) pair codes 0..15, or None."""
        if p <= 0.0:
            return None
        rows, off, code = self.faults("pauli2", p, n, idx)
        return _pairs(self.size if idx is None else len(idx), n, rows, off, code)


class FaultPlanSource:
    """Noise source that injects planned Paulis at chosen error locations.

    Locations are numbered per trial in draw order (each depolarizing or
    measurement slot is one location, each CNOT one).  Codes are 1..3
    (X,Y,Z) for one-qubit slots and 1..15 pair codes for CNOT slots (code 0
    plans nothing); a code that does not fit raises ValueError.  All other
    locations are noise-free; probability arguments are ignored, and every
    call consumes its locations even at p = 0 (matching the draw walk that
    numbers them).  Two codes planned at one location multiply (XOR), as two
    faults there would.  A plan row is one trial.  A planned fault at a
    negative slot raises ValueError, and `check_reached` one at a slot past
    the locations its row's trial drew.
    """

    def __init__(self, slots, codes):
        slots = np.atleast_2d(np.asarray(slots, dtype=np.int64))
        codes = np.atleast_2d(np.asarray(codes))
        if slots.shape != codes.shape:
            raise ValueError("slots/codes shape mismatch")
        bad = np.argwhere(~np.isin(codes, np.arange(N_CODES["pauli2"] + 1)))
        if bad.size:
            row, col = bad[0]
            raise ValueError(
                f"fault plan row {row}, slot {slots[row, col]}: code {codes[row, col]} not in 0..15"
            )
        bad = np.argwhere((slots < 0) & (codes != 0))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"fault plan row {row}, slot {slots[row, col]}: a negative slot")
        self.size = slots.shape[0]
        self.slots = slots
        self.codes = codes.astype(np.uint8)
        self.cursor = np.zeros(self.size, dtype=np.int64)

    def _planned(self, n: int, idx, kind: str):
        if idx is None:
            cur, slots, codes = self.cursor, self.slots, self.codes
        else:
            cur, slots, codes = self.cursor[idx], self.slots[idx], self.codes[idx]
        rel = slots - cur[:, None]
        hit = np.flatnonzero(rel.view(np.uint64) < n)  # 0 <= rel < n
        code = codes.ravel()[hit]
        bad = hit[code > N_CODES[kind]]
        if bad.size:  # a pair code at a one-qubit location
            row, col = divmod(int(bad[0]), slots.shape[1])
            row = row if idx is None else int(idx[row])
            raise ValueError(
                f"fault plan row {row}, slot {self.slots[row, col]}: "
                f"code {self.codes[row, col]} does not fit a one-qubit location"
            )
        if idx is None:
            self.cursor += n
        else:
            self.cursor[idx] += n
        return hit // slots.shape[1], rel.ravel()[hit], code, slots.shape[0]

    def reached(self, locations: dict, idx=None) -> np.ndarray:
        """The rows (of all trials, or of idx) with a nonzero code planned
        among their next sum(locations.values()) locations, whatever the
        rates; every other row's cursor skips those locations."""
        n = sum(locations.values())
        sel = slice(None) if idx is None else idx  # a slice reads no copy
        rel = self.slots[sel] - self.cursor[sel, None]
        hit = ((rel.view(np.uint64) < n) & (self.codes[sel] != 0)).any(axis=1)
        self.cursor[sel] += np.where(hit, 0, n)
        return np.flatnonzero(hit) if idx is None else idx[hit]

    def check_reached(self):
        """After a run: raise ValueError for a planned fault at a slot at or
        past its row's final cursor, which the run never drew."""
        bad = np.argwhere((self.slots >= self.cursor[:, None]) & (self.codes != 0))
        if bad.size:
            row, col = bad[0]
            raise ValueError(
                f"fault plan row {row}, slot {self.slots[row, col]}: "
                f"the trial drew only {self.cursor[row]} locations"
            )

    def depolarize_steps(self, p: float, n_steps: int, width: int, idx=None, tag=""):
        rows, off, code, m = self._planned(n_steps * width, idx, "pauli1")
        return _scatter(m, n_steps, width, rows, off, code)

    def cnot_pairs(self, p: float, n: int, idx=None, tag=""):
        rows, off, code, m = self._planned(n, idx, "pauli2")
        return _pairs(m, n, rows, off, code)


@dataclass(frozen=True)
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

    def reached(self, locations: dict, idx=None) -> np.ndarray:
        """Every row: a dry run records each draw."""
        return np.arange(self.size) if idx is None else idx

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

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

The class stream holds a trial's nominal locations, those of one pass with
no ancilla attempt rejected, at fixed positions.  Rerun j >= 1 of ancilla
attempt a (the prep's number in draw order over the whole program) draws
the attempt's locations of each class from its own substream, whose key is
hashed from the class key and (a, j) as a class key is from the trial key
(`StreamBank.rerun`).  So every location, nominal or rerun, faults
independently of the others, and a rejection moves no other location.

Each trial keeps, per class, the distance to its next fault.  A call over n
locations, made for every trial of the bank, compares that distance with n
and walks only the rows that fault, so it costs O(rows + faults), not
O(rows * n).  `StreamBank.faults` returns a call's faults as a sparse (row,
offset, code) list, which the engine's signature kernel reads;
`depolarize_steps` and `cnot_pairs` scatter the same faults into the dense
arrays the interpreter reads (views of step-major arrays, so each step's
column is contiguous), and there a channel with p = 0 consumes no locations.
`FaultPlanSource` has the same three methods over planned faults, for the
interpreter; it checks a whole plan against the program's nominal
locations when it is built, so a run raises nothing about the plan.

A trial has no fault among the first n locations of a class exactly when its
first gap reaches n.  `_gaps` rises with the top 52 bits of the class's first
word, so that is one integer compare: those bits are at least
`screen_threshold(p, n)`, found once by bisection on `_gaps` itself.
`StreamBank.faulting` screens a batch of trials so and returns the bank of
the trials that fault, with their keys, class keys and first words gathered
from the screen, so each trial is hashed once; the engine runs only those,
since a fault-free trial's residual is exactly 0.

`STREAM_VERSION` names this stream in the sweep and stabilize manifests.
Version 1 hashed one word per location and decoded it by thresholds;
version 2 is the gap sampler, with a rerun taking the next locations of the
class stream; version 3 draws reruns from their own substreams.  Data rows
are byte-identical for any worker count and batch size within a stream
version.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

STREAM_VERSION = 3

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN2 = np.uint64(2 * 0x9E3779B97F4A7C15 % 2**64)  # two words on in a stream
_PAIR = np.array([[0], [0x9E3779B97F4A7C15]], dtype=np.uint64)  # a word and the next
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO64 = 2**64
_GAP_MAX = float(2**62)  # "no fault in reach"; keeps every distance inside int64
_TOP = 2**52  # top-52 values of a word: 0 .. _TOP - 1
_STEP_CHECK = 1024  # values each side of a screen threshold checked against _gaps
_KINDS = {"pauli1": 1, "pauli2": 2}

# the nonzero Pauli codes of a one-qubit location (1..3) and of a CNOT (1..15)
N_CODES = {"pauli1": 3, "pauli2": 15}


def pauli_bits(code):
    """(x, z) bits of Pauli code(s) 0=I, 1=X, 2=Y, 3=Z: does it act on the x / z sector."""
    return (code ^ code >> 1) & 1, code >> 1


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer applied to z in place; t is scratch of z's shape.
    uint64 array arithmetic wraps mod 2^64 without a warning."""
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
    base = np.full(1, master_seed & (_TWO64 - 1), dtype=np.uint64) + _GOLDEN
    base = _mix64(base, np.empty_like(base))[0]
    idx = trial_indices.astype(np.uint64, copy=False)
    keys = base + (idx + np.uint64(1)) * _GOLDEN
    return _mix64(keys, np.empty_like(keys))


def _words(keys: np.ndarray, j: int) -> np.ndarray:
    """Word j of each key's splitmix64 stream."""
    z = keys + np.uint64((j + 1) * int(_GOLDEN) % _TWO64)  # a 0-d product would warn as it wraps
    return _mix64(z, np.empty_like(z))


def _rekey(keys: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """Keys hashed from keys and a salt: splitmix64's finalizer of their XOR."""
    k = keys ^ salt
    return _mix64(k, np.empty_like(k))


def _class_keys(keys: np.ndarray, kind: str, p: float) -> np.ndarray:
    """Per-trial keys of location class (kind, p), from the trials' keys."""
    return _rekey(keys, _words(np.float64(p).reshape(1).view(np.uint64), _KINDS[kind]))


def _gaps(words: np.ndarray, p: float) -> np.ndarray:
    """Fault-free locations before the next fault, floor(ln(1-u) / ln(1-p)),
    with u = (top 52 bits + 1/2) / 2^52 strictly inside (0, 1).  p = 1 gives
    0; a gap too long to reach (p = 1e-300, say) is capped at _GAP_MAX."""
    g = (words >> np.uint64(12)).astype(np.float64)
    g *= -(2.0**-52)
    g -= 2.0**-53  # -u, exactly: both steps round nothing
    np.log1p(g, out=g)
    g *= _inverse_log(p)
    return np.minimum(g, _GAP_MAX, out=g).astype(np.int64)


@functools.lru_cache(maxsize=256)
def _inverse_log(p: float) -> float:
    """1 / ln(1 - p): -0.0 at p = 1, and at least -1e290, so that its product
    with ln(1 - u), which lies in [-37, -1e-16], stays finite.  Where the
    bound binds, the gap exceeds _GAP_MAX either way."""
    with np.errstate(divide="ignore", over="ignore"):
        return max(float(1.0 / np.log1p(-np.float64(p))), -1e290)


def _below(words: np.ndarray, k: int) -> np.ndarray:
    """Integers in [0, k) from the top 32 bits of each word (bias < k / 2^32)."""
    return (((words >> np.uint64(32)) * np.uint64(k)) >> np.uint64(32)).astype(np.uint8)


def screen_threshold(p: float, n: int) -> int:
    """The least top-52 value v with `_gaps(v << 12, p) >= n` (_TOP when no
    value has): the first n locations of class p hold no fault exactly when
    the top 52 bits of the class's first word are at least this.  Bisection
    on `_gaps`, which rises with v; raises RuntimeError unless the step is
    clean over the _STEP_CHECK values each side of it."""
    lo, hi = -1, _TOP  # _gaps(lo) < n <= _gaps(hi), reading -1 and _TOP as -inf, +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _gaps(np.array([mid << 12], dtype=np.uint64), p)[0] >= n:
            hi = mid
        else:
            lo = mid
    v = np.arange(max(hi - _STEP_CHECK, 0), min(hi + _STEP_CHECK, _TOP), dtype=np.uint64)
    if not np.array_equal(_gaps(v << np.uint64(12), p) >= n, v >= hi):
        raise RuntimeError(f"_gaps is no clean step at its threshold for p = {p!r}, n = {n}")
    return hi


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
    """Gap state of one location class (kind, p) for the trials of a bank,
    from their class keys and the first words of those keys' streams."""

    def __init__(self, key: np.ndarray, word: np.ndarray, p: float):
        self.key = key
        self.next = key + _GOLDEN2  # splitmix64 input of word 2k + 1, fault k's code
        self.ahead = _gaps(word, p)  # locations before the next fault


class StreamBank:
    """Per-trial fault streams for a batch of trial indices.

    Every sampling call with p > 0 advances each covered trial's `counters`
    (locations consumed) by the number of locations, reruns' locations
    included, independent of the other trials.
    """

    def __init__(self, master_seed: int, trial_indices: np.ndarray):
        self.seed = master_seed
        self.indices = np.asarray(trial_indices, dtype=np.uint64)
        self.counters = np.zeros(self.indices.shape, dtype=np.uint64)
        self.size = self.indices.shape[0]
        self._classes: dict[tuple[str, float], _Class] = {}

    @functools.cached_property
    def keys(self) -> np.ndarray:
        """Per-trial stream keys, hashed on first use (`faulting` hands its own over)."""
        return stream_keys(self.seed, self.indices)

    def _class(self, kind: str, p: float) -> _Class:
        c = self._classes.get((kind, p))
        if c is None:
            key = self._class_key(kind, p)
            c = self._classes[(kind, p)] = _Class(key, _words(key, 0), p)
        return c

    def _class_key(self, kind: str, p: float) -> np.ndarray:
        return _class_keys(self.keys, kind, p)

    def _count(self, n: int) -> None:
        """Add n locations to every row's counter."""
        self.counters += np.uint64(n)

    def rerun(self, rows, attempt, j: int) -> "StreamBank":
        """The bank of rerun j >= 1 of ancilla attempt `attempt` (an int, or
        one per row) of trial rows[i], in its i-th row: in every class, its
        own substream, keyed from the trial's class key by (attempt, j) as
        class keys are from trial keys, so it moves no other location.  Its
        locations add to this bank's counters."""
        return _Rerun(self, np.asarray(rows), attempt, j)

    @classmethod
    def faulting(cls, master_seed: int, trial_indices, thresholds: dict) -> "StreamBank":
        """The bank of the trials among trial_indices, in order, that fault in
        some class (kind, p) of `thresholds` within the locations it screens:
        a trial is clean in a class when the top 52 bits of its first word
        are at least thresholds[kind, p], the `screen_threshold` of those
        locations.  Every trial is hashed once: the bank's keys, class keys
        and first words are gathered from the screen."""
        trial_indices = np.asarray(trial_indices, dtype=np.uint64)
        keys = stream_keys(master_seed, trial_indices)
        firsts = {}
        clean = np.ones(trial_indices.shape, dtype=bool)
        for (kind, p), top in thresholds.items():
            key = _class_keys(keys, kind, p)
            word = _words(key, 0)
            clean &= word >> np.uint64(12) >= np.uint64(top)
            firsts[kind, p] = key, word
        rows = np.flatnonzero(~clean)
        bank = cls(master_seed, trial_indices[rows])
        bank.keys = keys[rows]
        bank._classes = {c: _Class(k[rows], w[rows], c[1]) for c, (k, w) in firsts.items()}
        return bank

    def faults(self, kind: str, p: float, n: int):
        """(rows, offsets, codes) of the faults among the next n locations of
        class (kind, p), p > 0; advances the class and the counters by n.
        Codes are 1..3 (X, Y, Z) for `pauli1` and pair codes 1..15 for
        `pauli2`; a row's offsets strictly increase, so no two faults share a
        location."""
        c = self._class(kind, p)
        rows = np.flatnonzero(c.ahead < n)
        found = [(rows[:0], c.ahead[:0], c.key[:0])]  # typed empties: no fault at all
        while rows.size:
            off, z = c.ahead[rows], c.next[rows]
            w = z + _PAIR  # the fault's code word and the next gap's word, as _words
            code, gap = _mix64(w, np.empty_like(w))
            found.append((rows, off, code))
            c.next[rows] = z + _GOLDEN2
            ahead = off + 1 + _gaps(gap, p)
            c.ahead[rows] = ahead
            rows = rows[ahead < n]
        c.ahead -= n
        self._count(n)
        rows, off, words = (np.concatenate(a) for a in zip(*found))
        return rows, off, 1 + _below(words, N_CODES[kind])

    def depolarize_steps(self, p: float, n_steps: int, width: int, tag=""):
        """n_steps * width depolarizing locations, packed width bits per step.

        Returns (x, z) of shape (size, n_steps) uint8, or None when p == 0.
        """
        if p <= 0.0:
            return None
        return _scatter(self.size, n_steps, width, *self.faults("pauli1", p, n_steps * width))

    def cnot_pairs(self, p: float, n: int, tag=""):
        """n two-qubit gate locations; (size, n) pair codes 0..15, or None."""
        if p <= 0.0:
            return None
        return _pairs(self.size, n, *self.faults("pauli2", p, n))


class _Rerun(StreamBank):
    """The rows of `StreamBank.rerun`: row i draws rerun j of attempt[i] of
    trial rows[i] of bank, from substreams that start fresh."""

    def __init__(self, bank: StreamBank, rows: np.ndarray, attempt, j: int):
        self.size = rows.size
        self._classes = {}
        self._bank, self._rows = bank, rows
        self._salt = _words(np.broadcast_to(attempt, rows.shape).astype(np.uint64), j)

    def _class_key(self, kind: str, p: float) -> np.ndarray:
        return _rekey(self._bank._class(kind, p).key[self._rows], self._salt)

    def _count(self, n: int) -> None:
        np.add.at(self._bank.counters, self._rows, np.uint64(n))  # rows may repeat a trial


class FaultPlanSource:
    """Noise source that injects planned Paulis at chosen error locations.

    A plan row is one trial: codes[r, k] is planned at location slots[r, k]
    of trial r, and code 0 plans nothing.  Locations are numbered per trial
    in draw order (each depolarizing or measurement slot is one location,
    each CNOT one), one flat cursor for all trials, so `faults` ignores kind
    and p.  A plan names nominal locations only, those of one pass with no
    ancilla attempt rejected, and fits[s] is the number of Pauli codes of
    nominal location s: 3 (X, Y, Z) at a one-qubit location, 15 pair codes
    at a CNOT.  A rerun draws from `rerun`, which plans no fault, so the
    cursor counts nominal locations alone.  All other locations are
    noise-free, and every call consumes its locations even at p = 0
    (matching the draw walk that numbers them).  Two codes planned at one
    location multiply (XOR), as two faults there would.

    The constructor checks the whole plan: it raises ValueError, naming the
    first bad row and slot, for a code not in 0..15, a planned slot that is
    not an integer, is negative, or lies at or past len(fits) (the trial
    never draws it), and a code that does not fit its location.
    """

    def __init__(self, slots, codes, fits):
        slots, codes = np.atleast_2d(np.asarray(slots)), np.atleast_2d(np.asarray(codes))
        if slots.shape != codes.shape:
            raise ValueError("slots/codes shape mismatch")
        rows, col = np.nonzero(codes)  # code 0 plans nothing
        slot, code = slots[rows, col], codes[rows, col]

        def check(bad, why):
            if bad.any():
                i = bad.argmax()
                why = why.format(code=code[i])
                raise ValueError(f"fault plan row {rows[i]}, slot {slot[i]}: {why}")

        check(~np.isin(code, np.arange(N_CODES["pauli2"] + 1)), "code {code} not in 0..15")
        check(np.floor(slot) != slot, "a non-integral slot")
        check(slot < 0, "a negative slot")
        check(slot >= len(fits), f"the trial drew only {len(fits)} locations")
        slot = slot.astype(np.int64)
        check(code > np.asarray(fits)[slot], "code {code} does not fit a one-qubit location")
        self.size, self.cursor = slots.shape[0], 0
        self.rows, self.slots, self.codes = rows, slot, code.astype(np.uint8)

    def faults(self, kind: str, p: float, n: int):
        """(rows, offsets, codes) of the codes planned among the next n
        locations, as `StreamBank.faults` returns them; advances the cursor
        by n."""
        rel = self.slots - self.cursor
        hit = np.flatnonzero(rel.view(np.uint64) < n)  # 0 <= rel < n
        self.cursor += n
        return self.rows[hit], rel[hit], self.codes[hit]

    def rerun(self, rows, attempt, j: int) -> "FaultPlanSource":
        """The source of a rerun of ancilla attempts of trial rows: fault-free."""
        empty = np.zeros((len(rows), 0), dtype=np.int64)
        return FaultPlanSource(empty, empty, ())

    def depolarize_steps(self, p: float, n_steps: int, width: int, tag=""):
        return _scatter(self.size, n_steps, width, *self.faults("pauli1", p, n_steps * width))

    def cnot_pairs(self, p: float, n: int, tag=""):
        return _pairs(self.size, n, *self.faults("pauli2", p, n))


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

    def depolarize_steps(self, p: float, n_steps: int, width: int, tag=""):
        self.records.append(
            LocationRecord(self.cursor, n_steps * width, "pauli1", width, tag)
        )
        self.cursor += n_steps * width
        return None

    def cnot_pairs(self, p: float, n: int, tag=""):
        self.records.append(LocationRecord(self.cursor, n, "pauli2", 1, tag))
        self.cursor += n
        return None

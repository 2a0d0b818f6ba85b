"""Monte Carlo experiments: fault signatures, and the interpreter they come from.

`_execute` runs a `circuit.program()` on a batch of trials.  Each frame is a
packed uint8 bit mask per trial and register, and each op becomes a few
numpy operations across the batch.  A draw's arrays are step-major, so the
column an op reads is contiguous, and a CNOT draw's pair codes are decoded
once into the x and z bit planes of control and target, so each CNOT
location costs four shift-and-XORs.  Noise comes from a source:
`FaultPlanSource` for planned faults, `StreamBank` for random ones.  The
interpreter serves fault plans (certification, the differential test) and
the signature tables; Monte Carlo trials do not run it.  A prep op runs its
ancilla attempt, first try and reruns alike, only on the rows the source's
`reached` names, those with a fault among the attempt's next locations;
every other row skips those locations and takes the ideal ancilla, the zero
frame.  Most rows of a fault plan meet no fault in a given attempt, and a
rejected attempt's rerun runs only if a planned fault falls in its locations.

`_draws` walks a program's noise draws statically, in draw order.  It is
the one numbering of the error locations: the signature tables and
`enumerate_fault_cases` both read it, and no run is needed; a fault case
keeps its draw's record and makes its label from it on demand.  The tests
check it against `noise.RecordingSource`, which records the draws of an
interpreter run.  The syndrome bits of a trial sit in one uint32 laid out
as in a signature word, and `CORRECT9` is the one decoder table: the
interpreter's `P` op and the kernel both correct with it.

Every op except a rejected ancilla's rerun, the majority vote `P` and the
tally is linear over GF(2) in the Pauli frame.  So a single fault acts
through a fixed signature: the data frame and the 18 syndrome bits it leaves
before the correction, and whether it alone makes its ancilla attempt's
verification fire.  `_table` reads the signature of every single fault of a
program off one linear run of `_execute` (reruns off, `P` left out), once per
(mode, schedule) and process, on first use.  A Monte Carlo trial then reads
its faults from its `StreamBank` as a sparse list (`StreamBank.faults`, one
call per location class and draw), maps each to its location and Pauli, walks
its ancilla attempts in draw order (an attempt whose flags XOR to 1 is
discarded, and its retry takes the next locations of each class, as the
stream gives them), XORs the signatures it keeps, and applies the majority
vote and the class lookup.  Stabilize reuses one recovery's table for every
recovery; the residual a recovery inherits adds its syndromes through the
signatures of a data error ahead of the recovery.

Randomness is keyed by (master_seed, trial_index, location class, fault
ordinal), so results are independent of batch size, worker count and chunk
order; a scalar trial is just a batch of one.  A chunk first skips its
fault-free trials: a trial with no fault among the nominal locations (one
pass, no ancilla rejected) ends with residual 0, so it counts as class
(0, 0) at every tally without being run.

Every recovery of a program ends in a tally, which counts the joint (x, z)
residual classes at its correction step.  An experiment's result is one
`TrialStats` per tally: one for a sweep mode, t_max for stabilize.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from . import codebook
from .circuit import ANC, BIT, DATA, GAMMA, MODES, PHASE, RecoverySchedule, program
from .noise import (
    N_CODES, FaultPlanSource, LocationRecord, NoiseParams, StreamBank, fault_free, pauli_bits,
)

MAX_PREP_ATTEMPTS = 100

_U8 = np.uint8

CLASS_LUT = codebook.tables().class_lut  # 7-bit residual -> class 0..3
PARITY = np.array([bin(i).count("1") & 1 for i in range(256)], dtype=_U8)
IDEAL_FAILS = CLASS_LUT >= 2  # ideal recovery leaves a logical error

# The decoder: one sector's 9 syndrome bits (round r in bits 3r..3r+2) -> the
# correction of the word two rounds agree on; no quorum means no correction.
CORRECT9 = np.array(
    [codebook.correction_for(a if a in (b, c) else b if b == c else 0)
     for c in range(8) for b in range(8) for a in range(8)],
    dtype=_U8,
)

# A signature word holds what a set of faults leaves before the correction:
# the data frame's x in bits 0-6 and z in bits 7-13, and the syndrome word
# [sector, round] in the 3 bits from _SYN + 3 * (3 * sector + round).
_SYN = 14
_SIG = np.uint32


def _correct(sig):
    """The data residual (x, z) that signature words leave after the majority
    vote's correction."""
    x = (sig & 0x7F) ^ CORRECT9[sig >> (_SYN + 9 * BIT) & 0x1FF]
    z = (sig >> 7 & 0x7F) ^ CORRECT9[sig >> (_SYN + 9 * PHASE) & 0x1FF]
    return x, z


def _tally(x, z):
    """Joint class counts of data residuals x, z, indexed 4 * x_class + z_class."""
    return np.bincount(CLASS_LUT[x] * 4 + CLASS_LUT[z], minlength=16)


class AncillaRejectionError(RuntimeError):
    """An ancilla failed verification more times than the resynthesis cap."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    noise: NoiseParams
    schedule: RecoverySchedule = field(default_factory=RecoverySchedule)
    trials: int = 1
    master_seed: int = 0
    encoder_noisy: bool = False
    t_max: int = 10
    trial_offset: int = 0  # sweep cells use disjoint trial-index ranges

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trial_offset < 0:
            raise ValueError("trial_offset must be >= 0")
        if not 0 <= self.master_seed < 2**64:  # the stream keys read 64 bits of it
            raise ValueError(f"seed must lie in [0, 2^64), got {self.master_seed}")
        if self.encoder_noisy != (self.mode == "fig5"):
            raise ValueError("the noisy encoding network runs in fig5 mode and only there")
        if self.mode == "stabilize" and self.t_max < 1:
            raise ValueError("stabilize mode needs t_max >= 1")

    def program(self):
        return program(self.mode, self.schedule, self.t_max)


def _warn_small_n(config: ExperimentConfig) -> None:
    rates = [r for r in (config.noise.epsilon, config.noise.gamma) if r > 0]
    if rates and config.trials < 10 * max(1.0 / r for r in rates):
        warnings.warn(
            f"trials={config.trials} is small for rates "
            f"(epsilon={config.noise.epsilon}, gamma={config.noise.gamma}); "
            "want N >> max(1/eps, 1/gamma)",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


def _execute(ops, src, rates, m, idx=None, prefix="", flags=None):
    """Run an op program for m trials (rows idx of src; None: all) on fresh
    registers, prefixing its draw tags.  Returns the frames x, z per register,
    the syndrome bits (a signature word's), the flags of the last verification
    readout, and each tally as (step, `_tally` of the data residual).

    Given a list `flags`, the run stays linear in its faults: each prep op
    appends its attempt's verification flags to it instead of rerunning the
    rejected trials, and P leaves the syndromes uncorrected."""
    x = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    z = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    syn = np.zeros(m, dtype=_SIG)
    bufs: dict = {}
    reject = None
    tallies: list[tuple[int, np.ndarray]] = []
    for kind, step, _, args in ops:
        if kind == "xor":
            key, col, r, bits = args
            b = bufs[key]
            if b is None:
                continue
            bx, bz = b[0][:, col], b[1][:, col]
            if bits is None:
                x[r] ^= bx
                z[r] ^= bz
            else:
                for i, q in bits:
                    x[r] ^= ((bx >> i) & 1) << q
                    z[r] ^= ((bz >> i) & 1) << q
        elif kind == "pair":
            key, col, rc, c, rt, t = args
            b = bufs[key]
            if b is None:
                continue
            cx, cz, tx, tz = b
            x[rc] ^= cx[:, col] << c
            z[rc] ^= cz[:, col] << c
            x[rt] ^= tx[:, col] << t
            z[rt] ^= tz[:, col] << t
        elif kind == "CNOT":
            rc, c, rt, t = args
            x[rt] ^= ((x[rc] >> c) & 1) << t
            z[rc] ^= ((z[rt] >> t) & 1) << c
        elif kind == "pauli1":
            rate, n_steps, width, tag, key = args
            bufs[key] = src.depolarize_steps(rates[rate], n_steps, width, idx, prefix + tag)
        elif kind == "pauli2":
            n, tag, key = args
            b = src.cnot_pairs(rates[GAMMA], n, idx, prefix + tag)
            if b is not None:  # the x, z bit planes of the control and the target
                b = (*pauli_bits(b >> 2), *pauli_bits(b & 3))
            bufs[key] = b
        elif kind == "H":
            r, mask = args
            d = (x[r] ^ z[r]) & mask
            x[r] ^= d
            z[r] ^= d
        elif kind == "M":
            r, mask, dest = args
            bit = PARITY[x[r] & mask]
            if dest is None:
                reject = bit.astype(bool)
            else:
                sector, rnd, row = dest
                syn |= bit.astype(_SIG) << (_SYN + 3 * (3 * sector + rnd) + row)
        elif kind == "I":
            key, r, _ = args
            b = bufs[key]
            if b is not None:
                x[r] ^= np.bitwise_xor.reduce(b[0], axis=1)
                z[r] ^= np.bitwise_xor.reduce(b[1], axis=1)
        elif kind == "prep":
            x[ANC], z[ANC] = _prepare(*args, src, rates, m, flags)
        elif kind == "P" and flags is None:
            cx, cz = _correct(syn)
            x[DATA] ^= cx
            z[DATA] ^= cz
            syn[:] = 0
        elif kind == "tally":
            tallies.append((step, _tally(x[DATA], z[DATA])))
    return x, z, syn, reject, tallies


def _prepare(attempt, tag, src, rates, m, flags=None):
    """Verified ancillas for m trials, resynthesizing each rejected one;
    given a list `flags`, one attempt each, its flags appended to it.

    Each try runs the attempt only on the rows src reports a fault reaching
    among the attempt's locations; every other row skips those locations and
    gets the ideal ancilla, the zero frame, and a skipped row is never
    rejected."""
    if flags is not None:
        x, z, _, reject, _ = _execute(attempt, src, rates, m, prefix=tag)
        flags.append(reject)
        return x[ANC], z[ANC]
    locations = Counter()
    for kind, rate, n, *_ in _draws(attempt):
        locations[kind, rates[rate]] += n
    ax, az = np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)
    idx = None  # the rows still to verify; None: all
    for _ in range(MAX_PREP_ATTEMPTS):
        run = src.reached(locations, idx)
        if idx is not None:  # a skipped rerun keeps no rejected try's frame
            ax[idx] = az[idx] = 0
        if not run.size:
            return ax, az
        x, z, _, rej, _ = _execute(attempt, src, rates, run.size, run, tag)
        ax[run], az[run] = x[ANC], z[ANC]
        idx = run[rej]
        if not idx.size:
            return ax, az
    raise AncillaRejectionError(
        f"{idx.size} trials exceeded {MAX_PREP_ATTEMPTS} ancilla attempts"
    )


def _run(config: ExperimentConfig, src):
    """One batch through config's program; returns (dx, dz, tallies)."""
    rates = (config.noise.epsilon, config.noise.gamma)
    x, z, _, _, tallies = _execute(config.program(), src, rates, src.size)
    return x[DATA], z[DATA], tallies


# ---------------------------------------------------------------------------
# fault signatures: the Monte Carlo kernel
# ---------------------------------------------------------------------------


def _draws(ops, prefix=""):
    """(kind, rate, n, width, tag, prep) of each noise draw of one pass of ops
    with no attempt rejected, in draw order: the numbering of the error
    locations, slot 0 first.  rate indexes (epsilon, gamma), n counts the
    draw's locations (width per step), tag is its full tag, as `_execute`
    prefixes it, and prep numbers the prep op whose attempt draws it
    (-1: none)."""
    preps = 0
    for kind, _, _, args in ops:
        if kind == "prep":
            attempt, tag = args
            yield from (d[:5] + (preps,) for d in _draws(attempt, tag))
            preps += 1
        elif kind == "pauli1":
            rate, n_steps, width, tag, _ = args
            yield kind, rate, n_steps * width, width, prefix + tag, -1
        elif kind == "pauli2":
            n, tag, _ = args
            yield kind, GAMMA, n, 1, prefix + tag, -1


@dataclass(frozen=True)
class _Table:
    """The signatures of every single fault of one op program."""

    sig: np.ndarray  # signature word per fault case, in enumerate_fault_cases order
    flag: np.ndarray  # per case: alone, it makes its attempt's verification fire
    case0: np.ndarray  # per location (slot): its first case; Pauli code c is case0 + c - 1
    prep: np.ndarray  # per location: the prep op whose attempt draws it (-1: none)
    draws: tuple  # (kind, rate, prep, slots) per draw op, in draw order
    steps: tuple  # data step of each tally


@functools.cache
def _table(mode: str, schedule: RecoverySchedule) -> _Table:
    """Run every single fault of mode's program, one trial each, through one
    linear pass of `_execute`."""
    draws, n_slots = [], 0
    for kind, rate, n, _, _, prep in _draws(program(mode, schedule)):
        draws.append((kind, rate, prep, np.arange(n_slots, n_slots + n)))
        n_slots += n
    # the cases of enumerate_fault_cases, location by location
    n_codes = np.concatenate([np.full(len(s), N_CODES[k]) for k, _, _, s in draws])
    case0 = np.cumsum(n_codes) - n_codes
    slots = np.repeat(np.arange(n_slots), n_codes)
    codes = np.arange(len(slots)) - case0[slots] + 1
    src = FaultPlanSource(slots[:, None], codes[:, None])
    flags: list = []
    x, z, syn, _, tallies = _execute(program(mode, schedule), src, (0, 0), len(slots), flags=flags)
    sig = x[DATA].astype(_SIG) | z[DATA].astype(_SIG) << 7 | syn
    return _Table(
        sig,
        np.any(flags, axis=0),
        case0,
        np.concatenate([np.full(len(s), p) for _, _, p, s in draws]),
        tuple(draws),
        tuple(step for step, _ in tallies),
    )


@dataclass(frozen=True)
class _Segment:
    """The draws of one recovery at given rates, as location classes
    (kind, p), p > 0, each listing its locations in draw order."""

    classes: tuple  # (kind, p) per class
    n: np.ndarray  # locations per class
    base: np.ndarray  # where each class starts in loc
    loc: np.ndarray  # table slot of every location, class after class
    start: np.ndarray  # (preps + 1, classes) first offset of each attempt; last row: n
    alen: np.ndarray  # locations of one attempt per class


def _segment(draws, rates) -> _Segment:
    locs: dict = {}  # class -> slot arrays in draw order
    seen: dict = {}  # prep -> locations per class drawn before its attempt
    for kind, rate, prep, slots in draws:
        if prep >= 0 and prep not in seen:
            seen[prep] = {c: sum(map(len, v)) for c, v in locs.items()}
        if rates[rate] > 0:
            locs.setdefault((kind, rates[rate]), []).append(slots)
    classes = tuple(locs)
    n = np.array([sum(map(len, locs[c])) for c in classes], dtype=np.int64)
    start = [[seen[a].get(c, 0) for c in classes] for a in sorted(seen)] + [list(n)]
    # every prep op runs the one shared attempt, so any attempt gives the lengths
    alen = [sum(len(s) for k, r, p, s in draws if p == 0 and (k, rates[r]) == c) for c in classes]
    return _Segment(
        classes,
        n,
        np.cumsum(n) - n,
        np.concatenate([np.zeros(0, np.int64), *(s for c in classes for s in locs[c])]),
        np.array(start, dtype=np.int64).reshape(len(start), len(classes)),
        np.array(alen, dtype=np.int64),
    )


@dataclass(frozen=True)
class _Plan:
    """What the kernel needs of one (mode, schedule, t_max, noise)."""

    table: _Table
    segments: tuple  # the _Segment of each tally's recovery, in order
    steps: tuple  # data step of each tally
    nominal: Counter  # locations per class of one pass with no ancilla rejected
    residual: np.ndarray | None  # (2, 128): signature of an incoming x / z residual


def _plan(config: ExperimentConfig) -> _Plan:
    t_max = config.t_max if config.mode == "stabilize" else 1
    return _build_plan(config.mode, config.schedule, t_max, config.noise)


@functools.lru_cache(maxsize=64)  # far more than the cells of a sweep; a plan is tens of kB
def _build_plan(mode, schedule, t_max, noise) -> _Plan:
    rates = (noise.epsilon, noise.gamma)
    if mode != "stabilize":
        table = _table(mode, schedule)
        segments, steps, residual = (_segment(table.draws, rates),), table.steps, None
    else:
        # One recovery's table, led by a one-step channel prefix: a data error
        # there stands for the prefix, the gaps and the residual that reach
        # a recovery, none of which the recovery's gates change.
        table = _table("memory_t20", replace(schedule, channel_prefix_steps=1))
        (kind, rate, _, qubits), rec = table.draws[0], table.draws[1:]

        def block(n_steps):
            return _segment(((kind, rate, -1, np.tile(qubits, n_steps)),) + rec, rates)

        rest = block(schedule.inter_recovery_gap)
        segments = (block(schedule.channel_prefix_steps),) + (rest,) * (t_max - 1)
        s0, s1 = (op.step for op in program(mode, schedule, 2) if op.kind == "tally")
        steps = tuple(s0 + k * (s1 - s0) for k in range(t_max))
        units = table.sig[table.case0[qubits] + np.array([[0], [2]])]  # X, Z on each qubit
        bits = (np.arange(128)[:, None] >> np.arange(len(qubits))) & 1
        residual = np.bitwise_xor.reduce(np.where(bits, units[:, None], _SIG(0)), axis=2)
    nominal: Counter = Counter()
    for seg in segments:
        nominal.update(dict(zip(seg.classes, seg.n.tolist())))
    return _Plan(table, segments, steps, nominal, residual)


def _signatures(table: _Table, seg: _Segment, bank: StreamBank) -> np.ndarray:
    """XOR of the signatures of the faults each trial of bank keeps in one
    recovery.

    The recovery's locations are drawn class by class.  Each trial walks its
    attempts in draw order; at the first one whose flags XOR to 1, the faults
    before it are kept, its own are dropped, and its retry takes the next
    locations of each class, so every later location sits one attempt
    further down the stream, which is drawn that much further.  Then the
    walk resumes at the retry."""
    m, k_max = bank.size, len(seg.start) - 1
    acc = np.zeros(m, dtype=_SIG)
    shift = np.zeros((m, len(seg.classes)), dtype=np.int64)  # retry locations so far
    last, tries = np.full(m, -1), np.zeros(m, dtype=np.int64)

    def draw(rows, n):
        """Faults among the next n[c] locations of each class c of rows,
        as (row, class, stream offset, code)."""
        found = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, _U8),)]
        for c, (kind, p) in enumerate(seg.classes):
            if n[c]:
                r, off, code = bank.faults(kind, p, int(n[c]), rows)
                r = r if rows is None else rows[r]
                found.append((r, np.full(r.size, c), seg.n[c] + shift[r, c] - n[c] + off, code))
        return [np.concatenate(a) for a in zip(*found)]

    row, cls, at, code = draw(None, seg.n)
    while row.size:
        nominal = at - shift[row, cls]
        slot = seg.loc[seg.base[cls] + nominal]
        case = table.case0[slot] + code - 1
        flagged = table.flag[case]
        pairs = row[flagged] * k_max + table.prep[slot[flagged]]
        keys, count = np.unique(pairs, return_counts=True)
        keys = keys[count % 2 == 1]  # trial * k_max + attempt of every rejected attempt
        rejected, first = np.unique(keys // k_max, return_index=True)
        attempt = np.full(m, k_max)
        attempt[rejected] = keys[first] % k_max
        begin = seg.start[attempt[row], cls]
        keep = nominal < begin
        np.bitwise_xor.at(acc, row[keep], table.sig[case[keep]])
        if not rejected.size:
            break
        again = last[rejected] == attempt[rejected]
        tries[rejected] = np.where(again, tries[rejected] + 1, 1)
        last[rejected] = attempt[rejected]
        over = np.count_nonzero(tries[rejected] >= MAX_PREP_ATTEMPTS)
        if over:
            raise AncillaRejectionError(
                f"{over} trials exceeded {MAX_PREP_ATTEMPTS} ancilla attempts"
            )
        later = nominal >= begin + seg.alen[cls]
        pending = (row[later], cls[later], at[later], code[later])
        shift[rejected] += seg.alen
        retried = draw(rejected, seg.alen)
        row, cls, at, code = (np.concatenate(a) for a in zip(pending, retried))
    return acc


def _kernel(config: ExperimentConfig, bank: StreamBank):
    """Every trial of bank through config's signature tables; returns each
    tally as (step, joint class counts), as `_run` does."""
    plan = _plan(config)
    x = z = np.zeros(bank.size, dtype=_SIG)
    tallies = []
    for seg, step in zip(plan.segments, plan.steps):
        acc = _signatures(plan.table, seg, bank)
        if plan.residual is not None:
            acc ^= plan.residual[0][x] ^ plan.residual[1][z]
        x, z = _correct(acc)
        tallies.append((step, _tally(x, z)))
    return tallies


# ---------------------------------------------------------------------------
# aggregated statistics
# ---------------------------------------------------------------------------


@dataclass
class TrialStats:
    """Joint residual-class counts over N trials at one tally, with derived
    probabilities."""

    t_steps: int  # data step of the tally: its recovery's correction step
    counts: np.ndarray  # (4, 4) int64 indexed [x_class][z_class]
    trials: int

    def __add__(self, other: "TrialStats") -> "TrialStats":
        if self.t_steps != other.t_steps:
            raise ValueError("cannot merge tallies of different steps")
        return TrialStats(
            self.t_steps, self.counts + other.counts, self.trials + other.trials
        )

    def _p(self, count: float) -> float:
        return count / self.trials

    def stderr_of(self, p: float) -> float:
        return float(np.sqrt(max(p * (1.0 - p), 0.0) / self.trials))

    @property
    def eta0(self) -> float:
        return self._p(self.counts[0, 0])

    @property
    def eta3_b(self) -> float:
        return self._p(self.counts[3, 0])

    @property
    def eta3_p(self) -> float:
        return self._p(self.counts[0, 3])

    @property
    def eta_y(self) -> float:
        return self._p(self.counts[3, 3])

    @property
    def p_e_strict(self) -> float:
        """Either sector fails under ideal recovery (raw class 2 or 3)."""
        return 1.0 - self._p(self.counts[:2, :2].sum())

    @property
    def p_fail_a1(self) -> float:
        """x sector fails under ideal recovery; logical Z leaves |0_L> alone."""
        return self._p(self.counts[2:, :].sum())

    @property
    def f_a1(self) -> float:
        """Fidelity of the raw residual against |0_L>: x in C_perp, z in C."""
        return self._p(self.counts[0, 0] + self.counts[0, 3])

    @property
    def p_ec1(self) -> float:
        """Effective weight exactly 1 in either sector (raw residual)."""
        w1 = self.counts[1, :].sum() + self.counts[:, 1].sum() - self.counts[1, 1]
        return self._p(w1)

    @property
    def delta_eta3(self) -> float:
        return self.eta3_b - self.eta3_p

    def fidelity_at(self, a: float) -> float:
        """Analytic F(a) = eta0 + eta3p + 4 a^2 (1-a^2) (eta3b - eta3p)."""
        if not 0.0 <= a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        return self.eta0 + self.eta3_p + 4.0 * a * a * (1.0 - a * a) * self.delta_eta3


def batch_size() -> int:
    """Trials per chunk: STEANE_MC_BATCH, default 32768."""
    raw = os.environ.get("STEANE_MC_BATCH", "32768").strip()
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"STEANE_MC_BATCH must be a positive integer, got {raw!r}")
    return int(raw)


def _run_chunk(config: ExperimentConfig, start: int, size: int) -> list[TrialStats]:
    """TrialStats per tally of a chunk of trials.  Only the trials with a
    fault among their nominal locations are run, through the signature kernel."""
    idx = np.arange(start, start + size, dtype=np.uint64)
    live = idx[~fault_free(config.master_seed, idx, _plan(config).nominal)]
    out = []
    for step, counts in _kernel(config, StreamBank(config.master_seed, live)):
        counts[0] += size - live.size  # the skipped trials: class (0, 0)
        out.append(TrialStats(step, counts.reshape(4, 4), size))
    return out


def run_experiments(configs, threads: int = 1) -> list[list[TrialStats]]:
    """Run several experiments (sweep cells) over one worker pool of at most
    one worker per chunk; returns each config's TrialStats per tally, merged
    over its chunks in order."""
    size = batch_size()
    for config in configs:
        _warn_small_n(config)
        _plan(config)  # plans built before any fork
    jobs = [
        (cell, start, min(size, config.trial_offset + config.trials - start))
        for cell, config in enumerate(configs)
        for start in range(config.trial_offset, config.trial_offset + config.trials, size)
    ]
    if threads <= 1 or len(jobs) <= 1:
        parts = [_run_chunk(configs[cell], start, n) for cell, start, n in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            futs = [pool.submit(_run_chunk, configs[cell], start, n) for cell, start, n in jobs]
            parts = [f.result() for f in futs]
    results = [None] * len(configs)
    for (cell, _, _), part in zip(jobs, parts):
        prev = results[cell]
        results[cell] = part if prev is None else [a + b for a, b in zip(prev, part)]
    return results


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[TrialStats]:
    """TrialStats per tally of one experiment: one for a sweep mode, t_max
    for stabilize."""
    return run_experiments([config], threads)[0]


# ---------------------------------------------------------------------------
# forced-fault machinery (exhaustive single-fault certification)
# ---------------------------------------------------------------------------


class FaultCase(NamedTuple):
    """One Pauli (code 1..3) or Pauli pair (pair code 1..15) at one location;
    every case of one draw shares that draw's record."""

    slot: int
    code: int
    draw: LocationRecord

    @property
    def label(self) -> str:
        """Where and what, e.g. `rec/r1/g2b2/mem[s6,q0]:X`."""
        d, off = self.draw, self.slot - self.draw.slot
        return f"{d.tag}[s{off // d.width},q{off % d.width}]:{_NAMES[d.kind][self.code]}"


# the Pauli (pair) named by each code of a one-qubit and of a CNOT location
_NAMES = {"pauli1": "IXYZ", "pauli2": tuple(a + b for a in "IXYZ" for b in "IXYZ")}


@dataclass
class CertificationReport:
    n_locations: int
    n_cases: int
    failures: list[FaultCase]

    @property
    def passed(self) -> bool:
        return not self.failures


def enumerate_fault_cases(config: ExperimentConfig) -> list[FaultCase]:
    """All (location, Pauli) cases of config's program, in `_draws` order."""
    cases: list[FaultCase] = []
    slot = 0
    for kind, _, n, width, tag, _ in _draws(config.program()):
        draw = LocationRecord(slot, n, kind, width, tag)
        codes = range(1, N_CODES[kind] + 1)
        cases += map(FaultCase._make, product(range(slot, slot + n), codes, (draw,)))
        slot += n
    return cases


def run_fault_plan(
    config: ExperimentConfig, slots, codes
) -> tuple[np.ndarray, np.ndarray]:
    """Replay one trial per plan row with the planned Paulis forced in; a
    planned fault at a slot the row's trial never reaches raises ValueError."""
    src = FaultPlanSource(slots, codes)
    dx, dz, _ = _run(replace(config, noise=NoiseParams.zero()), src)
    src.check_reached()
    return dx, dz


def certify_single_faults(
    schedule: RecoverySchedule = RecoverySchedule(),
) -> CertificationReport:
    """Prove every single fault in one recovery block is ideally recoverable.

    Every error location (memory slot, gate, measurement) of a full channel
    step plus recovery is hit with every possible Pauli (or Pauli pair);
    the run must leave a residual that one ideal recovery maps to the
    trivial class in both sectors.
    """
    config = ExperimentConfig(
        mode="memory_t20", noise=NoiseParams.zero(), schedule=schedule, trials=1
    )
    cases = enumerate_fault_cases(config)
    slots = np.array([[c.slot] for c in cases], dtype=np.int64)
    codes = np.array([[c.code] for c in cases], dtype=np.uint8)
    dx, dz = run_fault_plan(config, slots, codes)  # one batch, one trial per case
    bad = np.nonzero(IDEAL_FAILS[dx] | IDEAL_FAILS[dz])[0]
    n_loc = len({c.slot for c in cases})
    return CertificationReport(n_loc, len(cases), [cases[int(i)] for i in bad])

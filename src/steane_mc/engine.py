"""Monte Carlo experiments: fault signatures, and the interpreter they come from.

`_execute` runs a `circuit.program()` on a batch of trials.  Each frame is a
packed uint8 bit mask per trial and register, and each op becomes a few
numpy operations across the batch.  A draw's arrays are step-major, so the
column an op reads is contiguous, and a CNOT draw's pair codes are decoded
once into the x and z bit planes of control and target, so each CNOT
location costs four shift-and-XORs.  Noise comes from a source:
`FaultPlanSource` for planned faults, `StreamBank` for random ones.  A prep
op reruns its ancilla attempt on the rows whose last try was rejected,
drawing rerun j of attempt a (the prep ops numbered in program order) from
`src.rerun`.  The interpreter builds the signature tables, and the tests check the kernel
against it; no Monte Carlo trial, fault plan or certification runs it.

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
mode and process, on first use.  A Monte Carlo trial then reads
the faults of its nominal locations from its `StreamBank` as a sparse list
(`StreamBank.faults`, one call per location class), maps each to its
location and Pauli, drops the faults of every ancilla attempt whose flags
XOR to 1, and keeps the rest.  That keep rule has one home, `_xor_kept`,
which the nominal pass, the reruns and fault plans all run.  The rejected
attempts of all trials and all recoveries of a window rerun together, one
batch per try, each from its own substreams, so neither the batching nor
the order of the reruns moves a location; then the trial XORs the
signatures it keeps and applies the majority vote and the class lookup,
recovery by recovery.  A window is max(1, BATCH // trials) recoveries of
a chunk's faulting trials, so its accumulators and reruns cover about
BATCH trial-recoveries at most.
The table keeps its locations in one form, per-location arrays of kind,
rate and ancilla attempt, and a config's `_Plan` reads its location classes
off them with array masks; every recovery runs that layout.  Stabilize
repeats memory_t20's cycle (`RecoverySchedule`: a channel step, then a
recovery), so it runs that table t_max times, recovery k's prep i being
attempt 18k + i of the program; the residual a recovery inherits adds its
syndromes through the signatures of a data error in the channel step.  A
fault plan is read off the same table: each planned code is a fault case,
kept or dropped as a trial's are, and its reruns are fault-free.

Randomness is keyed by (master_seed, trial_index, location class, fault
ordinal), and for a rerun also by (attempt, try), so results are
independent of batch size, worker count and chunk order; a scalar trial is
just a batch of one.  A chunk first skips its
fault-free trials: a trial with no fault among the nominal locations (one
pass, no ancilla rejected) ends with residual 0, so it counts as class
(0, 0) at every tally without being run.  `StreamBank.faulting` screens
a chunk's trials with one integer compare per class, against the
thresholds the plan holds (computed with it, before any fork), and the
kernel runs the bank it returns, of the faulting trials, which keeps the
keys and first words the screen hashed.

Every recovery of a program ends in a tally, which counts the joint (x, z)
residual classes at its correction step.  An experiment's result is one
`TrialStats` per tally: one for a sweep mode, t_max for stabilize.

`run_experiments` splits every experiment into chunks of `BATCH` trials,
`BATCH // 2` in a forked run, and runs them on at most one worker per
chunk.  On more than one, the caller is worker 0 and forks the others from
the `fork` start method, asked for by name so that the configs and the
plans built beforehand reach every worker through the fork on any Python
version; nothing is pickled on the way in.  Every worker, the caller too,
takes the next chunk from one shared cursor until none are left, so a slow
or co-scheduled process just takes fewer.  A forked worker then sends back
one message through its pipe: its (job, TrialStats list) pairs, or the
exception a chunk raised.  The caller reads the pipes between its own
chunks and re-raises such an exception after terminating the other workers.
Where the platform cannot fork, a process pool runs one task per chunk.
"""

from __future__ import annotations

import functools
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat
from multiprocessing.connection import wait
from typing import NamedTuple

import numpy as np

from . import codebook
from .circuit import ANC, BIT, DATA, GAMMA, MODES, N_DATA, PHASE, RecoverySchedule, program
from .noise import (
    N_CODES, FaultPlanSource, LocationRecord, NoiseParams, StreamBank, pauli_bits,
    screen_threshold,
)

MAX_PREP_ATTEMPTS = 100

# trials per chunk, halved in a forked run; the rows do not depend on it
BATCH = 32768

# whether sweep workers can be forked (not on Windows)
_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

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
        return program(self.mode, self.t_max)


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


def _execute(ops, src, rates, m, prefix="", flags=None):
    """Run an op program for the m trials of src on fresh registers,
    prefixing its draw tags.  Returns the frames x, z per register, the
    syndrome bits (a signature word's), the flags of the last verification
    readout, and each tally as (step, `_tally` of the data residual).

    Given a list `flags`, the run stays linear in its faults: each prep op
    appends its attempt's verification flags to it instead of rerunning the
    rejected trials, and P leaves the syndromes uncorrected."""
    x = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    z = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    syn = np.zeros(m, dtype=_SIG)
    bufs: dict = {}
    reject = None
    preps = 0  # prep ops so far: the number of the next ancilla attempt
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
            bufs[key] = src.depolarize_steps(rates[rate], n_steps, width, tag=prefix + tag)
        elif kind == "pauli2":
            n, tag, key = args
            b = src.cnot_pairs(rates[GAMMA], n, tag=prefix + tag)
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
            x[ANC], z[ANC] = _prepare(*args, preps, src, rates, m, flags)
            preps += 1
        elif kind == "P" and flags is None:
            cx, cz = _correct(syn)
            x[DATA] ^= cx
            z[DATA] ^= cz
            syn[:] = 0
        elif kind == "tally":
            tallies.append((step, _tally(x[DATA], z[DATA])))
    return x, z, syn, reject, tallies


def _prepare(attempt, tag, a, src, rates, m, flags=None):
    """Verified ancillas of attempt number a for m trials, resynthesizing
    each rejected one: its rerun j draws from `src.rerun`.  Given a list
    `flags`, one attempt each, its flags appended to it."""
    x, z, _, reject, _ = _execute(attempt, src, rates, m, tag)
    ax, az = x[ANC], z[ANC]
    if flags is not None:
        flags.append(reject)
        return ax, az
    idx = np.flatnonzero(reject)  # the rows still to verify
    for j in range(1, MAX_PREP_ATTEMPTS):
        if not idx.size:
            break
        x, z, _, reject, _ = _execute(attempt, src.rerun(idx, a, j), rates, idx.size, tag)
        ax[idx], az[idx] = x[ANC], z[ANC]
        idx = idx[reject]
    if idx.size:
        raise AncillaRejectionError(
            f"{idx.size} trials exceeded {MAX_PREP_ATTEMPTS} ancilla attempts"
        )
    return ax, az


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
    """The signatures of every single fault of one recovery's op program, and
    its locations (slots) in draw order."""

    sig: np.ndarray  # signature word per fault case, in enumerate_fault_cases order
    flag: np.ndarray  # per case: alone, it makes its attempt's verification fire
    case0: np.ndarray  # per location: its first case; Pauli code c is case0 + c - 1
    codes: np.ndarray  # per location: its number of Pauli codes, 3 or 15 (its kind)
    prep: np.ndarray  # per location: the prep op whose attempt draws it (-1: none)
    rate: np.ndarray  # per location: the rate it draws at, EPS or GAMMA
    preps: int  # prep ops of the program: its ancilla attempts in one recovery
    step: int  # data step of the program's one tally


@functools.cache
def _table(mode: str) -> _Table:
    """Run every single fault of mode's program, one trial each, through one
    linear pass of `_execute`."""
    kind, rate, n, _, _, prep = zip(*_draws(program(mode)))
    # the cases of enumerate_fault_cases, location by location
    n_codes = np.repeat([N_CODES[k] for k in kind], n)
    case0 = np.cumsum(n_codes) - n_codes
    slots = np.repeat(np.arange(len(n_codes)), n_codes)
    codes = np.arange(len(slots)) - case0[slots] + 1
    src = FaultPlanSource(slots[:, None], codes[:, None], n_codes)
    flags: list = []
    x, z, syn, _, [(step, _)] = _execute(program(mode), src, (0, 0), len(slots), flags=flags)
    sig = x[DATA].astype(_SIG) | z[DATA].astype(_SIG) << 7 | syn
    return _Table(
        sig, np.any(flags, axis=0), case0, n_codes, np.repeat(prep, n), np.repeat(rate, n),
        len(flags), step,
    )


@dataclass(frozen=True)
class _Plan:
    """What the kernel needs of one (mode, t_max, noise): its table's
    locations at the noise's rates as location classes (kind, p), p > 0,
    which every recovery runs."""

    table: _Table
    classes: tuple  # (kind, p) per class, in the order of their first locations
    n: np.ndarray  # locations per class
    base: np.ndarray  # where each class starts in loc
    loc: np.ndarray  # table slot of every location, class after class, each in draw order
    start: np.ndarray  # (table.preps, classes): class locations before each attempt's first
    alen: np.ndarray  # locations of one attempt per class
    steps: tuple  # data step of each tally
    screen: dict  # class -> screen_threshold of its nominal locations, n * t_max
    residual: np.ndarray | None  # (2, 128): signature of an incoming x / z residual


def _plan(config: ExperimentConfig) -> _Plan:
    t_max = config.t_max if config.mode == "stabilize" else 1
    return _build_plan(config.mode, t_max, config.noise)


@functools.lru_cache(maxsize=64)  # far more than the cells of a sweep; a plan is tens of kB
def _build_plan(mode, t_max, noise) -> _Plan:
    # Stabilize repeats memory_t20's cycle, a channel step and a recovery, so
    # it runs that table t_max times: a data error in the channel step also
    # stands for the residual a recovery inherits, which its gates do not change.
    table = _table("memory_t20" if mode == "stabilize" else mode)
    kinds = dict(zip(N_CODES.values(), N_CODES))  # number of codes -> kind
    p = np.array([noise.epsilon, noise.gamma])[table.rate]
    locs = [(kinds[k], q) for k, q in zip(table.codes.tolist(), p.tolist())]
    classes = tuple(dict.fromkeys(c for c in locs if c[1] > 0))
    cls = np.array([classes.index(c) if c in classes else len(classes) for c in locs])
    hot = cls[:, None] == np.arange(len(classes))  # (location, class)
    n = hot.sum(axis=0)
    loc = np.argsort(cls, kind="stable")[:n.sum()]  # class by class, each in slot order
    # an attempt's locations are contiguous, and every prep op runs the one
    # shared attempt, so attempt 0 gives the lengths of all
    attempt, first = np.unique(table.prep, return_index=True)
    start = (np.cumsum(hot, axis=0) - hot)[first[attempt >= 0]]
    alen = hot[table.prep == 0].sum(axis=0)
    steps = tuple(table.step + k * RecoverySchedule.total_steps for k in range(t_max))
    residual = None
    if mode == "stabilize":
        qubits = np.arange(N_DATA)  # the channel step's slot of each data qubit: the first draw's
        units = table.sig[table.case0[qubits] + np.array([[0], [2]])]  # X, Z on each qubit
        bits = (np.arange(128)[:, None] >> qubits) & 1
        residual = np.bitwise_xor.reduce(np.where(bits, units[:, None], _SIG(0)), axis=2)
    screen = {c: screen_threshold(c[1], k * t_max) for c, k in zip(classes, n.tolist())}
    return _Plan(table, classes, n, np.cumsum(n) - n, loc, start, alen, steps, screen, residual)


def _faults(plan: _Plan, bank, n, start=None):
    """(row, case, slot) of every fault bank draws over n[c] locations of each
    class c of plan: nominal ones, or, given start, those of the attempt that
    row i reruns, which begin at start[i, c] in the class."""
    found = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, _U8),)]
    for c, (kind, p) in enumerate(plan.classes):
        if n[c]:
            r, off, code = bank.faults(kind, p, int(n[c]))
            found.append((r, np.full(r.size, c), off, code))
    row, cls, off, code = (np.concatenate(a) for a in zip(*found))
    if start is not None:
        off += start[row, cls]
    slot = plan.loc[plan.base[cls] + off]
    return row, plan.table.case0[slot] + code - 1, slot


def _xor_kept(table: _Table, row, case, slot, acc):
    """The keep rule: XOR into acc[row] the signatures of the faults (row,
    case, slot) that the row keeps.  Every (row, ancilla attempt) whose flags
    XOR to 1 is rejected and drops its faults; every other fault is kept.
    Returns (row, prep) of each attempt rejected."""
    width = table.preps + 1  # per row: column 0 for no attempt, 1 + i for prep i
    pair = row * width + 1 + table.prep[slot]
    flips = np.zeros(acc.size * width, dtype=bool)
    np.bitwise_xor.at(flips, pair[table.flag[case]], True)  # only attempts raise flags
    keep = ~flips[pair]
    np.bitwise_xor.at(acc, row[keep], table.sig[case[keep]])
    rejected = np.flatnonzero(flips)
    return rejected // width, rejected % width - 1


def _signatures(plan: _Plan, recoveries: int, bank, first) -> np.ndarray:
    """XOR of the signatures of the faults each trial of the `StreamBank`
    bank keeps in each of a run of recoveries of plan, one row per recovery:
    recovery k's prep i is ancilla attempt first + k * table.preps + i of
    the program.

    Each recovery draws its nominal locations in one pass, class by class,
    in recovery order, and keeps them by `_xor_kept`.  The rejected attempts
    of all the recoveries then rerun together, one batch per try:
    `bank.rerun` draws each one's locations of every class from its own
    substream, so the order of the reruns moves no location, and a rerun
    goes through `_xor_kept` too, into a word per rerun row, which is added
    to its (recovery, trial) accumulator.  An attempt's locations sit at the
    same table slots in every recovery, so the plan maps the reruns of all."""
    table = plan.table
    preps = table.preps
    acc = np.zeros((recoveries, bank.size), dtype=_SIG)
    owner, attempt = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]  # the rejected
    for k in range(recoveries):
        # the faults go on return, so a window holds one recovery's at a time
        trial, prep = _xor_kept(table, *_faults(plan, bank, plan.n), acc[k])
        owner.append(trial)
        attempt.append(k * preps + prep)
    owner, attempt = np.concatenate(owner), np.concatenate(attempt)
    for j in range(1, MAX_PREP_ATTEMPTS):
        if not owner.size:
            return acc
        src = bank.rerun(owner, first + attempt, j)
        faults = _faults(plan, src, plan.alen, plan.start[attempt % preps])
        rerun = np.zeros(src.size, dtype=_SIG)  # a rerun row holds one attempt
        rejected, _ = _xor_kept(table, *faults, rerun)
        np.bitwise_xor.at(acc, (attempt // preps, owner), rerun)
        owner, attempt = owner[rejected], attempt[rejected]
    raise AncillaRejectionError(
        f"{np.unique(owner).size} trials exceeded {MAX_PREP_ATTEMPTS} ancilla attempts"
    )


def _kernel(config: ExperimentConfig, bank: StreamBank):
    """Every trial of bank through config's signature table; returns each
    tally as (step, joint class counts), as `_run` does.  The recoveries run
    in windows of max(1, BATCH // bank.size), each window's reruns in one
    batch per try, so a window's accumulators and reruns hold about BATCH
    trial-recoveries at most."""
    plan = _plan(config)
    x = z = np.zeros(bank.size, dtype=_SIG)
    tallies = []
    window = max(1, BATCH // max(1, bank.size))
    for k in range(0, len(plan.steps), window):
        steps = plan.steps[k:k + window]
        accs = _signatures(plan, len(steps), bank, k * plan.table.preps)
        for acc, step in zip(accs, steps):
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


def _run_chunk(config: ExperimentConfig, start: int, size: int) -> list[TrialStats]:
    """TrialStats per tally of a chunk of trials.  Only the trials with a
    fault among their nominal locations are run, through the signature kernel."""
    idx = np.arange(start, start + size, dtype=np.uint64)
    live = StreamBank.faulting(config.master_seed, idx, _plan(config).screen)
    out = []
    for step, counts in _kernel(config, live):
        counts[0] += size - live.size  # the skipped trials: class (0, 0)
        out.append(TrialStats(step, counts.reshape(4, 4), size))
    return out


def _taken(jobs, cursor):
    """(number, job) of each job this process takes from the shared cursor,
    the next job to run, until none are left."""
    while True:
        with cursor.get_lock():
            j = cursor.value
            cursor.value = j + 1
        if j >= len(jobs):
            return
        yield j, jobs[j]


def _worker(configs, jobs, cursor, conn) -> None:
    """A forked worker: takes chunks from the cursor until none are left,
    then sends one message, the (job, TrialStats list) pairs of its chunks,
    or the exception a chunk raised."""
    try:
        msg = [(j, _run_chunk(configs[c], start, n)) for j, (c, start, n) in _taken(jobs, cursor)]
    except Exception as exc:  # re-raised in the caller
        msg = exc
    conn.send(msg)
    conn.close()


def _forked_parts(configs, jobs, workers: int) -> list:
    """Each job's TrialStats list, from the caller, worker 0, and `workers`
    - 1 forked workers, each taking the next job from one shared cursor, so
    a slow process just takes fewer.  The caller reads the workers' messages
    between its own chunks and after its last: a worker's exception is
    re-raised here, and so is the exit code of one that sends none, and the
    other workers are terminated."""
    ctx = multiprocessing.get_context("fork")
    cursor = ctx.Value("q", 0)
    procs, readers = [], {}  # reader -> its worker's number
    parts = [None] * len(jobs)

    def collect(timeout=None):
        for recv in wait(list(readers), timeout):
            w = readers.pop(recv)
            try:
                msg = recv.recv()
            except EOFError:
                procs[w - 1].join()
                raise RuntimeError(
                    f"sweep worker {w} exited with code {procs[w - 1].exitcode} "
                    "without sending its result"
                ) from None
            finally:
                recv.close()
            if isinstance(msg, Exception):
                raise msg
            for j, part in msg:
                parts[j] = part

    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(configs, jobs, cursor, send), daemon=True)
            proc.start()
            send.close()  # so a worker that dies reads as EOF here
            procs.append(proc)
            readers[recv] = w
        for j, (cell, start, n) in _taken(jobs, cursor):
            parts[j] = _run_chunk(configs[cell], start, n)
            collect(timeout=0)
        while readers:
            collect()
    finally:
        for recv in readers:
            recv.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    return parts


def run_experiments(configs, threads: int = 1) -> list[list[TrialStats]]:
    """Run several experiments (sweep cells) on at most one worker per chunk;
    returns each config's TrialStats per tally, merged over its chunks in
    order.  Where the platform can fork, the caller runs chunks as worker 0
    beside forked workers, which inherit the configs and plans, every worker
    taking the next chunk from a shared cursor; elsewhere a process pool
    runs one task per chunk."""
    for config in configs:
        _warn_small_n(config)
        _plan(config)  # plans built before any fork
    # The caller of a forked run takes chunks too, and keeps its largest
    # chunk's peak resident set for the rest of the process, while forked
    # workers exit; so forked runs cut chunks half as large, and a serial
    # run keeps whole ones, whose per-chunk overhead is lower.
    size = BATCH // 2 if threads > 1 and _HAS_FORK else BATCH
    jobs = [
        (cell, start, min(size, config.trial_offset + config.trials - start))
        for cell, config in enumerate(configs)
        for start in range(config.trial_offset, config.trial_offset + config.trials, size)
    ]
    workers = min(threads, len(jobs))
    if workers <= 1:
        parts = [_run_chunk(configs[cell], start, n) for cell, start, n in jobs]
    elif _HAS_FORK:
        parts = _forked_parts(configs, jobs, workers)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_run_chunk, configs[cell], start, n) for cell, start, n in jobs]
            parts = [f.result() for f in futs]
    results = [None] * len(configs)
    for (cell, _, _), part in zip(jobs, parts):
        prev = results[cell]
        results[cell] = part if prev is None else [a + b for a, b in zip(prev, part)]
    return results


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
        # tuple.__new__ builds each case in C, without _make's Python frame
        fields = product(range(slot, slot + n), codes, (draw,))
        cases += map(tuple.__new__, repeat(FaultCase), fields)
        slot += n
    return cases


def run_fault_plan(
    config: ExperimentConfig, slots, codes
) -> tuple[np.ndarray, np.ndarray]:
    """Replay one trial per plan row with the planned Paulis forced in, and
    return each row's data residual (dx, dz): each planned code is one case
    of the signature table, kept or dropped by `_xor_kept` as a trial's
    nominal faults are, and reruns are fault-free.  A plan that
    `FaultPlanSource` rejects against the program's locations raises
    ValueError, and so does a stabilize config: one table holds one
    recovery."""
    if config.mode == "stabilize":
        raise ValueError("fault plans replay a sweep mode, not mode 'stabilize'")
    table = _table(config.mode)
    plan = FaultPlanSource(slots, codes, table.codes)
    sig = np.zeros(plan.size, dtype=_SIG)
    _xor_kept(table, plan.rows, table.case0[plan.slots] + plan.codes - 1, plan.slots, sig)
    dx, dz = _correct(sig)
    return dx.astype(_U8), dz.astype(_U8)


def certify_single_faults() -> CertificationReport:
    """Prove every single fault in one recovery block is ideally recoverable.

    Every error location (memory slot, gate, measurement) of a full channel
    step plus recovery is hit with every possible Pauli (or Pauli pair);
    the run must leave a residual that one ideal recovery maps to the
    trivial class in both sectors.
    """
    table = _table("memory_t20")
    # a case that makes its attempt's verification fire is dropped with the
    # attempt, whose rerun is fault-free; every other case keeps its signature
    dx, dz = _correct(np.where(table.flag, _SIG(0), table.sig))
    bad = np.flatnonzero(IDEAL_FAILS[dx] | IDEAL_FAILS[dz])
    cases = []
    if bad.size:  # the cases only label the failures
        config = ExperimentConfig("memory_t20", NoiseParams.zero())
        cases = enumerate_fault_cases(config)
    return CertificationReport(len(table.case0), len(table.sig), [cases[i] for i in bad])

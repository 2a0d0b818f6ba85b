"""Monte Carlo experiments: the interpreter of the circuit's op program.

`_execute` runs a `circuit.program()` on a batch of trials.  Each frame is a
packed uint8 bit mask per trial and register, and each op becomes a few
numpy operations across the batch.  Noise comes from a source: `StreamBank`
for Monte Carlo trials, `FaultPlanSource` for planned faults,
`RecordingSource` to number the error locations.  Randomness is keyed by
(master_seed, trial_index, location class, fault ordinal), so results are
independent of batch size, worker count and chunk order; a scalar trial is
just a batch of one.

A Monte Carlo chunk first skips its fault-free trials.  `_nominal_locations`
counts, per noise class (kind, p), the locations of one pass in which no
ancilla is rejected.  A trial with no fault among those locations rejects no
ancilla, so it consumes exactly them and ends with residual 0: it counts as
class (0, 0) at every tally without being run.  The program runs only on the
other trials, through a `StreamBank` of theirs.

Every recovery of a program ends in a tally op, which counts the joint
(x, z) residual classes at its correction step.  An experiment's result is
one `TrialStats` per tally: one for a sweep mode, t_max for stabilize.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import codebook
from .circuit import (
    ANC,
    BIT,
    DATA,
    GAMMA,
    MODES,
    PHASE,
    RecoverySchedule,
    program,
)
from .noise import (
    PAULI_X_BIT,
    PAULI_Z_BIT,
    FaultPlanSource,
    NoiseParams,
    RecordingSource,
    StreamBank,
    fault_free,
)

MAX_PREP_ATTEMPTS = 100

_U8 = np.uint8

CLASS_LUT = codebook.tables().class_lut  # 7-bit residual -> class 0..3
CORR_LUT = np.array([codebook.correction_for(s) for s in range(8)], dtype=_U8)
PARITY = np.array([bin(i).count("1") & 1 for i in range(256)], dtype=_U8)
IDEAL_FAILS = CLASS_LUT >= 2  # ideal recovery leaves a logical error


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


def _majority3(a, b, c):
    """Whole-word majority; no quorum (all three distinct) means no correction."""
    return np.where(a == b, a, np.where(b == c, b, np.where(a == c, a, 0)))


def _execute(ops, src, rates, m, idx=None, prefix=""):
    """Run an op program for m trials (rows idx of src; None: all) on fresh
    registers, prefixing its draw tags.  Returns the frames x, z per register,
    the flags of the last verification readout, and each tally as (step,
    joint class counts indexed 4 * x_class + z_class)."""
    x = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    z = [np.zeros(m, dtype=_U8), np.zeros(m, dtype=_U8)]
    syn = np.zeros((2, 3, m), dtype=_U8)  # [sector, round] syndrome words
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
            cc = b[:, col] >> 2
            tc = b[:, col] & 3
            x[rc] ^= PAULI_X_BIT[cc] << c
            z[rc] ^= PAULI_Z_BIT[cc] << c
            x[rt] ^= PAULI_X_BIT[tc] << t
            z[rt] ^= PAULI_Z_BIT[tc] << t
        elif kind == "CNOT":
            rc, c, rt, t = args
            x[rt] ^= ((x[rc] >> c) & 1) << t
            z[rc] ^= ((z[rt] >> t) & 1) << c
        elif kind == "pauli1":
            rate, n_steps, width, tag, key = args
            bufs[key] = src.depolarize_steps(rates[rate], n_steps, width, idx, prefix + tag)
        elif kind == "pauli2":
            n, tag, key = args
            bufs[key] = src.cnot_pairs(rates[GAMMA], n, idx, prefix + tag)
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
                syn[sector, rnd] |= bit << row
        elif kind == "I":
            key, r, _ = args
            b = bufs[key]
            if b is not None:
                x[r] ^= np.bitwise_xor.reduce(b[0], axis=1)
                z[r] ^= np.bitwise_xor.reduce(b[1], axis=1)
        elif kind == "prep":
            x[ANC], z[ANC] = _prepare(*args, src, rates, m)
        elif kind == "P":
            x[DATA] ^= CORR_LUT[_majority3(*syn[BIT])]
            z[DATA] ^= CORR_LUT[_majority3(*syn[PHASE])]
            syn[:] = 0
        elif kind == "tally":
            joint = CLASS_LUT[x[DATA]] * 4 + CLASS_LUT[z[DATA]]
            tallies.append((step, np.bincount(joint, minlength=16)))
    return x, z, reject, tallies


def _prepare(attempt, tag, src, rates, m):
    """Verified ancillas for m trials, resynthesizing each rejected one."""
    x, z, reject, _ = _execute(attempt, src, rates, m, prefix=tag)
    ax, az = x[ANC], z[ANC]
    idx = np.nonzero(reject)[0]
    attempts = 1
    while idx.size:
        if attempts >= MAX_PREP_ATTEMPTS:
            raise AncillaRejectionError(
                f"{idx.size} trials exceeded {MAX_PREP_ATTEMPTS} ancilla attempts"
            )
        x, z, rej, _ = _execute(attempt, src, rates, idx.size, idx, tag)
        ax[idx] = x[ANC]
        az[idx] = z[ANC]
        idx = idx[rej]
        attempts += 1
    return ax, az


def _nominal_locations(ops, rates) -> Counter:
    """Locations per noise class (kind, p), p > 0, of one pass of ops in which
    no ancilla is rejected: each prep op counts its attempt once."""
    counts: Counter = Counter()
    for kind, _, _, args in ops:
        if kind == "prep":
            counts += _nominal_locations(args[0], rates)
        elif kind == "pauli1" and rates[args[0]] > 0:
            counts[kind, rates[args[0]]] += args[1] * args[2]
        elif kind == "pauli2" and rates[GAMMA] > 0:
            counts[kind, rates[GAMMA]] += args[0]
    return counts


def _run(config: ExperimentConfig, src):
    """One batch through config's program; returns (dx, dz, tallies)."""
    rates = (config.noise.epsilon, config.noise.gamma)
    x, z, _, tallies = _execute(config.program(), src, rates, src.size)
    return x[DATA], z[DATA], tallies


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
    fault among their nominal locations are run."""
    rates = (config.noise.epsilon, config.noise.gamma)
    nominal = _nominal_locations(config.program(), rates)
    idx = np.arange(start, start + size, dtype=np.uint64)
    live = idx[~fault_free(config.master_seed, idx, nominal)]
    _, _, tallies = _run(config, StreamBank(config.master_seed, live))
    out = []
    for step, counts in tallies:
        counts[0] += size - live.size  # the skipped trials: class (0, 0)
        out.append(TrialStats(step, counts.reshape(4, 4), size))
    return out


def _live_share(config: ExperimentConfig) -> float:
    """Expected share of config's trials that a chunk runs: those with a
    fault among the nominal locations."""
    rates = (config.noise.epsilon, config.noise.gamma)
    nominal = _nominal_locations(config.program(), rates)
    return 1.0 - math.prod((1.0 - p) ** n for (_, p), n in nominal.items())


def run_experiments(configs, threads: int = 1) -> list[list[TrialStats]]:
    """Run several experiments (sweep cells) over one worker pool; returns
    each config's TrialStats per tally, merged over its chunks in order.
    The pool gets the costliest chunks (size x live share) first, so it
    does not end on them."""
    size = batch_size()
    for config in configs:
        _warn_small_n(config)
    jobs = [
        (cell, start, min(size, config.trial_offset + config.trials - start))
        for cell, config in enumerate(configs)
        for start in range(config.trial_offset, config.trial_offset + config.trials, size)
    ]
    if threads <= 1 or len(jobs) <= 1:
        parts = [_run_chunk(configs[cell], start, n) for cell, start, n in jobs]
    else:
        live = [_live_share(config) for config in configs]
        order = sorted(range(len(jobs)), key=lambda j: -jobs[j][2] * live[jobs[j][0]])
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futs = {j: pool.submit(_run_chunk, configs[jobs[j][0]], *jobs[j][1:]) for j in order}
            parts = [futs[j].result() for j in range(len(jobs))]
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


@dataclass(frozen=True)
class FaultCase:
    slot: int
    code: int
    label: str


@dataclass
class CertificationReport:
    n_locations: int
    n_cases: int
    failures: list[FaultCase]

    @property
    def passed(self) -> bool:
        return not self.failures


def enumerate_fault_cases(config: ExperimentConfig) -> list[FaultCase]:
    """All (location, Pauli) cases of one noise-free pass through config.mode."""
    rec = RecordingSource(size=1)
    _run(replace(config, noise=NoiseParams.zero(), trials=1), rec)
    cases: list[FaultCase] = []
    for r in rec.records:
        for off in range(r.n):
            where = f"{r.tag}[s{off // r.width},q{off % r.width}]"
            if r.kind == "pauli1":
                for code, name in ((1, "X"), (2, "Y"), (3, "Z")):
                    cases.append(FaultCase(r.slot + off, code, f"{where}:{name}"))
            else:
                for code in range(1, 16):
                    pair = "IXYZ"[code >> 2] + "IXYZ"[code & 3]
                    cases.append(FaultCase(r.slot + off, code, f"{where}:{pair}"))
    return cases


def run_fault_plan(
    config: ExperimentConfig, slots, codes
) -> tuple[np.ndarray, np.ndarray]:
    """Replay one trial per plan row with the planned Paulis forced in."""
    slots = np.atleast_2d(np.asarray(slots, dtype=np.int64))
    size = slots.shape[0]
    src = FaultPlanSource(size, slots, codes)
    cfg = replace(config, noise=NoiseParams.zero())
    return _run(cfg, src)[:2]


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

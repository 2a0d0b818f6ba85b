"""The benchmark's three workloads and the checks on their outputs.

Each workload runs one operation at a time through the package's public
entry points (`steane_mc.cli.main` and the engine's fault-plan functions)
and returns an `OpResult`: the program's wall time, the work it did, how
many checked units it attempted and how many failed their checks.

Checks, per unit:
  * structure: row counts, echoed inputs, probabilities in [0, 1], stderr
    recomputed from the row;
  * a z bound (`Z_BOUND` standard errors) against reference `P_fail_a1`,
    `F` and `D2` values recorded from large independent runs;
  * at the pinned seed, each data row's sha256 against the recorded digest,
    unless the CSV manifest declares a `stream_version` other than the
    recorded one, in which case the z bound alone decides;
  * for fault replay, the recorded case, location and failing-case counts
    and the digest of every (slot, code, residual) outcome.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from steane_mc import cli, engine
from steane_mc.noise import NoiseParams

Z_BOUND = 6.0
PINNED_SEED = 20040  # the seed whose data-row digests are recorded
REFERENCE_SEED = 777  # seed of the large runs behind the z-bound references


@dataclass
class OpResult:
    seconds: float  # wall time inside the package's entry points
    trials: int
    recoveries: int
    attempted: int
    failed: int
    digest: str  # digest of all checked outputs, for cross-pass comparison
    problems: list[str] = field(default_factory=list)


def op_seed(seed: int, i: int) -> int:
    """Operation 0 uses the pinned seed; later ones derive from --seed."""
    if i == 0:
        return PINNED_SEED
    return (seed * 1_000_003 + i) % (2**62) + 10**6


def read_csv(path: Path):
    """(manifest dict, header, data lines) of a steane-mc CSV."""
    manifest, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            manifest[key] = value
        elif line:
            lines.append(line)
    return manifest, lines[0].split(","), lines[1:]


def row_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def z_ok(value: float, ref: float, sigma: float) -> bool:
    return abs(value - ref) <= Z_BOUND * sigma


def binomial_z_ok(p: float, n: int, ref: float, n_ref: int) -> bool:
    """p from n trials against ref from n_ref trials, within Z_BOUND."""
    q = min(max(ref, 0.5 / n_ref), 1.0 - 0.5 / n_ref)
    return z_ok(p, ref, math.sqrt(q * (1.0 - q) * (1.0 / n + 1.0 / n_ref)))


def _quiet_cli(argv) -> int:
    """cli.main with its progress lines and small-N warnings kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="trials=.*is small")
        return cli.main(argv)


class Workload:
    name = ""
    workers = 1

    def __init__(self, ref: dict, workdir: Path):
        self.ref = ref[self.name]
        self.stream_version = ref.get("stream_version")
        self.workdir = workdir

    def digests_apply(self, seed: int, manifest: dict) -> bool:
        """Row digests are recorded for the pinned seed, size and stream only."""
        return (
            seed == PINNED_SEED
            and manifest.get("stream_version") == self.stream_version
            and self.trials == self.ref["trials"]
        )


class D2Sweep(Workload):
    """sweep memory_t20 over C x eps, then `fit --model quad` and `thresholds`."""

    name = "d2_sweep"
    C_VALUES = ("inf", "1")
    C_COLUMN = ("inf", "1.0")  # how the CSVs print C_VALUES
    EPS_GRID = "1e-4:3e-4:5"
    TRIALS = 65536

    def __init__(self, ref, workdir, trials=TRIALS):
        super().__init__(ref, workdir)
        self.trials = trials
        self.workers = min(2, os.cpu_count() or 1)
        self.eps = [float(e) for e in np.geomspace(1e-4, 3e-4, 5)]
        self.cells = [(c, e) for c in self.C_COLUMN for e in self.eps]

    def pipeline(self, seed: int, trials: int, workers: int):
        """Run the three commands; returns (seconds, exit codes, CSV paths)."""
        paths = [self.workdir / f"d2_{k}.csv" for k in ("sweep", "fit", "thr")]
        sweep, fits, thr = (str(p) for p in paths)
        argv = ["sweep", "--mode", "memory_t20", "--epsilon-grid", self.EPS_GRID,
                "--trials", str(trials), "--seed", str(seed),
                "--threads", str(workers), "--out", sweep]
        for c in self.C_VALUES:
            argv += ["--C", c]
        t0 = time.perf_counter()
        codes = [_quiet_cli(argv)]
        codes.append(_quiet_cli(["fit", "--model", "quad", "--in", sweep, "--out", fits]))
        codes.append(_quiet_cli(["thresholds", "--fits", fits, "--out", thr]))
        return time.perf_counter() - t0, codes, paths

    def run(self, seed: int, workers: int) -> OpResult:
        seconds, codes, paths = self.pipeline(seed, self.trials, workers)
        n = len(self.cells)
        trials = n * self.trials
        if codes != [0, 0, 0]:
            return OpResult(seconds, trials, trials, n, n, "", [f"exit codes {codes}"])
        bad, problems, digest = self.check(seed, *paths)
        return OpResult(seconds, trials, trials, n, len(bad), digest, problems)

    def check(self, seed, sweep, fits, thr):
        """Returns (failed cells, problems, digest of the sweep's data rows)."""
        ref = self.ref
        man, header, rows = read_csv(sweep)
        problems, bad = [], set()
        if header != ref["columns"] or len(rows) != len(self.cells):
            return set(self.cells), [f"sweep CSV: {len(rows)} rows, header {header}"], ""
        use_digest = self.digests_apply(seed, man)
        for i, (line, (c, eps)) in enumerate(zip(rows, self.cells)):
            d = dict(zip(header, line.split(",")))
            p, n = float(d["P_fail_a1"]), int(d["trials"])
            why = []
            if (d["mode"], d["C"], d["t_steps"], n, int(d["seed"])) != (
                "memory_t20", c, "20", self.trials, seed
            ) or not _close(float(d["epsilon"]), eps):
                why.append("echoed inputs")
            probs = [float(d[k]) for k in ("P_E_strict", "P_fail_a1", "eta0", "F_a1", "p_ec1")]
            if not all(0.0 <= q <= 1.0 for q in probs) or p > float(d["P_E_strict"]):
                why.append("probability range")
            if not _close(float(d["stderr"]), math.sqrt(p * (1.0 - p) / n)):
                why.append("stderr")
            if not binomial_z_ok(p, n, ref["P_fail_a1"][i], ref["reference_trials"]):
                why.append(f"P_fail_a1 {p} vs reference {ref['P_fail_a1'][i]}")
            if use_digest and row_sha(line) != ref["row_sha256"][i]:
                why.append("row digest")
            if why:
                bad.add((c, eps))
                problems.append(f"cell C={c} eps={eps:.4g}: {', '.join(why)}")
        fit = rows_by(fits, "C")
        thresh = rows_by(thr, "C")
        for c in self.C_COLUMN:
            f, t = fit.get(c), thresh.get(c)
            ok = f is not None and t is not None
            if ok:
                d2, d2_err = float(f["c1"]), float(f["c1_err"])
                r2, r2_err = ref["D2"][c]
                ok = (
                    f["n_points"] == str(len(self.eps))
                    and z_ok(d2, r2, math.hypot(d2_err, r2_err))
                    and float(t["D2"]) == d2
                    and _close(float(t["eps_pth_approx"]), 40.0 / (3.0 * d2))
                    and 0.0 < float(t["eps_pth"]) < 1.0
                )
            if not ok:
                bad.update(cell for cell in self.cells if cell[0] == c)
                problems.append(f"fit or thresholds for C={c}")
        return bad, problems, row_sha("\n".join(rows))


class StabilizeHot(Workload):
    """One `stabilize` series at C=1, eps=1e-3, 30 recoveries, one worker."""

    name = "stabilize_hot"
    T_MAX = 30
    TRIALS = 4096

    def __init__(self, ref, workdir, trials=TRIALS):
        super().__init__(ref, workdir)
        self.trials = trials

    def series(self, seed: int, trials: int, workers: int):
        """Run the command; returns (seconds, exit code, CSV path)."""
        path = self.workdir / "stab.csv"
        argv = ["stabilize", "--C", "1", "--epsilon", "1e-3", "--t-max", str(self.T_MAX),
                "--trials", str(trials), "--seed", str(seed),
                "--threads", str(workers), "--out", str(path)]
        t0 = time.perf_counter()
        code = _quiet_cli(argv)
        return time.perf_counter() - t0, code, path

    def run(self, seed: int, workers: int) -> OpResult:
        seconds, code, path = self.series(seed, self.trials, workers)
        recoveries = self.trials * self.T_MAX
        if code != 0:
            return OpResult(seconds, self.trials, recoveries, 1, 1, "", [f"exit code {code}"])
        problems, digest = self.check(seed, path)
        return OpResult(seconds, self.trials, recoveries, 1, int(bool(problems)), digest, problems)

    def check(self, seed, path):
        ref = self.ref
        man, header, rows = read_csv(path)
        if header != ref["columns"] or len(rows) != self.T_MAX:
            return [f"stabilize CSV: {len(rows)} rows, header {header}"], ""
        use_digest = self.digests_apply(seed, man)
        problems = []
        for k, line in enumerate(rows):
            d = dict(zip(header, line.split(",")))
            f, n = float(d["F"]), int(d["trials"])
            why = []
            if (d["mode"], d["C"], d["recovery_index"], d["t_steps"], n, int(d["seed"])) != (
                "stabilize", "1.0", str(k + 1), str(20 * (k + 1)), self.trials, seed
            ) or not (_close(float(d["epsilon"]), 1e-3) and _close(float(d["gamma"]), 1e-3)):
                why.append("echoed inputs")
            if not 0.0 <= f <= 1.0 or not _close(float(d["stderr"]), math.sqrt(f * (1 - f) / n)):
                why.append("F range or stderr")
            if not binomial_z_ok(f, n, ref["F"][k], ref["reference_trials"]):
                why.append(f"F {f} vs reference {ref['F'][k]}")
            if use_digest and row_sha(line) != ref["row_sha256"][k]:
                why.append("row digest")
            if why:
                problems.append(f"recovery {k + 1}: {', '.join(why)}")
        return problems, row_sha("\n".join(rows))


class FaultReplay(Workload):
    """Single-fault certification of four modes through the fault-plan path.

    The seed only permutes the order of the plan rows; every row is an
    independent trial, so no case's outcome may depend on it.
    """

    name = "fault_replay"
    MODES = ("memory_t20", "ec1", "zgate", "fig5")

    def replay(self, mode: str, rng):
        """Enumerate and replay every single fault of one mode, rows permuted.

        Returns (seconds in the engine, slots, codes, dx, dz) in case order.
        """
        cfg = engine.ExperimentConfig(
            mode=mode, noise=NoiseParams.zero(), encoder_noisy=(mode == "fig5")
        )
        t0 = time.perf_counter()
        cases = engine.enumerate_fault_cases(cfg)
        seconds = time.perf_counter() - t0
        slots = np.array([c.slot for c in cases], dtype=np.int64)
        codes = np.array([c.code for c in cases], dtype=np.uint8)
        perm = rng.permutation(len(cases))
        t0 = time.perf_counter()
        px, pz = engine.run_fault_plan(cfg, slots[perm, None], codes[perm, None])
        seconds += time.perf_counter() - t0
        dx, dz = np.empty_like(px), np.empty_like(pz)
        dx[perm], dz[perm] = px, pz
        return seconds, slots, codes, dx, dz

    @staticmethod
    def outcome(slots, codes, dx, dz) -> dict:
        """Case, location and failing-case counts plus a digest of every outcome."""
        order = np.lexsort((codes, slots))
        table = np.stack([slots[order], codes[order], dx[order], dz[order]]).astype(np.int64)
        fails = engine.IDEAL_FAILS[dx] | engine.IDEAL_FAILS[dz]
        return {
            "cases": int(len(slots)),
            "locations": int(len(np.unique(slots))),
            "failing": int(np.count_nonzero(fails)),
            "sha256": hashlib.sha256(table.tobytes()).hexdigest(),
        }

    def run(self, seed: int, workers: int) -> OpResult:
        rng = np.random.default_rng(seed)
        seconds, cases, failed, problems, digests = 0.0, 0, 0, [], []
        for mode in self.MODES:
            dt, *arrays = self.replay(mode, rng)
            got, want = self.outcome(*arrays), self.ref["modes"][mode]
            seconds += dt
            cases += got["cases"]
            digests.append(got["sha256"])
            why = [f"{k} {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
            if why:
                failed += 1
                problems.append(f"{mode}: {', '.join(why)}")
        return OpResult(seconds, cases, cases, len(self.MODES), failed,
                        row_sha(",".join(digests)), problems)


def rows_by(path: Path, key: str) -> dict:
    _, header, rows = read_csv(path)
    return {d[key]: d for d in (dict(zip(header, r.split(","))) for r in rows)}


WORKLOADS = {w.name: w for w in (D2Sweep, StabilizeHot, FaultReplay)}

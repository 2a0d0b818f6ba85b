"""Record bench/reference.json: the values the benchmark checks outputs against.

    python3 bench/record_reference.py          # about three minutes on 2 cores

Records, for the current code and random stream:
  * z-bound references from large runs at REFERENCE_SEED: P_fail_a1 per
    d2_sweep cell, D2 per C with its fit error, F per stabilize recovery;
  * sha256 of every data row of the standard-size operation at PINNED_SEED;
  * case, location and failing-case counts and the outcome digest of each
    fault_replay mode.
Re-record only when a change declares a new random stream (a new
`stream_version` manifest key) or changes the schedule on purpose, and say
so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH, RESULTS, load_package

D2_REFERENCE_TRIALS = 1 << 20
STABILIZE_REFERENCE_TRIALS = 1 << 18


def _require(ok: bool, detail) -> None:
    if not ok:
        raise RuntimeError(f"reference run failed: {detail}")


def main() -> int:
    load_package()
    import numpy as np
    from steane_mc.circuit import RecoverySchedule, build_recovery
    from workloads import (
        PINNED_SEED, REFERENCE_SEED, D2Sweep, FaultReplay, StabilizeHot, read_csv,
    )
    import workloads

    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    workers = os.cpu_count() or 1
    skeleton = {name: {} for name in workloads.WORKLOADS}
    ref = {
        "z_bound": workloads.Z_BOUND,
        "pinned_seed": PINNED_SEED,
        "reference_seed": REFERENCE_SEED,
        "schedule_fingerprint": build_recovery(RecoverySchedule()).fingerprint(),
    }

    d2 = D2Sweep(skeleton, work)
    _, codes, (sweep, fits, _) = d2.pipeline(REFERENCE_SEED, D2_REFERENCE_TRIALS, workers)
    _require(codes == [0, 0, 0], codes)
    man, columns, rows = read_csv(sweep)
    ref["stream_version"] = man.get("stream_version")
    fit = workloads.rows_by(fits, "C")
    entry = {
        "trials": d2.trials,
        "columns": columns,
        "reference_trials": D2_REFERENCE_TRIALS,
        "P_fail_a1": [float(r.split(",")[columns.index("P_fail_a1")]) for r in rows],
        "D2": {c: [float(f["c1"]), float(f["c1_err"])] for c, f in fit.items()},
    }
    _, codes, (sweep, _, _) = d2.pipeline(PINNED_SEED, d2.trials, d2.workers)
    _require(codes == [0, 0, 0], codes)
    entry["row_sha256"] = [workloads.row_sha(r) for r in read_csv(sweep)[2]]
    ref["d2_sweep"] = entry

    st = StabilizeHot(skeleton, work)
    _, code, path = st.series(REFERENCE_SEED, STABILIZE_REFERENCE_TRIALS, workers)
    _require(code == 0, code)
    _, columns, rows = read_csv(path)
    entry = {
        "trials": st.trials,
        "columns": columns,
        "reference_trials": STABILIZE_REFERENCE_TRIALS,
        "F": [float(r.split(",")[columns.index("F")]) for r in rows],
    }
    _, code, path = st.series(PINNED_SEED, st.trials, 1)
    _require(code == 0, code)
    entry["row_sha256"] = [workloads.row_sha(r) for r in read_csv(path)[2]]
    ref["stabilize_hot"] = entry

    fr = FaultReplay(skeleton, work)
    rng = np.random.default_rng(PINNED_SEED)
    ref["fault_replay"] = {
        "modes": {m: FaultReplay.outcome(*fr.replay(m, rng)[1:]) for m in fr.MODES}
    }
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {BENCH / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

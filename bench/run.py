"""steane-mc benchmark: time to result for three workloads, plus a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload d2_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

`--trace 0` sets up the package several times in fresh interpreters, then
repeats the workload's operation for `--seconds` seconds and reports the
end-to-end metrics named in BENCHMARK.json (medians over set-ups and
operations).  `--trace 1` instead runs the operation at the pinned seed in
separate passes (untraced, traced twice, and pooled when the workload uses
more than one worker) and reports the per-layer metrics.

Every metric is printed as `name = value unit`; the last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  A results
file `BENCH_<workload>_trace<0|1>.json` (and, when tracing, a spans file)
is written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 21


class BenchError(RuntimeError):
    pass


def load_package():
    """Import steane_mc from this checkout's src/, never from anywhere else."""
    if not (SRC / "steane_mc" / "__init__.py").is_file():
        raise BenchError(f"no steane_mc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import steane_mc

    if Path(steane_mc.__file__).resolve().parent != (SRC / "steane_mc").resolve():
        raise BenchError(f"steane_mc imported from {steane_mc.__file__}, not {SRC}")
    return steane_mc


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_once(fingerprint: str) -> float:
    """Wall time of one fresh-interpreter set-up; checks what it built."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != fingerprint:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return seconds


def host_config(wl, seed: int, fingerprint: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "STEANE_MC_BATCH": os.environ.get("STEANE_MC_BATCH", "unset (32768)"),
        "workers": wl.workers,
        "seed": seed,
        "schedule_fingerprint": fingerprint,
        "git_commit": git_commit(),
    }


def quartiles(values) -> dict:
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return {"n": len(v), "min": v[0], "q1": q[0], "median": q[1], "q3": q[2], "max": v[-1]}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_timed(wl, seed: int, seconds: float, fingerprint: str):
    from workloads import op_seed

    # Set-up probes are spread evenly over the window, so that set-up and
    # throughput sample the same stretch of machine load.
    setups, ops = [], []
    t0 = time.perf_counter()
    while True:
        frac = min(1.0, (time.perf_counter() - t0) / seconds) if seconds > 0 else 1.0
        while len(setups) < max(1, math.ceil(SETUP_REPEATS * frac)):
            setups.append(setup_once(fingerprint))
        if ops and frac >= 1.0:
            break
        ops.append(wl.run(op_seed(seed, len(ops)), wl.workers))
    metrics = {
        "setup_s": statistics.median(setups),
        "trials_per_s": statistics.median(o.trials / o.seconds for o in ops),
        "recoveries_per_s": statistics.median(o.recoveries / o.seconds for o in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "setup_s": quartiles(setups),
        "op_seconds": quartiles([o.seconds for o in ops]),
    }
    if wl.name == "fault_replay":  # each replayed fault case is one trial
        extra["fault_cases_per_s"] = metrics["trials_per_s"]
    return metrics, extra, ops, []


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(wl):
    """Untraced, traced (twice) and pooled passes at the pinned seed."""
    from steane_mc import circuit, codebook
    from tracing import Tracer
    from workloads import PINNED_SEED

    def light(run_id):
        return Tracer(run_id, modules=("engine",), noise=False)

    problems = []
    with light("untraced") as base:
        op_base = wl.run(PINNED_SEED, 1)
    traced = []
    for k in range(2):
        with Tracer(f"traced-{k}") as tr:
            codebook.build_tables()
            circuit.build_recovery(circuit.RecoverySchedule()).fingerprint()
            traced.append((tr, wl.run(PINNED_SEED, 1)))
    pooled = []
    if wl.workers > 1:
        for k in range(2):
            with light(f"pooled-{k}") as tr:
                pooled.append((tr, wl.run(PINNED_SEED, wl.workers)))
    ops = [op_base] + [o for _, o in traced + pooled]
    if len({o.digest for o in ops}) != 1:
        problems.append("output digests differ between passes or worker counts")
    (tr, _), (tr2, _) = traced
    counts = tr.deterministic_counts()
    if counts != tr2.deterministic_counts():
        problems.append(f"counts differ: {counts} vs {tr2.deterministic_counts()}")
    pool_tr = pooled[0][0] if pooled else base
    pool_counts = {k: pool_tr.counts[k] for k in ("pool.spawns", "pool.chunks")}
    if pooled and pool_counts != {k: pooled[1][0].counts[k] for k in pool_counts}:
        problems.append("pool counts differ between pooled passes")

    st = tr.self_times()
    wall = tr.wall()
    if abs(sum(st.values()) - wall) > 1e-6 * wall:
        problems.append(f"layer self times {sum(st.values())} do not add up to {wall}")
    s = lambda layer: st.get(layer, 0.0)  # noqa: E731
    noise = {g: s(f"noise.{g}") for g in ("prep", "round", "data", "other")}
    trials = counts.get("noise.trials", 0)
    eng1 = base.outer_time("engine")
    eff = 1.0
    if pooled:
        engw = statistics.median(t.outer_time("engine") for t, _ in pooled)
        eff = eng1 / (wl.workers * engw)
    metrics = {
        "noise.busy_s": sum(noise.values()),
        **{f"noise.{g}_s": v for g, v in noise.items()},
        "noise.keys_s": s("noise.keys"),
        "noise.faultplan_s": s("noise.faultplan"),
        "noise.recording_s": s("noise.recording"),
        "noise.draws": counts.get("noise.draws", 0),
        "noise.draws_per_trial": _ratio(counts.get("noise.draws", 0), trials),
        "noise.faults": counts.get("noise.faults", 0),
        "noise.faults_per_trial": _ratio(counts.get("noise.faults", 0), trials),
        "engine.self_s": s("engine"),
        "engine.batches": counts.get("engine.batches", 0),
        "engine.noise_calls": counts.get("engine.noise_calls", 0),
        "engine.noise_calls_per_batch": _ratio(
            counts.get("engine.noise_calls", 0), counts.get("engine.batches", 0)
        ),
        "engine.preps": counts.get("engine.preps", 0),
        "engine.prep_retries": counts.get("engine.prep_retries", 0),
        "engine.prep_retry_per_prep": _ratio(
            counts.get("engine.prep_retries", 0), counts.get("engine.preps", 0)
        ),
        "pool.spawns": pool_counts["pool.spawns"],
        "pool.chunks": pool_counts["pool.chunks"],
        "pool.parallel_eff": eff,
        "circuit.build_s": s("circuit"),
        "codebook.tables_s": s("codebook"),
        "cli.self_s": s("cli"),
        "analysis.fit_s": s("analysis"),
        "harness.self_s": s("harness"),
        "trace.wall_s": wall,
        "tracing.overhead_frac": statistics.median(o.seconds for _, o in traced)
        / op_base.seconds - 1.0,
    }
    extra = {
        "layer_self_s": st,
        "counts": counts,
        "pass_seconds": {t.run_id: o.seconds for t, o in [(base, op_base)] + traced + pooled},
    }
    tracers = [base] + [t for t, _ in traced + pooled]
    return metrics, extra, ops, problems, tracers


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, make=None):
    """Run one workload; returns the result record (also written to RESULTS)."""
    from steane_mc.circuit import RecoverySchedule, build_recovery
    from workloads import WORKLOADS

    e2e, layer = declared_metrics()
    units = layer if trace else e2e
    ref = json.loads((BENCH / "reference.json").read_text())
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    wl = (make or WORKLOADS[name])(ref, work)
    fingerprint = build_recovery(RecoverySchedule()).fingerprint()
    if trace:
        metrics, extra, ops, problems, tracers = run_traced(wl)
    else:
        metrics, extra, ops, problems = run_timed(wl, seed, seconds, fingerprint)
        tracers = []
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    # a traced run adds one unit: digests and counts agree across its passes
    attempted = sum(o.attempted for o in ops) + int(trace)
    failed = sum(o.failed for o in ops) + int(bool(problems))
    problems = problems + [p for o in ops for p in o.problems]
    record = {
        "workload": name,
        "trace": int(trace),
        "host": host_config(wl, seed, fingerprint),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "problems": problems,
    }
    (RESULTS / f"BENCH_{name}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if tracers:
        with open(RESULTS / f"spans_{name}.jsonl", "w") as fh:
            for t in tracers:
                for span in t.span_records():
                    fh.write(json.dumps(span) + "\n")
    return record


def print_record(record: dict, prefix: str = "") -> None:
    for key, m in record["metrics"].items():
        print(f"{prefix}{key} = {m['value']!r} {m['unit']}")
    print(f"{prefix}fail_frac = {record['fail_frac']!r} ratio")
    if "fault_cases_per_s" in record["extra"]:
        print(f"{prefix}fault_cases_per_s = {record['extra']['fault_cases_per_s']!r} 1/s")
    for p in record["problems"][:20]:
        print(f"{prefix}CHECK FAILED: {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["d2_sweep", "stabilize_hot", "fault_replay", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_record(record, f"{name}: " if len(names) > 1 else "")
            records.append(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: tiny smoke runs, tracer hygiene, checks.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from steane_mc import cli, engine, noise  # noqa: E402

REF = json.loads((BENCH / "reference.json").read_text())
TINY = {
    "d2_sweep": lambda ref, work: workloads.D2Sweep(ref, work, trials=2048),
    "stabilize_hot": lambda ref, work: workloads.StabilizeHot(ref, work, trials=128),
    "fault_replay": workloads.FaultReplay,
}


@pytest.fixture
def results(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    return tmp_path


def _snapshot():
    """Every attribute of the package's modules and noise-source classes.

    `__warningregistry__` is skipped: Python adds it when a module warns.
    """
    owners = tracing._package_modules()
    owners += [getattr(noise, name) for name in tracing.NOISE_SOURCES]
    return {
        (id(o), k): v
        for o in owners
        for k, v in list(vars(o).items())
        if k != "__warningregistry__"
    }


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_smoke(name, trace, results, monkeypatch):
    monkeypatch.setenv("STEANE_MC_BATCH", "1024")  # two chunks per d2_sweep cell
    before = _snapshot()
    record = run.run_workload(name, seed=3, seconds=0.0, trace=trace, make=TINY[name])
    after = _snapshot()
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    e2e, layer = run.declared_metrics()
    assert set(record["metrics"]) == set(layer if trace else e2e)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert (results / f"BENCH_{name}_trace{int(trace)}.json").is_file()
    values = {k: m["value"] for k, m in record["metrics"].items()}
    if trace:
        assert (results / f"spans_{name}.jsonl").is_file()
        # layer self times account for the traced wall time
        assert sum(record["extra"]["layer_self_s"].values()) == pytest.approx(values["trace.wall_s"])
        if name == "fault_replay":
            assert values["noise.draws"] == 0 and values["noise.faultplan_s"] > 0
        else:
            assert values["noise.draws_per_trial"] > 1000 and values["noise.busy_s"] > 0
        if name == "d2_sweep" and record["host"]["workers"] > 1:
            assert values["pool.spawns"] == 10 and values["pool.chunks"] == 20
    else:
        assert values["trials_per_s"] > 0 and values["setup_s"] > 0


def test_tracer_restores_every_attribute():
    before = _snapshot()
    with tracing.Tracer("t"):
        assert cli.main is not before[(id(cli), "main")]
        assert engine.ProcessPoolExecutor is not before[(id(engine), "ProcessPoolExecutor")]
        assert noise.StreamBank.cnot_pairs is not before[(id(noise.StreamBank), "cnot_pairs")]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer("t"):
            raise RuntimeError("boom")
    assert all(_snapshot()[k] is v for k, v in before.items())


def test_tag_groups():
    assert tracing.tag_group("rec/r0/g0b0/g1", 2) == ("prep", "g1")
    assert tracing.tag_group("rec/r0/g3p0/g1", 4) == ("round", "g1")
    assert tracing.tag_group("rec3/r2/g1b1/hl/m", 4) == ("prep", "hl")
    assert tracing.tag_group("rec/r1/g5p2/int/g2", 1) == ("round", "int")
    assert tracing.tag_group("rec/r1/g5p2/wait", 4) == ("round", "wait")
    for tag in ("chan", "gap4", "rec/corr/mem", "pre", "zg/gate", "enc/s1/g2"):
        assert tracing.tag_group(tag, 7)[0] == "data"
    assert tracing.tag_group("mystery", 1)[0] == "other"


def _corrupt(path, column, new):
    lines = path.read_text().splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("# "))
    cols = lines[header_at].split(",")
    row = lines[header_at + 1].split(",")
    row[cols.index(column)] = new(row[cols.index(column)])
    lines[header_at + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_digest_catches_a_corrupted_row(tmp_path):
    stab = workloads.StabilizeHot(REF, tmp_path)
    _, code, path = stab.series(workloads.PINNED_SEED, stab.trials, 1)
    assert code == 0
    assert stab.check(workloads.PINNED_SEED, path)[0] == []
    # a last-digit change keeps F inside the z bound; only the digest sees it
    _corrupt(path, "F", lambda v: v[:-1] + ("1" if v[-1] != "1" else "2"))
    problems, _ = stab.check(workloads.PINNED_SEED, path)
    assert problems and "row digest" in problems[0]


def test_z_bound_catches_a_corrupted_row(tmp_path):
    d2 = workloads.D2Sweep(REF, tmp_path, trials=2048)
    _, codes, paths = d2.pipeline(5, d2.trials, 1)
    assert codes == [0, 0, 0]
    assert d2.check(5, *paths)[0] == set()
    _corrupt(paths[0], "P_fail_a1", lambda v: "0.05")
    bad, problems, _ = d2.check(5, *paths)
    assert len(bad) == 1 and "P_fail_a1" in problems[0]


def test_fault_replay_catches_a_changed_outcome():
    fr = workloads.FaultReplay(REF, Path("."))
    _, slots, codes, dx, dz = fr.replay("ec1", np.random.default_rng(0))
    assert fr.outcome(slots, codes, dx, dz) == REF["fault_replay"]["modes"]["ec1"]
    dx[17] ^= 1
    assert fr.outcome(slots, codes, dx, dz)["sha256"] != REF["fault_replay"]["modes"]["ec1"]["sha256"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fault_replay", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

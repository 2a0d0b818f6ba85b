import math
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from codes import delta_eta3, fidelity_at, overlap_factor

from steane_mc import cli
from steane_mc import engine as eng
from steane_mc.codebook import ErrorClass, ResidualClass
from steane_mc.circuit import ATTEMPT, MODES
from steane_mc.noise import FaultPlanSource, NoiseParams, RecordingSource, StreamBank

INF = math.inf


def _cfg(mode="memory_t20", eps=0.0, C=INF, trials=1, seed=0, **kw):
    return eng.ExperimentConfig(
        mode=mode, noise=NoiseParams(eps, C), trials=trials,
        master_seed=seed, **kw
    )


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(mode="bogus")
    with pytest.raises(ValueError):
        _cfg(trials=0)
    with pytest.raises(ValueError):
        _cfg(mode="fig5")  # requires noisy encoder
    with pytest.raises(ValueError):
        _cfg(encoder_noisy=True)  # memory starts from an error-free encoded input
    with pytest.raises(ValueError):
        _cfg(mode="stabilize", encoder_noisy=True)
    with pytest.raises(ValueError):
        _cfg(mode="ec1", encoder_noisy=True)  # only fig5 runs the noisy encoder
    for seed in (-1, 2**64):  # the stream would alias them to 2^64 - 1 and 0
        with pytest.raises(ValueError, match="seed"):
            _cfg(seed=seed)
    assert _cfg(seed=2**64 - 1).master_seed == 2**64 - 1


def test_zero_noise_totality():
    (st,) = eng.run_experiments([_cfg(trials=64)])[0]
    assert st.counts[0, 0] == 64
    assert st.p_e_strict == 0.0 and st.p_fail_a1 == 0.0 and st.f_a1 == 1.0
    (st,) = eng.run_experiments([_cfg(mode="ec1", trials=16)])[0]
    assert st.p_ec1 == 0.0
    (st,) = eng.run_experiments([_cfg(mode="zgate", trials=16)])[0]
    assert st.p_fail_a1 == 0.0
    tallies = eng.run_experiments([_cfg(mode="stabilize", trials=16, t_max=4)])[0]
    assert len(tallies) == 4 and all(st.f_a1 == 1.0 for st in tallies)
    (st,) = eng.run_experiments([_cfg(mode="fig5", trials=16, encoder_noisy=True)])[0]
    assert all(fidelity_at(st, a) == 1.0 for a in np.sqrt(np.linspace(0.0, 1.0, 21)))


@pytest.mark.filterwarnings("ignore:trials=")
def test_forced_single_channel_x_is_corrected():
    # channel-step memory slots are the first 7 locations (qubit j = slot j)
    config = _cfg(trials=1)
    for j in range(7):
        dx, dz = eng.run_fault_plan(config, [[j]], [[1]])
        assert dx[0] == 0 and dz[0] == 0


def test_forced_single_channel_z_is_corrected():
    config = _cfg(trials=1)
    for j in range(7):
        dx, dz = eng.run_fault_plan(config, [[j]], [[3]])
        assert dx[0] == 0 and dz[0] == 0


def test_run_fault_plan_rejects_a_code_that_does_not_fit():
    """Slot 0 is a channel memory location; slot 9 is the first CNOT of the
    first ancilla attempt."""
    config = _cfg(trials=1)
    with pytest.raises(ValueError, match="row 0, slot 0: code 7 does not fit a one-qubit"):
        eng.run_fault_plan(config, [[0]], [[7]])
    with pytest.raises(ValueError, match="row 1, slot 9: code 21 not in 0..15"):
        eng.run_fault_plan(config, [[9], [9]], [[7], [21]])
    dx, dz = eng.run_fault_plan(config, [[9]], [[7]])  # XY at that CNOT is fine
    assert dx.shape == dz.shape == (1,)
    # a planned fault the run never reaches: a negative slot, or one at or past
    # the locations its trial drew (1,508 with no attempt rejected)
    n = sum(draw[2] for draw in eng._draws(config.program()))
    assert n == 1508
    with pytest.raises(ValueError, match="row 0, slot -5: a negative slot"):
        eng.run_fault_plan(config, [[-5]], [[1]])
    for slot in (n, 10**6):
        with pytest.raises(ValueError, match=f"row 0, slot {slot}: the trial drew only {n}"):
            eng.run_fault_plan(config, [[slot]], [[1]])
    # a slot that names no location: not an integer, or past every int64
    with pytest.raises(ValueError, match=r"row 0, slot 8\.7: a non-integral slot"):
        eng.run_fault_plan(config, [[8.7]], [[1]])
    with pytest.raises(ValueError, match=rf"row 0, slot 1e\+30: the trial drew only {n}"):
        eng.run_fault_plan(config, [[1e30]], [[1]])
    dx, dz = eng.run_fault_plan(config, [[-5, 3], [n, 3]], [[0, 1], [0, 1]])  # code 0 plans nothing
    assert dx.tolist() == dz.tolist() == [0, 0]
    # an X at slot 8, a gate of the first ancilla attempt, rejects that attempt;
    # its rerun plans no fault, so slot n stays out of reach
    table = eng._table("memory_t20")
    assert table.flag[table.case0[8]]  # the case of code 1 at slot 8
    for plan in ([[8, n]], [[0, 3], [8, n]]):
        row = len(plan) - 1
        with pytest.raises(ValueError, match=f"row {row}, slot {n}: the trial drew only {n}"):
            eng.run_fault_plan(config, plan, [[1, 1]] * len(plan))
    # a bad code inside an attempt still raises
    with pytest.raises(ValueError, match="row 0, slot 8: code 7 does not fit a one-qubit"):
        eng.run_fault_plan(config, [[8]], [[7]])
    # a code is checked at its own location, behind a rejected attempt too:
    # slot 51 is a one-qubit gate after the attempt, slot 57 a CNOT
    with pytest.raises(ValueError, match="row 0, slot 51: code 7 does not fit a one-qubit"):
        eng.run_fault_plan(config, [[8, 51]], [[1, 7]])
    dx, dz = eng.run_fault_plan(config, [[8, 57]], [[1, 7]])
    assert dx.tolist() == dz.tolist() == [0]


def test_run_fault_plan_rejects_stabilize():
    """One signature table holds one recovery, so no stabilize plan replays."""
    config = _cfg(mode="stabilize", t_max=3)
    with pytest.raises(ValueError, match="'stabilize'"):
        eng.run_fault_plan(config, [[0]], [[1]])


class _TaggingPlan(FaultPlanSource):
    """FaultPlanSource that records the tag of every sampler call, its
    reruns' calls among them, and every rerun it is asked for."""

    def __init__(self, slots, codes, fits, tags=None, reran=None):
        super().__init__(slots, codes, fits)
        self.tags = [] if tags is None else tags
        self.reran = [] if reran is None else reran

    def depolarize_steps(self, p, n_steps, width, tag=""):
        self.tags.append(tag)
        return super().depolarize_steps(p, n_steps, width, tag)

    def cnot_pairs(self, p, n, tag=""):
        self.tags.append(tag)
        return super().cnot_pairs(p, n, tag)

    def rerun(self, rows, attempt, j):
        self.reran.append((rows.tolist(), attempt, j))
        empty = np.zeros((len(rows), 0), dtype=np.int64)
        return _TaggingPlan(empty, empty, (), self.tags, self.reran)


def test_a_rejected_attempt_draws_it_once_more():
    """An X at slot 8 rejects the first ancilla attempt.  On the interpreter,
    its rerun draws that attempt's locations once more under the same tags,
    from the plan's fault-free rerun source, so the plan's cursor ends at the
    1,508 nominal locations; on the kernel too, slot 1,508 is never reached."""
    config = _cfg()
    src = _TaggingPlan([[8]], [[1]], eng._table(config.mode).codes)
    dx, dz, _ = eng._run(config, src)
    assert src.cursor == 1508
    assert src.reran == [([0], 0, 1)]
    assert dx.tolist() == dz.tolist() == [0]
    draws = list(eng._draws(config.program()))
    first = [tag for _, _, _, _, tag, prep in draws if prep == 0]
    assert len(first) == 3 and first[0].startswith("rec/r0/g0b0/")
    assert Counter(src.tags) == Counter([draw[4] for draw in draws] + first)
    dx, dz = eng.run_fault_plan(config, [[8, 1507]], [[1, 1]])
    assert dx.shape == (1,)
    with pytest.raises(ValueError, match="row 0, slot 1508: the trial drew only 1508"):
        eng.run_fault_plan(config, [[8, 1508]], [[1, 1]])


def test_forced_double_channel_x_miscorrects_to_logical():
    config = _cfg(trials=1)
    cases = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    slots = np.array([[i, j] for i, j in cases], dtype=np.int64)
    codes = np.ones_like(slots, dtype=np.uint8)
    dx, dz = eng.run_fault_plan(config, slots, codes)
    assert np.all(eng.CLASS_LUT[dx] == int(ErrorClass.LOGICAL))
    assert np.all(dz == 0)


@pytest.mark.filterwarnings("ignore:trials=")
def test_scalar_batch_thread_equivalence(monkeypatch):
    for config in (
        _cfg(eps=2e-3, C=1.0, trials=300, seed=5),
        _cfg(mode="stabilize", eps=2e-3, C=1.0, trials=300, seed=6, t_max=3),
    ):
        whole = eng.run_experiments([config])[0]
        singles = [np.zeros((4, 4), dtype=np.int64) for _ in whole]
        for i in range(300):
            tallies = eng.run_experiments([replace(config, trials=1, trial_offset=i)])[0]
            for total, st in zip(singles, tallies, strict=True):
                total += st.counts
        monkeypatch.setattr(eng, "BATCH", 37)
        batched = eng.run_experiments([config])[0]
        pooled = eng.run_experiments([config], threads=3)[0]
        monkeypatch.undo()
        for run in (batched, pooled):
            for a, b in zip(whole, run, strict=True):
                assert (a.t_steps, a.trials) == (b.t_steps, b.trials)
                assert np.array_equal(a.counts, b.counts)
        for total, st in zip(singles, whole):
            assert np.array_equal(total, st.counts)


@pytest.mark.filterwarnings("ignore:trials=")
def test_trial_offset_disjoint():
    (a,) = eng.run_experiments([_cfg(eps=2e-3, trials=500, seed=5)])[0]
    (b,) = eng.run_experiments([_cfg(eps=2e-3, trials=500, seed=5, trial_offset=500)])[0]
    assert not np.array_equal(a.counts, b.counts)  # different trials
    (both,) = eng.run_experiments([_cfg(eps=2e-3, trials=1000, seed=5)])[0]
    assert np.array_equal(a.counts + b.counts, both.counts)


def test_stabilize_time_axis_and_merge():
    tallies = eng.run_experiments([_cfg(mode="stabilize", trials=8, t_max=3)])[0]
    assert [st.t_steps for st in tallies] == [20, 40, 60]
    merged = tallies[1] + tallies[1]
    assert (merged.t_steps, merged.trials, merged.f_a1) == (40, 16, 1.0)
    with pytest.raises(ValueError, match="different steps"):
        _ = tallies[0] + tallies[1]


@pytest.mark.filterwarnings("ignore:trials=")
def test_stabilize_degrades_with_noise():
    tallies = eng.run_experiments(
        [_cfg(mode="stabilize", eps=3e-3, trials=4000, seed=9, t_max=6)]
    )[0]
    f = np.array([st.f_a1 for st in tallies])
    assert f[0] > f[-1]
    assert np.all((0.0 <= f) & (f <= 1.0))


def test_fig5_symmetry_and_deltas():
    cfg = eng.ExperimentConfig(
        mode="fig5",
        noise=NoiseParams(2e-3, 0.1),
        trials=20_000,
        master_seed=17,
        encoder_noisy=True,
    )
    (st,) = eng.run_experiments([cfg])[0]
    assert fidelity_at(st, 0.0) == pytest.approx(fidelity_at(st, 1.0), abs=1e-15)
    mid = fidelity_at(st, 1 / math.sqrt(2))
    assert mid == pytest.approx(st.eta0 + st.eta3_p + delta_eta3(st))
    # the per-class overlaps are an independent reference for F(a)
    for a in np.sqrt(np.linspace(0.0, 1.0, 21)):
        ref = sum(
            st.counts[x, z] * overlap_factor(ResidualClass(ErrorClass(x), ErrorClass(z)), a)
            for x in range(4)
            for z in range(4)
        ) / st.trials
        assert abs(ref - fidelity_at(st, a)) <= 1e-12, a


def test_monotone_degradation():
    (lo,) = eng.run_experiments([_cfg(eps=1e-3, trials=40_000, seed=2)])[0]
    (hi,) = eng.run_experiments([_cfg(eps=3e-3, trials=40_000, seed=3)])[0]
    s = math.hypot(lo.stderr_of(lo.p_fail_a1), hi.stderr_of(hi.p_fail_a1))
    assert hi.p_fail_a1 > lo.p_fail_a1 - 3 * s


def test_small_n_warning():
    with pytest.warns(UserWarning, match="trials="):
        eng.run_experiments([_cfg(eps=1e-4, trials=10)])
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        eng.run_experiments([_cfg(eps=0.0, trials=4)])  # no rates -> no warning


@pytest.mark.filterwarnings("ignore:trials=")
def test_rejection_cap_enforced(monkeypatch):
    monkeypatch.setattr(eng, "MAX_PREP_ATTEMPTS", 1)
    with pytest.raises(eng.AncillaRejectionError):
        eng.run_experiments([_cfg(eps=0.9, trials=512, seed=1)])


@pytest.mark.filterwarnings("ignore:trials=")
def test_rejection_loop_still_deterministic():
    # at this rate many preps get rejected and resynthesized
    (a,) = eng.run_experiments([_cfg(eps=0.2, trials=400, seed=4)])[0]
    (b,) = eng.run_experiments([_cfg(eps=0.2, trials=400, seed=4)])[0]
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.sum() == 400


@pytest.mark.filterwarnings("ignore:trials=")
def test_draw_counters_match_location_count(reruns):
    """Each trial draws one word per error location of the recorded pass, plus
    one attempt's worth for every ancilla it had to resynthesize."""
    cfg = _cfg(eps=3e-4, C=1.0, trials=4096, seed=12)  # every rate > 0
    rec = RecordingSource()
    eng._run(cfg, rec)
    attempt = RecordingSource()
    eng._execute(ATTEMPT, attempt, (0.0, 0.0), 1)
    assert (rec.cursor, attempt.cursor) == (1508, 42)
    bank = StreamBank(cfg.master_seed, np.arange(cfg.trials))
    eng._run(cfg, bank)
    retries = np.zeros(cfg.trials, dtype=np.uint64)
    for (row, _), n in reruns.items():
        retries[row] += np.uint64(n)
    assert retries.any() and not retries.all()
    assert np.array_equal(bank.counters, rec.cursor + attempt.cursor * retries)


def _kernel_matches_interpreter(cfg, start):
    """The signature kernel and the interpreter on one StreamBank each, over
    the same trials: equal tallies, equal locations consumed per trial.
    Returns the interpreter's (bank, dx, dz, tallies)."""
    trials = np.arange(start, start + cfg.trials, dtype=np.uint64)
    bank, ref = StreamBank(cfg.master_seed, trials), StreamBank(cfg.master_seed, trials)
    kernel = eng._kernel(cfg, bank)
    dx, dz, tallies = eng._run(cfg, ref)
    assert [(step, counts.tolist()) for step, counts in kernel] == [
        (step, counts.tolist()) for step, counts in tallies
    ]
    assert np.array_equal(bank.counters, ref.counters)
    return ref, dx, dz, tallies


@pytest.mark.filterwarnings("ignore:trials=")
@pytest.mark.parametrize(
    "cfg",
    [
        _cfg(eps=3e-4, C=1.0, trials=3000, seed=21),
        _cfg(mode="ec1", eps=1e-3, C=0.5, trials=3000, seed=24),
        _cfg(mode="zgate", eps=1e-3, C=0.5, trials=3000, seed=25),
        _cfg(mode="fig5", eps=2e-3, C=0.5, trials=3000, seed=22, encoder_noisy=True),
        _cfg(mode="stabilize", eps=1e-4, C=2.0, trials=3000, seed=23, t_max=3),
    ],
    ids=["memory_t20", "ec1", "zgate", "fig5", "stabilize"],
)
def test_fault_free_skip_is_exact(cfg):
    """A chunk that skips its fault-free trials and runs the rest through the
    signature kernel counts, at every tally, what running every trial of it
    through the interpreter on one StreamBank counts; the kernel alone
    matches the interpreter trial for trial in locations consumed."""
    start = 5000
    parts = eng._run_chunk(cfg, start, cfg.trials)
    _, dx, dz, tallies = _kernel_matches_interpreter(cfg, start)
    assert [(st.t_steps, st.counts.ravel().tolist()) for st in parts] == [
        (step, counts.tolist()) for step, counts in tallies
    ]
    # every program ends in a tally, so the last one classifies the final residual
    joint = eng.CLASS_LUT[dx].astype(np.int64) * 4 + eng.CLASS_LUT[dz]
    assert np.array_equal(tallies[-1][1], np.bincount(joint, minlength=16))
    assert 0 < parts[-1].counts[0, 0] < cfg.trials
    trials = np.arange(start, start + cfg.trials)
    live = StreamBank.faulting(cfg.master_seed, trials, eng._plan(cfg).screen)
    assert 0 < live.size < cfg.trials  # both paths taken


@pytest.mark.filterwarnings("ignore:trials=")
@pytest.mark.parametrize("mode", ["memory_t20", "stabilize"])
@pytest.mark.parametrize("C", [1.0, 0.5])
def test_kernel_matches_interpreter_at_high_rate(mode, C, reruns):
    """At eps = 2e-2 most trials reject an ancilla, and some reject the same
    prep more than once, so the kernel's retries are exercised in depth."""
    cfg = _cfg(mode=mode, eps=2e-2, C=C, trials=600, seed=31, t_max=2)
    _kernel_matches_interpreter(cfg, 0)
    assert max(reruns.values()) >= 2


@pytest.mark.filterwarnings("ignore:trials=")
def test_kernel_reruns_a_window_of_recoveries_at_once(monkeypatch, reruns):
    """With a window of two recoveries, five recoveries run as windows of 2,
    2 and 1, each window's rejected attempts rerunning together."""
    cfg = _cfg(mode="stabilize", eps=2e-2, C=1.0, trials=600, seed=32, t_max=5)
    monkeypatch.setattr(eng, "BATCH", 2 * cfg.trials)
    windows = []
    signatures = eng._signatures

    def counting(plan, recoveries, bank, first):
        windows.append(recoveries)
        return signatures(plan, recoveries, bank, first)

    monkeypatch.setattr(eng, "_signatures", counting)
    _kernel_matches_interpreter(cfg, 0)
    assert windows == [2, 2, 1]
    assert max(reruns.values()) >= 2


@pytest.mark.filterwarnings("ignore:trials=")
def test_rejection_cap_counts_distinct_trials(monkeypatch):
    """Ten recoveries in one window reject attempts of the same trials many
    times over; the error counts each trial once."""
    monkeypatch.setattr(eng, "MAX_PREP_ATTEMPTS", 2)
    with pytest.raises(eng.AncillaRejectionError) as err:
        eng.run_experiments([_cfg(mode="stabilize", eps=0.5, trials=8, seed=6, t_max=10)])
    assert 1 <= int(str(err.value).split()[0]) <= 8


def test_fault_plans_run_no_interpreter(monkeypatch):
    """Once the tables are built, fault plans and certification never
    interpret ops, and they read the table without the Monte Carlo kernel:
    no location classes, no sampled faults and no rerun round."""
    config = _cfg()
    eng._table(config.mode)

    def forbidden(*args, **kwargs):
        raise AssertionError("the interpreter or the Monte Carlo kernel ran")

    monkeypatch.setattr(eng, "_execute", forbidden)
    monkeypatch.setattr(eng, "_prepare", forbidden)
    for name in ("_build_plan", "_signatures", "_faults"):
        monkeypatch.setattr(eng, name, forbidden)
    for cls, name in ((StreamBank, "rerun"), (FaultPlanSource, "rerun"),
                      (FaultPlanSource, "faults")):
        monkeypatch.setattr(cls, name, forbidden)
    dx, dz = eng.run_fault_plan(config, [[8, 57], [0, 1]], [[1, 7], [1, 1]])
    assert eng.CLASS_LUT[dx].tolist() == [0, int(ErrorClass.LOGICAL)] and not dz.any()
    report = eng.certify_single_faults()
    assert report.passed and (report.n_locations, report.n_cases) == (1508, 6468)


@pytest.mark.filterwarnings("ignore:trials=")
def test_run_chunk_runs_no_interpreter(monkeypatch):
    """Once a config's plan is built, Monte Carlo chunks never interpret ops."""
    configs = [
        _cfg(eps=2e-2, C=0.5, trials=50, seed=3),
        _cfg(mode="stabilize", eps=2e-2, C=1.0, trials=50, seed=3, t_max=3),
        _cfg(mode="fig5", eps=2e-2, C=0.5, trials=50, seed=3, encoder_noisy=True),
    ]
    for cfg in configs:
        eng._plan(cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("the interpreter or a dense sampler ran")

    monkeypatch.setattr(eng, "_execute", forbidden)
    monkeypatch.setattr(eng, "_prepare", forbidden)
    # chunks read their faults sparsely, through StreamBank.faults alone
    monkeypatch.setattr(StreamBank, "depolarize_steps", forbidden)
    monkeypatch.setattr(StreamBank, "cnot_pairs", forbidden)
    for cfg in configs:
        tallies = eng._run_chunk(cfg, 0, 50)
        assert [st.counts.sum() for st in tallies] == [50] * len(eng._plan(cfg).steps)


def _tallies(results):
    return [[(st.t_steps, st.trials, st.counts.tolist()) for st in res] for res in results]


@pytest.fixture
def started(monkeypatch):
    """The forked workers, counted as they start."""
    procs = []
    ctx = multiprocessing.get_context("fork")

    class CountingProcess(ctx.Process):
        def start(self):
            procs.append(self)
            super().start()

    monkeypatch.setattr(type(ctx), "Process", CountingProcess)
    monkeypatch.setattr(eng, "BATCH", 200)  # forked runs cut chunks of 100
    yield procs
    assert multiprocessing.active_children() == []


_POOL_CONFIGS = [_cfg(eps=2e-3, trials=150, seed=4), _cfg(eps=3e-3, C=1.0, trials=50, seed=4)]


@pytest.mark.skipif(not eng._HAS_FORK, reason="no fork start method")
@pytest.mark.filterwarnings("ignore:trials=")
def test_pool_has_at_most_one_worker_per_chunk(started):
    """The caller is worker 0, so it forks min(threads, chunks) - 1 workers,
    and the rows are the serial rows."""
    serial = _tallies(eng.run_experiments(_POOL_CONFIGS))
    assert started == []
    assert _tallies(eng.run_experiments(_POOL_CONFIGS, threads=64)) == serial
    assert len(started) == 2  # 3 chunks: 2 of the first config, 1 of the second
    started.clear()
    assert _tallies(eng.run_experiments(_POOL_CONFIGS, threads=2)) == serial
    assert len(started) == 1


@pytest.mark.filterwarnings("ignore:trials=")
def test_no_fork_path_has_at_most_one_worker_per_chunk(monkeypatch):
    """Where the platform cannot fork, a process pool runs one task per chunk
    on at most one worker per chunk; an inline fake pool records the
    request, so no process starts."""
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(eng, "BATCH", 100)
    serial = _tallies(eng.run_experiments(_POOL_CONFIGS))
    monkeypatch.setattr(eng, "_HAS_FORK", False)
    monkeypatch.setattr(eng, "ProcessPoolExecutor", InlinePool)
    assert _tallies(eng.run_experiments(_POOL_CONFIGS, threads=64)) == serial
    assert requested == [3]


def _plant(monkeypatch, child, caller=lambda start: None):
    """Patch `_run_chunk` before the fork: ahead of each chunk, a forked
    worker runs child(start) and the caller, worker 0, runs caller(start).
    The pid check keeps a planted exit or raise out of the test process."""
    pid = os.getpid()
    run_chunk = eng._run_chunk

    def chunk(config, start, size):
        (caller if os.getpid() == pid else child)(start)
        return run_chunk(config, start, size)

    monkeypatch.setattr(eng, "_run_chunk", chunk)


def _await(*paths, timeout=30.0):
    """Wait until every file of paths exists, or the timeout passes."""
    deadline = time.monotonic() + timeout
    while not all(p.exists() for p in paths) and time.monotonic() < deadline:
        time.sleep(0.005)


def _first(path):
    """Whether this process is the first to claim the file path."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


@pytest.mark.skipif(not eng._HAS_FORK, reason="no fork start method")
@pytest.mark.filterwarnings("ignore:trials=")
def test_worker_exception_reraised_and_other_workers_terminated(started, monkeypatch, tmp_path):
    """A chunk that raises in one forked worker re-raises its exception type
    in the caller, so `sweep` exits 2; the other worker, stuck in a long
    chunk, is terminated.  The caller's first chunk waits until both have
    begun."""
    monkeypatch.setattr(eng, "BATCH", 20)  # 15 forked chunks of the 150-trial cell

    def run(tag, call):
        raised, stuck = tmp_path / f"{tag}.raised", tmp_path / f"{tag}.stuck"

        def child(start):
            if _first(raised):
                raise eng.AncillaRejectionError("planted rejection")
            stuck.touch()
            time.sleep(60)

        _plant(monkeypatch, child, lambda start: _await(raised, stuck))
        return call()

    t0 = time.perf_counter()
    with pytest.raises(eng.AncillaRejectionError, match="planted rejection"):
        run("engine", lambda: eng.run_experiments(_POOL_CONFIGS[:1], threads=3))
    argv = ["sweep", "--epsilon", "2e-3", "--trials", "150", "--threads", "3",
            "--out", str(tmp_path / "s.csv")]
    assert run("cli", lambda: cli.main(argv)) == 2
    assert time.perf_counter() - t0 < 30
    assert len(started) == 4


@pytest.mark.skipif(not eng._HAS_FORK, reason="no fork start method")
@pytest.mark.filterwarnings("ignore:trials=")
def test_worker_that_exits_without_sending_raises(started, monkeypatch, tmp_path):
    """A forked worker that dies in a chunk raises an error naming it
    (worker 1: the caller is worker 0) and its exit code."""
    dying = tmp_path / "dying"

    def child(start):
        dying.touch()
        os._exit(3)

    _plant(monkeypatch, child, lambda start: _await(dying))
    with pytest.raises(RuntimeError, match="worker 1 exited with code 3 without sending"):
        eng.run_experiments(_POOL_CONFIGS, threads=2)
    assert len(started) == 1


@pytest.mark.skipif(not eng._HAS_FORK, reason="no fork start method")
@pytest.mark.filterwarnings("ignore:trials=")
def test_shared_cursor_runs_every_chunk_once(started, monkeypatch, tmp_path):
    """Every chunk runs exactly once, whole, on the caller or one forked
    worker, each `_run_chunk` call recorded with its pid; and the rows are
    the serial rows for any thread count, though the 7 chunks of a forked
    run, half as large as a serial run's, divide evenly among none of 2, 3
    or 7 processes."""
    monkeypatch.setattr(eng, "BATCH", 74)
    serial = _tallies(eng.run_experiments(_POOL_CONFIGS))
    log = tmp_path / "chunks"
    run_chunk = eng._run_chunk

    def chunk(config, start, size):
        with open(log, "a") as fh:  # one short append per line: whole lines
            fh.write(f"{os.getpid()} {_POOL_CONFIGS.index(config)} {start} {size}\n")
        return run_chunk(config, start, size)

    monkeypatch.setattr(eng, "_run_chunk", chunk)
    for threads in (1, 2, 3, 64):
        log.unlink(missing_ok=True)
        started.clear()
        assert _tallies(eng.run_experiments(_POOL_CONFIGS, threads=threads)) == serial
        size = 74 if threads == 1 else 37  # forked: 37, .., 2 trials, 5 + 2 chunks
        jobs = [(c, s, min(size, n - s)) for c, n in enumerate((150, 50)) for s in range(0, n, size)]
        assert len(started) == min(threads, len(jobs)) - 1
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(call[1:] for call in calls) == jobs
        assert {call[0] for call in calls} <= {os.getpid()} | {p.pid for p in started}


@pytest.mark.skipif(not eng._HAS_FORK, reason="no fork start method")
@pytest.mark.filterwarnings("ignore:trials=")
def test_worker_exception_raised_while_the_caller_has_chunks_left(started, monkeypatch):
    """The caller reads a worker's exception between its own chunks: its
    first chunk waits until the worker has raised and exited, and the next
    read re-raises, with chunks still untaken."""
    monkeypatch.setattr(eng, "BATCH", 20)  # 15 forked chunks
    ran = []

    def child(start):
        raise eng.AncillaRejectionError("planted rejection")

    def caller(start):
        ran.append(start)
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.005)

    _plant(monkeypatch, child, caller)
    with pytest.raises(eng.AncillaRejectionError, match="planted rejection"):
        eng.run_experiments(_POOL_CONFIGS[:1], threads=2)
    assert len(started) == 1
    assert len(ran) == 1  # of 15 chunks, the caller ran one


def test_certification_passes():
    report = eng.certify_single_faults()
    assert report.passed, [f.label for f in report.failures[:5]]
    assert report.n_cases > 5000


def test_certification_reports_the_replayed_failures(monkeypatch):
    """Certification reads the single-fault table directly; under a decoder
    that puts every correction on qubit 1, the cases it reports are the
    ones whose replay as a fault plan leaves a logical error."""
    monkeypatch.setattr(eng, "CORRECT9", np.where(eng.CORRECT9 > 0, 1, 0).astype(np.uint8))
    report = eng.certify_single_faults()
    cases = eng.enumerate_fault_cases(_cfg())
    slots = np.array([[c.slot] for c in cases])
    codes = np.array([[c.code] for c in cases], dtype=np.uint8)
    dx, dz = eng.run_fault_plan(_cfg(), slots, codes)
    replayed = [cases[i] for i in np.flatnonzero(eng.IDEAL_FAILS[dx] | eng.IDEAL_FAILS[dz])]
    assert 0 < len(report.failures) < report.n_cases
    assert report.failures == replayed


def test_fault_case_enumeration_is_stable():
    cases1 = eng.enumerate_fault_cases(_cfg())
    cases2 = eng.enumerate_fault_cases(_cfg())
    assert cases1 == cases2
    slots = {c.slot for c in cases1}
    assert min(slots) == 0
    assert max(slots) == len(slots) - 1  # contiguous location numbering


@pytest.mark.parametrize("mode", MODES)
def test_draw_walk_numbers_the_interpreter_locations(mode):
    """The static draw walk lists the draws an interpreter run records, and
    every fault case's label follows from that record."""
    cfg = eng.ExperimentConfig(mode, NoiseParams.zero(), encoder_noisy=mode == "fig5", t_max=3)
    rec = RecordingSource()
    eng._run(cfg, rec)
    records = [(r.slot, r.n, r.kind, r.width, r.tag) for r in rec.records]
    walk, slot = [], 0
    for kind, _, n, width, tag, _ in eng._draws(cfg.program()):
        walk.append((slot, n, kind, width, tag))
        slot += n
    assert walk == records
    names = {"pauli1": "IXYZ", "pauli2": [a + b for a in "IXYZ" for b in "IXYZ"]}
    labels = [
        f"{r.tag}[s{off // r.width},q{off % r.width}]:{name}"
        for r in rec.records for off in range(r.n) for name in names[r.kind][1:]
    ]
    assert [c.label for c in eng.enumerate_fault_cases(cfg)] == labels


def test_trial_stats_accounting_identities():
    (st,) = eng.run_experiments([_cfg(eps=5e-3, trials=30_000, seed=8)])[0]
    assert st.counts.sum() == st.trials
    assert st.f_a1 == pytest.approx(st.eta0 + st.eta3_p)
    w1x = st.counts[1, :].sum()
    assert st.p_fail_a1 == pytest.approx(st.counts[2:, :].sum() / st.trials)
    assert 0.0 <= st.p_ec1 <= 1.0
    assert st.p_e_strict >= st.p_fail_a1
    assert w1x >= 0

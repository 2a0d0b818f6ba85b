import math
import os
from dataclasses import replace

import numpy as np
import pytest

from steane_mc import engine as eng
from steane_mc.codebook import ErrorClass, ResidualClass, overlap_factor
from steane_mc.circuit import ATTEMPT, RecoverySchedule
from steane_mc.noise import NoiseParams, RecordingSource, StreamBank

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


def test_zero_noise_totality():
    (st,) = eng.run_experiment(_cfg(trials=64))
    assert st.counts[0, 0] == 64
    assert st.p_e_strict == 0.0 and st.p_fail_a1 == 0.0 and st.f_a1 == 1.0
    (st,) = eng.run_experiment(_cfg(mode="ec1", trials=16))
    assert st.p_ec1 == 0.0
    (st,) = eng.run_experiment(_cfg(mode="zgate", trials=16))
    assert st.p_fail_a1 == 0.0
    tallies = eng.run_experiment(_cfg(mode="stabilize", trials=16, t_max=4))
    assert len(tallies) == 4 and all(st.f_a1 == 1.0 for st in tallies)
    (st,) = eng.run_experiment(_cfg(mode="fig5", trials=16, encoder_noisy=True))
    assert all(st.fidelity_at(a) == 1.0 for a in np.sqrt(np.linspace(0.0, 1.0, 21)))


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


def test_forced_double_channel_x_miscorrects_to_logical():
    config = _cfg(trials=1)
    cases = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    slots = np.array([[i, j] for i, j in cases], dtype=np.int64)
    codes = np.ones_like(slots, dtype=np.uint8)
    dx, dz = eng.run_fault_plan(config, slots, codes)
    assert np.all(eng.CLASS_LUT[dx] == int(ErrorClass.LOGICAL))
    assert np.all(dz == 0)


@pytest.mark.filterwarnings("ignore:trials=")
def test_scalar_batch_thread_equivalence():
    config = _cfg(eps=2e-3, C=1.0, trials=300, seed=5)
    singles = np.zeros((4, 4), dtype=np.int64)
    for i in range(300):
        (st,) = eng.run_experiment(replace(config, trials=1, trial_offset=i))
        singles += st.counts
    (st1,) = eng.run_experiment(config)
    assert np.array_equal(singles, st1.counts)
    old = os.environ.get("STEANE_MC_BATCH")
    try:
        os.environ["STEANE_MC_BATCH"] = "37"
        (st2,) = eng.run_experiment(config)
        (st3,) = eng.run_experiment(config, threads=3)
    finally:
        if old is None:
            os.environ.pop("STEANE_MC_BATCH", None)
        else:
            os.environ["STEANE_MC_BATCH"] = old
    assert np.array_equal(st1.counts, st2.counts)
    assert np.array_equal(st1.counts, st3.counts)


@pytest.mark.filterwarnings("ignore:trials=")
def test_trial_offset_disjoint():
    (a,) = eng.run_experiment(_cfg(eps=2e-3, trials=500, seed=5))
    (b,) = eng.run_experiment(_cfg(eps=2e-3, trials=500, seed=5, trial_offset=500))
    assert not np.array_equal(a.counts, b.counts)  # different trials
    (both,) = eng.run_experiment(_cfg(eps=2e-3, trials=1000, seed=5))
    assert np.array_equal(a.counts + b.counts, both.counts)


def test_stabilize_time_axis_and_merge():
    tallies = eng.run_experiment(_cfg(mode="stabilize", trials=8, t_max=3))
    assert [st.t_steps for st in tallies] == [20, 40, 60]
    merged = tallies[1] + tallies[1]
    assert (merged.t_steps, merged.trials, merged.f_a1) == (40, 16, 1.0)
    with pytest.raises(ValueError, match="different steps"):
        _ = tallies[0] + tallies[1]


@pytest.mark.filterwarnings("ignore:trials=")
def test_stabilize_degrades_with_noise():
    tallies = eng.run_experiment(
        _cfg(mode="stabilize", eps=3e-3, trials=4000, seed=9, t_max=6)
    )
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
    (st,) = eng.run_experiment(cfg)
    assert st.fidelity_at(0.0) == pytest.approx(st.fidelity_at(1.0), abs=1e-15)
    mid = st.fidelity_at(1 / math.sqrt(2))
    assert mid == pytest.approx(st.eta0 + st.eta3_p + st.delta_eta3)
    # the per-class overlaps of codebook are an independent reference for F(a)
    for a in np.sqrt(np.linspace(0.0, 1.0, 21)):
        ref = sum(
            st.counts[x, z] * overlap_factor(ResidualClass(ErrorClass(x), ErrorClass(z)), a)
            for x in range(4)
            for z in range(4)
        ) / st.trials
        assert abs(ref - st.fidelity_at(a)) <= 1e-12, a


def test_monotone_degradation():
    (lo,) = eng.run_experiment(_cfg(eps=1e-3, trials=40_000, seed=2))
    (hi,) = eng.run_experiment(_cfg(eps=3e-3, trials=40_000, seed=3))
    s = math.hypot(lo.stderr_of(lo.p_fail_a1), hi.stderr_of(hi.p_fail_a1))
    assert hi.p_fail_a1 > lo.p_fail_a1 - 3 * s


def test_small_n_warning():
    with pytest.warns(UserWarning, match="trials="):
        eng.run_experiment(_cfg(eps=1e-4, trials=10))
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        eng.run_experiment(_cfg(eps=0.0, trials=4))  # no rates -> no warning


@pytest.mark.filterwarnings("ignore:trials=")
def test_rejection_cap_enforced(monkeypatch):
    monkeypatch.setattr(eng, "MAX_PREP_ATTEMPTS", 1)
    with pytest.raises(eng.AncillaRejectionError):
        eng.run_experiment(_cfg(eps=0.9, trials=512, seed=1))


@pytest.mark.filterwarnings("ignore:trials=")
def test_rejection_loop_still_deterministic():
    # at this rate many preps get rejected and resynthesized
    (a,) = eng.run_experiment(_cfg(eps=0.2, trials=400, seed=4))
    (b,) = eng.run_experiment(_cfg(eps=0.2, trials=400, seed=4))
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.sum() == 400


class _RetryCountingBank(StreamBank):
    """StreamBank that counts each trial's extra ancilla attempts: only a
    rejected prep's rerun passes row indices, and each attempt draws one /mem."""

    def __init__(self, master_seed, trial_indices):
        super().__init__(master_seed, trial_indices)
        self.retries = np.zeros(self.size, dtype=np.uint64)

    def depolarize_steps(self, p, n_steps, width, idx=None, tag=""):
        if idx is not None and tag.endswith("/mem"):
            self.retries[idx] += np.uint64(1)
        return super().depolarize_steps(p, n_steps, width, idx, tag)


@pytest.mark.filterwarnings("ignore:trials=")
def test_draw_counters_match_location_count():
    """Each trial draws one word per error location of the recorded pass, plus
    one attempt's worth for every ancilla it had to resynthesize."""
    cfg = _cfg(eps=3e-4, C=1.0, trials=4096, seed=12)  # every rate > 0
    rec = RecordingSource()
    eng._run(cfg, rec)
    attempt = RecordingSource()
    eng._execute(ATTEMPT, attempt, (0.0, 0.0), 1)
    assert (rec.cursor, attempt.cursor) == (1508, 42)
    bank = _RetryCountingBank(cfg.master_seed, np.arange(cfg.trials))
    eng._run(cfg, bank)
    assert bank.retries.any() and not bank.retries.all()
    assert np.array_equal(bank.counters, rec.cursor + attempt.cursor * bank.retries)


@pytest.mark.filterwarnings("ignore:trials=")
@pytest.mark.parametrize(
    "cfg",
    [
        _cfg(eps=3e-4, C=1.0, trials=3000, seed=21),
        _cfg(mode="fig5", eps=2e-3, C=0.5, trials=3000, seed=22, encoder_noisy=True),
        _cfg(mode="stabilize", eps=1e-4, C=2.0, trials=3000, seed=23, t_max=3),
    ],
    ids=["memory_t20", "fig5", "stabilize"],
)
def test_fault_free_skip_is_exact(cfg):
    """A chunk that skips its fault-free trials counts, at every tally, what
    running every trial of it through one StreamBank counts."""
    start = 5000
    parts = eng._run_chunk(cfg, start, cfg.trials)
    bank = StreamBank(cfg.master_seed, np.arange(start, start + cfg.trials, dtype=np.uint64))
    dx, dz, tallies = eng._run(cfg, bank)
    assert [(st.t_steps, st.counts.ravel().tolist()) for st in parts] == [
        (step, counts.tolist()) for step, counts in tallies
    ]
    # every program ends in a tally, so the last one classifies the final residual
    joint = eng.CLASS_LUT[dx].astype(np.int64) * 4 + eng.CLASS_LUT[dz]
    assert np.array_equal(tallies[-1][1], np.bincount(joint, minlength=16))
    assert 0 < parts[-1].counts[0, 0] < cfg.trials
    clean = eng.fault_free(
        cfg.master_seed, np.arange(start, start + cfg.trials),
        eng._nominal_locations(cfg.program(), (cfg.noise.epsilon, cfg.noise.gamma)),
    )
    assert 0 < clean.sum() < cfg.trials  # both paths taken


def test_batch_size_validation(monkeypatch):
    monkeypatch.delenv("STEANE_MC_BATCH", raising=False)
    assert eng.batch_size() == 32768
    monkeypatch.setenv("STEANE_MC_BATCH", "37")
    assert eng.batch_size() == 37
    for raw in ("0", "-1", "ten", "1.5", ""):
        monkeypatch.setenv("STEANE_MC_BATCH", raw)
        with pytest.raises(ValueError, match="STEANE_MC_BATCH"):
            eng.batch_size()
    monkeypatch.setenv("STEANE_MC_BATCH", "-1")
    with pytest.raises(ValueError, match="STEANE_MC_BATCH"):
        eng.run_experiment(_cfg(trials=4))


def test_certification_passes():
    report = eng.certify_single_faults(RecoverySchedule())
    assert report.passed, [f.label for f in report.failures[:5]]
    assert report.n_cases > 5000


def test_fault_case_enumeration_is_stable():
    cases1 = eng.enumerate_fault_cases(_cfg())
    cases2 = eng.enumerate_fault_cases(_cfg())
    assert cases1 == cases2
    slots = {c.slot for c in cases1}
    assert min(slots) == 0
    assert max(slots) == len(slots) - 1  # contiguous location numbering


def test_trial_stats_accounting_identities():
    (st,) = eng.run_experiment(_cfg(eps=5e-3, trials=30_000, seed=8))
    assert st.counts.sum() == st.trials
    assert st.f_a1 == pytest.approx(st.eta0 + st.eta3_p)
    w1x = st.counts[1, :].sum()
    assert st.p_fail_a1 == pytest.approx(st.counts[2:, :].sum() / st.trials)
    assert 0.0 <= st.p_ec1 <= 1.0
    assert st.p_e_strict >= st.p_fail_a1
    assert w1x >= 0

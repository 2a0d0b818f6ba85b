"""The fault-signature tables against fault plans replayed by the interpreter.

`engine._table` reads one signature per single fault (data frame and
syndrome bits before the correction, plus whether the fault alone makes its
ancilla attempt's verification fire) off one linear run of the program.  A
fault set whose attempt flags XOR to 0 keeps every attempt, so its residual
must be the majority-vote correction of the XOR of its signatures; these
tests replay such sets through `run_fault_plan`, which reruns rejected
attempts as the Monte Carlo trials do.
"""

import numpy as np
import pytest

from steane_mc import engine as eng
from steane_mc.circuit import RecoverySchedule
from steane_mc.noise import NoiseParams, RecordingSource

SWEEP_MODES = ["memory_t20", "ec1", "zgate", "fig5"]


def _config(mode, **kw):
    return eng.ExperimentConfig(
        mode=mode, noise=NoiseParams.zero(), encoder_noisy=(mode == "fig5"), **kw
    )


def _cases(table):
    """(slot, code) of every case of the table, in its case order."""
    n_codes = np.diff(np.append(table.case0, len(table.sig)))
    slots = np.repeat(np.arange(len(table.case0)), n_codes)
    return slots, np.arange(len(slots)) - table.case0[slots] + 1


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_table_matches_fault_plans_on_single_faults(mode):
    cfg = _config(mode)
    table = eng._table(mode, cfg.schedule)
    cases = eng.enumerate_fault_cases(cfg)
    slots, codes = _cases(table)
    assert slots.tolist() == [c.slot for c in cases]
    assert codes.tolist() == [c.code for c in cases]
    assert len(table.prep) == len(table.case0) == sum(len(d[3]) for d in table.draws)
    assert np.all(table.prep[slots[table.flag]] >= 0)  # only attempts raise flags
    dx, dz = eng.run_fault_plan(cfg, slots[:, None], codes[:, None])
    x, z = eng._correct(table.sig)
    kept = ~table.flag
    assert kept.any() and table.flag.any()
    assert np.array_equal(x[kept], dx[kept]) and np.array_equal(z[kept], dz[kept])
    # a rejected ancilla is resynthesized from a fault-free attempt
    assert not dx[table.flag].any() and not dz[table.flag].any()


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_pair_signatures_match_fault_plans(mode):
    """Seeded pairs of faults at distinct locations whose flags XOR to 0:
    random pairs that raise no flag, and pairs in one attempt that each
    reject it alone."""
    cfg = _config(mode)
    table = eng._table(mode, cfg.schedule)
    slots, codes = _cases(table)
    rng = np.random.default_rng(2103)
    quiet = np.flatnonzero(~table.flag)
    pairs = rng.choice(quiet, size=(3000, 2))
    loud = np.flatnonzero(table.flag)
    a = rng.choice(loud, size=20000)
    b = rng.choice(loud, size=20000)
    same = table.prep[slots[a]] == table.prep[slots[b]]
    pairs = np.concatenate([pairs, np.stack([a, b], axis=1)[same][:1000]])
    pairs = pairs[slots[pairs[:, 0]] != slots[pairs[:, 1]]]
    assert (table.flag[pairs].all(axis=1)).sum() >= 500
    dx, dz = eng.run_fault_plan(cfg, slots[pairs], codes[pairs])
    x, z = eng._correct(table.sig[pairs[:, 0]] ^ table.sig[pairs[:, 1]])
    assert np.array_equal(x, dx) and np.array_equal(z, dz)


@pytest.mark.parametrize("mode", [*SWEEP_MODES, "stabilize"])
def test_nominal_locations_count_one_recorded_pass(mode):
    """A plan's nominal locations per class add up to the locations of one
    recorded pass, the CNOT class to its CNOT locations."""
    cfg = eng.ExperimentConfig(
        mode=mode, noise=NoiseParams(1e-3, 0.5), encoder_noisy=(mode == "fig5"), t_max=3,
        schedule=RecoverySchedule(channel_prefix_steps=2, inter_recovery_gap=3),
    )
    rec = RecordingSource()
    eng._run(cfg, rec)
    nominal = eng._plan(cfg).nominal
    assert sum(nominal.values()) == rec.cursor
    pairs = sum(r.n for r in rec.records if r.kind == "pauli2")
    assert nominal["pauli2", cfg.noise.gamma] == pairs
    assert eng._plan(cfg).steps == tuple(
        op.step for op in cfg.program() if op.kind == "tally"
    )

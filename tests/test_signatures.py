"""The fault-signature tables and the kernel against fault plans replayed
by the interpreter.

`engine._table` reads one signature per single fault (data frame and
syndrome bits before the correction, plus whether the fault alone makes its
ancilla attempt's verification fire) off one linear run of the program.  A
fault set whose attempt flags XOR to 0 keeps every attempt, so its residual
must be the majority-vote correction of the XOR of its signatures; these
tests replay such sets through the interpreter, `engine._run` on a
`FaultPlanSource`, which reruns rejected attempts op by op.  `run_fault_plan`
replays plans on the signature kernel, so the last test checks it against
the interpreter on plans of several faults that reject attempts, some twice.
"""

import numpy as np
import pytest

from steane_mc import engine as eng
from steane_mc.circuit import RecoverySchedule
from steane_mc.noise import FaultPlanSource, NoiseParams, RecordingSource

SWEEP_MODES = ["memory_t20", "ec1", "zgate", "fig5"]


def _config(mode, **kw):
    return eng.ExperimentConfig(
        mode=mode, noise=NoiseParams.zero(), encoder_noisy=(mode == "fig5"), **kw
    )


def _interpret(cfg, slots, codes):
    """The residuals (dx, dz) of a fault plan replayed by the interpreter."""
    src = FaultPlanSource(slots, codes)
    dx, dz, _ = eng._run(cfg, src)
    src.check_reached()
    return dx, dz


def _cases(table):
    """(slot, code) of every case of the table, in its case order."""
    slots = np.repeat(np.arange(len(table.case0)), table.codes)
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
    dx, dz = _interpret(cfg, slots[:, None], codes[:, None])
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
    dx, dz = _interpret(cfg, slots[pairs], codes[pairs])
    x, z = eng._correct(table.sig[pairs[:, 0]] ^ table.sig[pairs[:, 1]])
    assert np.array_equal(x, dx) and np.array_equal(z, dz)


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_same_location_faults_match_their_product(mode):
    """Two faults planned at one location, one-qubit or CNOT, whose flags
    XOR to 0 leave the correction of the XOR of their signatures."""
    cfg = _config(mode)
    table = eng._table(mode, cfg.schedule)
    slots, codes = _cases(table)
    rng = np.random.default_rng(2004)
    a = rng.integers(len(slots), size=6000)
    b = table.case0[slots[a]] + (rng.random(a.size) * table.codes[slots[a]]).astype(np.int64)
    pairs = np.stack([a, b], axis=1)[table.flag[a] == table.flag[b]]
    pair_slot = table.codes[slots[pairs[:, 0]]] == 15
    assert pair_slot.sum() >= 500 and (~pair_slot).sum() >= 500
    dx, dz = _interpret(cfg, slots[pairs], codes[pairs])
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


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_kernel_replays_multi_fault_plans_as_the_interpreter(mode, reruns):
    """Seeded plans of 1 to 6 faults per row at distinct locations.  A rerun
    moves the faults planned after its attempt, maybe onto a location of the
    other kind, so a row with a fault that alone rejects its attempt plans
    codes 1..3, which fit either kind; every other row plans any code that
    fits.  `run_fault_plan` and the interpreter agree row for row."""
    cfg = _config(mode)
    table = eng._table(mode, cfg.schedule)
    slots, codes = _cases(table)
    rng = np.random.default_rng(1208)
    rows = 3000
    where = rng.random((rows, len(table.case0))).argsort(axis=1)[:, :6]
    u = rng.random(where.shape)
    pick = table.case0[where] + (u * table.codes[where]).astype(np.int64)
    loud = table.flag[pick].any(axis=1)
    pick[loud] = table.case0[where[loud]] + (u[loud] * 3).astype(np.int64)
    plan_slots, plan_codes = slots[pick], codes[pick]
    plan_codes[rng.random(where.shape) < np.arange(6) / 6] = 0  # 1 to 6 faults a row
    dx, dz = eng.run_fault_plan(cfg, plan_slots, plan_codes)
    ref = _interpret(cfg, plan_slots, plan_codes)
    assert np.array_equal(dx, ref[0]) and np.array_equal(dz, ref[1])
    assert len({row for row, _ in reruns}) >= rows // 10 and max(reruns.values()) >= 2
    assert (plan_codes > 3).any()

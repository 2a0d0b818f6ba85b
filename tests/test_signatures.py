"""The fault-signature tables and the kernel against fault plans replayed
by the interpreter.

`engine._table` reads one signature per single fault (data frame and
syndrome bits before the correction, plus whether the fault alone makes its
ancilla attempt's verification fire) off one linear run of the program.  A
fault set whose attempt flags XOR to 0 keeps every attempt, so its residual
must be the majority-vote correction of the XOR of its signatures; these
tests replay such sets through the interpreter, `engine._run` on a
`FaultPlanSource`, which reruns rejected attempts op by op.  `run_fault_plan`
reads plans off the table instead, keeping or dropping each planned fault
by its attempt's flags, so the last two tests check it against the
interpreter on plans of several faults that reject attempts.
"""

import numpy as np
import pytest

from steane_mc import engine as eng
from steane_mc.noise import FaultPlanSource, NoiseParams, RecordingSource

SWEEP_MODES = ["memory_t20", "ec1", "zgate", "fig5"]


def _config(mode, **kw):
    return eng.ExperimentConfig(
        mode=mode, noise=NoiseParams.zero(), encoder_noisy=(mode == "fig5"), **kw
    )


def _interpret(cfg, slots, codes):
    """The residuals (dx, dz) of a fault plan replayed by the interpreter."""
    src = FaultPlanSource(slots, codes, eng._table(cfg.mode).codes)
    dx, dz, _ = eng._run(cfg, src)
    return dx, dz


def _cases(table):
    """(slot, code) of every case of the table, in its case order."""
    slots = np.repeat(np.arange(len(table.case0)), table.codes)
    return slots, np.arange(len(slots)) - table.case0[slots] + 1


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_table_matches_fault_plans_on_single_faults(mode):
    cfg = _config(mode)
    table = eng._table(mode)
    cases = eng.enumerate_fault_cases(cfg)
    slots, codes = _cases(table)
    assert slots.tolist() == [c.slot for c in cases]
    assert codes.tolist() == [c.code for c in cases]
    n_locations = sum(draw[2] for draw in eng._draws(cfg.program()))
    assert len(table.prep) == len(table.rate) == len(table.case0) == n_locations
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
    table = eng._table(mode)
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
    table = eng._table(mode)
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
        mode=mode, noise=NoiseParams(1e-3, 0.5), encoder_noisy=(mode == "fig5"), t_max=3
    )
    rec = RecordingSource()
    eng._run(cfg, rec)
    plan = eng._plan(cfg)
    nominal = dict(zip(plan.classes, (plan.n * len(plan.steps)).tolist()))
    assert sum(nominal.values()) == rec.cursor
    pairs = sum(r.n for r in rec.records if r.kind == "pauli2")
    assert nominal["pauli2", cfg.noise.gamma] == pairs
    assert plan.steps == tuple(
        op.step for op in cfg.program() if op.kind == "tally"
    )


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_kernel_replays_multi_fault_plans_as_the_interpreter(mode, reruns):
    """Seeded plans of 1 to 6 faults per row at distinct locations, each
    code one that fits its location.  A rejected attempt's rerun plans no
    fault, so it is never rejected again.  `run_fault_plan` and the
    interpreter agree row for row."""
    cfg = _config(mode)
    table = eng._table(mode)
    slots, codes = _cases(table)
    rng = np.random.default_rng(1208)
    rows = 3000
    where = rng.random((rows, len(table.case0))).argsort(axis=1)[:, :6]
    pick = table.case0[where] + (rng.random(where.shape) * table.codes[where]).astype(np.int64)
    plan_slots, plan_codes = slots[pick], codes[pick]
    plan_codes[rng.random(where.shape) < np.arange(6) / 6] = 0  # 1 to 6 faults a row
    dx, dz = eng.run_fault_plan(cfg, plan_slots, plan_codes)
    ref = _interpret(cfg, plan_slots, plan_codes)
    assert np.array_equal(dx, ref[0]) and np.array_equal(dz, ref[1])
    assert len({row for row, _ in reruns}) >= rows // 10 and set(reruns.values()) == {1}
    assert (plan_codes > 3).any()


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_kernel_replays_two_codes_at_one_location_as_the_interpreter(mode, reruns):
    """Two codes planned at one location act as their product (XOR) off the
    table as on the interpreter: one-qubit products, CNOT pairs whose
    product is the identity, and two codes at one attempt slot that each
    reject the attempt alone: flags are linear, so their product raises
    none.  Exactly the rows whose product rejects an attempt rerun it,
    once."""
    cfg = _config(mode)
    table = eng._table(mode)
    slots, _ = _cases(table)
    rng = np.random.default_rng(2020)
    one = rng.choice(np.flatnonzero(table.codes == 3), size=600)
    product = np.stack([one, one], axis=1), rng.integers(1, 4, size=(600, 2))
    cnot = rng.choice(np.flatnonzero(table.codes == 15), size=300)
    identity = np.stack([cnot, cnot], axis=1), np.repeat(rng.integers(1, 16, size=(300, 1)), 2, 1)
    a = rng.choice(np.flatnonzero(table.flag), size=20000)
    b = table.case0[slots[a]] + (rng.random(a.size) * table.codes[slots[a]]).astype(np.int64)
    pairs = np.stack([a, b], axis=1)[table.flag[b] & (a != b)][:600]
    both = slots[pairs], pairs - table.case0[slots[pairs]] + 1
    plan_slots, plan_codes = (np.concatenate(p) for p in zip(product, identity, both))
    dx, dz = eng.run_fault_plan(cfg, plan_slots, plan_codes)
    ref = _interpret(cfg, plan_slots, plan_codes)
    assert np.array_equal(dx, ref[0]) and np.array_equal(dz, ref[1])
    assert not dx[600:900].any() and not dz[600:900].any()  # a pair times itself is I
    code = plan_codes[:, 0] ^ plan_codes[:, 1]
    loud = (code > 0) & table.flag[table.case0[plan_slots[:, 0]] + code - 1]
    assert len(pairs) == 600 and loud[:600].any() and not loud[600:].any()
    assert {row for row, _ in reruns} == set(np.flatnonzero(loud).tolist())
    assert set(reruns.values()) == {1}

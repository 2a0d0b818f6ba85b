"""The engine against an independent frame walk of the derived network.

For each single fault of memory_t20 (every error location, every Pauli or
Pauli pair), and for seeded plans of 2 and 3 faults, the engine's final data
residual (dx, dz) must equal what a Pauli-frame walk over `build_recovery()`
gives, with the syndrome readouts decoded by the codebook and a majority vote
written here.  The program is used only to say where each numbered location
sits: its step and network qubits.  When an ancilla's verification fires,
the walk discards that attempt, with every fault on the ancilla's qubits up
to the verification, and walks again: the engine resynthesizes the ancilla,
and under a fault plan the rerun is fault-free.
"""

import numpy as np
import pytest
from frames import PauliFrame, apply_cnot, apply_h, apply_pauli, measure_flip

from steane_mc import codebook, engine
from steane_mc.circuit import GROUP_ORDER, N_DATA, build_recovery, program
from steane_mc.noise import NoiseParams

PAULI = "IXYZ"


def _slot_places(ops):
    """slot -> (step, network qubits) for every location, in draw order."""
    places = {}
    cursor = 0

    def visit(ops, blocks, step0=0, qmap=None):
        nonlocal cursor
        for kind, step, qubits, args in ops:
            step += step0
            if qmap is not None:
                qubits = tuple(qmap[q] for q in qubits)
            if kind == "pauli1":
                _, n_steps, width, _, key = args
                blocks[key] = (cursor, width)
                cursor += n_steps * width
            elif kind == "pauli2":
                blocks[args[2]] = (cursor, 1)
                cursor += args[0]
            elif kind == "prep":  # its attempt, placed here, reads its own draws
                visit(args[0], {}, step, qubits)
            elif kind == "xor":
                key, col, _, bits = args
                first, width = blocks[key]
                order = range(width) if bits is None else [b for b, _ in bits]
                for b, q in zip(order, qubits):
                    places[first + col * width + b] = (step, (q,))
            elif kind == "pair":
                places[blocks[args[0]][0] + args[1]] = (step, qubits)
            elif kind == "I":
                first, width = blocks[args[0]]
                for s in range(args[2]):
                    for b, q in enumerate(qubits):
                        places[first + s * width + b] = (step + s, (q,))

    visit(ops, {})
    return places


def _majority(words):
    a, b, c = words
    return a if a in (b, c) else (b if b == c else 0)


def _block(q):
    """The ancilla block of network qubit q (None: a data qubit)."""
    return None if q < N_DATA else (q - N_DATA) // 5


def _walk(steps, n_qubits, faults):
    """Residual (dx, dz) of faults, each (step, qubits, paulis) injected
    after the gates of its step, and the (block, step) of every ancilla
    verification that fires."""
    frame = PauliFrame(0, 0, n_qubits)
    syn, fired = {}, []
    start = min((f[0] for f in faults), default=float("inf"))
    for step, locs in steps:
        if step < start:  # the frame is still the identity
            continue
        for loc in locs:
            if loc.kind == "H":
                frame = apply_h(frame, loc.qubits[0])
            elif loc.kind == "CNOT":
                frame = apply_cnot(frame, *loc.qubits)
        for fault_step, qubits, paulis in faults:
            if fault_step == step:
                for q, p in zip(qubits, paulis):
                    frame = apply_pauli(frame, q, p)
        for loc in locs:
            if loc.kind != "M":
                continue
            flip = measure_flip(frame, loc.qubits)
            if len(loc.qubits) == 1:
                if flip:
                    fired.append((_block(loc.qubits[0]), step))
            else:
                rnd, slot = divmod((loc.qubits[0] - N_DATA) // 5, len(GROUP_ORDER))
                kind, row = GROUP_ORDER[slot]
                syn[rnd, kind] = syn.get((rnd, kind), 0) | (flip << row)
    data = (1 << N_DATA) - 1
    fix_x = codebook.correction_for(_majority([syn.get((r, "bit"), 0) for r in range(3)]))
    fix_z = codebook.correction_for(_majority([syn.get((r, "phase"), 0) for r in range(3)]))
    return ((frame.x_mask & data) ^ fix_x, (frame.z_mask & data) ^ fix_z), fired


def _residual(steps, n_qubits, faults):
    """Residual (dx, dz) of faults after every rejected ancilla attempt is
    discarded, and how many attempts were."""
    res, fired = _walk(steps, n_qubits, faults)
    if fired:
        faults = [
            (step, qubits, paulis)
            for step, qubits, paulis in faults
            if not any(_block(q) == b and step <= s for q in qubits for b, s in fired)
        ]
        res, again = _walk(steps, n_qubits, faults)
        assert not again
    return res, len(fired)


def _network_faults(case_slots, case_codes, places, shift):
    """(step, qubits, paulis) in network steps of each planned fault."""
    faults = []
    for slot, code in zip(case_slots, case_codes):
        step, qubits = places[slot]
        paulis = [PAULI[code]] if len(qubits) == 1 else [PAULI[code >> 2], PAULI[code & 3]]
        faults.append((step + shift, qubits, paulis))
    return faults


def _setup():
    config = engine.ExperimentConfig(mode="memory_t20", noise=NoiseParams.zero())
    net = build_recovery()
    steps = [(locs[0].step, locs) for locs in net.steps()]
    places = _slot_places(program("memory_t20"))
    # every step holds memory locations, so the first slot step is the network's
    shift = 1 - min(step for step, _ in places.values())
    return config, net.n_qubits, steps, places, shift


def test_engine_matches_network_walk_on_every_single_fault():
    config, n_qubits, steps, places, shift = _setup()
    cases = engine.enumerate_fault_cases(config)
    assert len(cases) == 6468
    assert sorted(places) == sorted({c.slot for c in cases})
    slots = np.array([[c.slot] for c in cases], dtype=np.int64)
    codes = np.array([[c.code] for c in cases], dtype=np.uint8)
    dx, dz = engine.run_fault_plan(config, slots, codes)

    rejected = 0
    for case, ex, ez in zip(cases, dx, dz):
        faults = _network_faults([case.slot], [case.code], places, shift)
        want, fired = _residual(steps, n_qubits, faults)
        rejected += fired
        assert (int(ex), int(ez)) == want, case.label
    assert rejected > 0


@pytest.mark.parametrize("k", [2, 3])
def test_engine_matches_network_walk_on_multi_fault_plans(k):
    """Seeded plans of k faults at distinct locations, any code that fits
    each.  In a quarter of the rows two of them are faults that each alone
    reject one ancilla attempt, so that their flags cancel.  Rows that
    reject an attempt are common."""
    config, n_qubits, steps, places, shift = _setup()
    table = engine._table("memory_t20")
    case_slot = np.repeat(np.arange(len(table.case0)), table.codes)
    loud = np.flatnonzero(table.flag)
    rng = np.random.default_rng(1997 + k)
    rows = 800
    where = rng.random((rows, len(table.case0))).argsort(axis=1)[:, :k]
    codes = 1 + (rng.random(where.shape) * table.codes[where]).astype(np.int64)
    for i in range(rows // 4):
        attempt = loud[table.prep[case_slot[loud]] == rng.integers(table.prep.max() + 1)]
        pair = rng.choice(attempt, size=2, replace=False)
        at = case_slot[pair]
        if at[0] != at[1] and not np.isin(at, where[i, 2:]).any():
            where[i, :2], codes[i, :2] = at, pair - table.case0[at] + 1
    dx, dz = engine.run_fault_plan(config, where, codes)
    rejected = cancelled = 0
    for i in range(rows):
        faults = _network_faults(where[i].tolist(), codes[i].tolist(), places, shift)
        want, fired = _residual(steps, n_qubits, faults)
        rejected += fired > 0
        flags = table.flag[table.case0[where[i]] + codes[i] - 1]
        per_attempt = np.bincount(table.prep[where[i]][flags], minlength=1)
        cancelled += bool((per_attempt == 2).any())
        assert (int(dx[i]), int(dz[i])) == want, (where[i].tolist(), codes[i].tolist())
    assert rejected >= rows // 10 and cancelled >= rows // 10

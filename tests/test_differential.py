"""The engine against an independent frame walk of the derived network.

For each single fault of memory_t20 (every error location, every Pauli or
Pauli pair) the engine's final data residual (dx, dz) must equal what a
Pauli-frame walk over `build_recovery()` gives, with the syndrome readouts
decoded by the codebook and a majority vote written here.  The program is
used only to say where each numbered location sits: its step and network
qubits.  A fault that makes its ancilla's verification fire is dropped from
the walk, because the engine resynthesizes that ancilla from a fault-free
attempt.
"""

import numpy as np

from steane_mc import codebook, engine
from steane_mc.circuit import (
    GROUP_ORDER,
    N_DATA,
    RecoverySchedule,
    build_recovery,
    program,
)
from steane_mc.noise import NoiseParams
from steane_mc.pauli import PauliFrame, apply_cnot, apply_h, apply_pauli, measure_flip

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


def _walk(steps, n_qubits, fault_step, inject):
    """Residual (dx, dz) after one fault injected at the end of `fault_step`.

    Before that step the frame is the identity, so the walk starts there.
    Returns None when the fault makes an ancilla verification fire.
    """
    frame = None
    syn = {}
    for step, locs in steps:
        if step < fault_step:
            continue
        if frame is None:
            frame = inject(PauliFrame(0, 0, n_qubits))
        else:
            for loc in locs:
                if loc.kind == "H":
                    frame = apply_h(frame, loc.qubits[0])
                elif loc.kind == "CNOT":
                    frame = apply_cnot(frame, *loc.qubits)
        for loc in locs:
            if loc.kind != "M":
                continue
            flip = measure_flip(frame, loc.qubits)
            if len(loc.qubits) == 1:
                if flip:
                    return None
            else:
                rnd, slot = divmod((loc.qubits[0] - N_DATA) // 5, len(GROUP_ORDER))
                kind, row = GROUP_ORDER[slot]
                syn[rnd, kind] = syn.get((rnd, kind), 0) | (flip << row)
    data = (1 << N_DATA) - 1
    fix_x = codebook.correction_for(_majority([syn.get((r, "bit"), 0) for r in range(3)]))
    fix_z = codebook.correction_for(_majority([syn.get((r, "phase"), 0) for r in range(3)]))
    return (frame.x_mask & data) ^ fix_x, (frame.z_mask & data) ^ fix_z


def test_engine_matches_network_walk_on_every_single_fault():
    schedule = RecoverySchedule()
    config = engine.ExperimentConfig(
        mode="memory_t20", noise=NoiseParams.zero(), schedule=schedule
    )
    ops = program("memory_t20", schedule)
    net = build_recovery(schedule)
    steps = [(locs[0].step, locs) for locs in net.steps()]
    places = _slot_places(ops)
    # every step holds memory locations, so the first slot step is the network's
    shift = 1 - min(step for step, _ in places.values())

    cases = engine.enumerate_fault_cases(config)
    assert len(cases) == 6468
    assert sorted(places) == sorted({c.slot for c in cases})
    slots = np.array([[c.slot] for c in cases], dtype=np.int64)
    codes = np.array([[c.code] for c in cases], dtype=np.uint8)
    dx, dz = engine.run_fault_plan(config, slots, codes)

    rejected = 0
    for case, ex, ez in zip(cases, dx, dz):
        step, qubits = places[case.slot]
        if len(qubits) == 1:
            paulis = [PAULI[case.code]]
        else:
            paulis = [PAULI[case.code >> 2], PAULI[case.code & 3]]

        def inject(frame):
            for q, p in zip(qubits, paulis):
                frame = apply_pauli(frame, q, p)
            return frame

        want = _walk(steps, net.n_qubits, step + shift, inject)
        if want is None:
            rejected += 1
            want = (0, 0)
        assert (int(ex), int(ez)) == want, case.label
    assert rejected > 0

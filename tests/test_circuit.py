"""Structural and semantic checks of the built networks.

The syndrome-extraction checks run a small reference simulator written here
on top of the tests' frame algebra (`frames`): it walks a Network's
locations step by step and reads parity measurements with measure_flip.
This is an independent path from the vectorized engine, and from the mask
propagation of `verify_encoder`.
"""

import numpy as np
import pytest
from frames import PauliFrame, apply_cnot, apply_h, apply_pauli, measure_flip

from steane_mc import codebook as cb
from steane_mc.circuit import (
    GROUP_ORDER,
    MODES,
    Location,
    Network,
    RecoverySchedule,
    _network,
    _prep,
    _propagate,
    build_encoder,
    build_recovery,
    build_syndrome_round,
    census,
    program,
    verify_encoder,
)


def build_ancilla_prep(kind: str) -> Network:
    """Verified cat/Shor ancilla synthesis on 5 qubits (qubit 4 verifies)."""
    if kind not in ("phase", "bit"):
        raise ValueError(f"unknown ancilla kind {kind!r}")
    return _network(_prep(kind, tuple(range(5)), 1, "prep"), data_qubits=())


def _walk(net, frame, inject=None):
    """Propagate a frame through a network; returns (frame, measurements).

    inject maps (step, qubit) -> Pauli name, applied at the end of that step
    (the memory-error slot position).
    """
    inject = inject or {}
    outcomes = []
    for step_locs in net.steps():
        step = step_locs[0].step
        for loc in step_locs:
            if loc.kind == "H":
                frame = apply_h(frame, loc.qubits[0])
            elif loc.kind == "CNOT":
                frame = apply_cnot(frame, loc.qubits[0], loc.qubits[1])
        for loc in step_locs:
            if loc.kind == "M":
                outcomes.append((loc, measure_flip(frame, loc.qubits)))
        for (s, q), p in inject.items():
            if s == step:
                frame = apply_pauli(frame, q, p)
    return frame, outcomes


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def test_encoder_verifies():
    assert verify_encoder(build_encoder())


def test_encoder_census():
    c = census(build_encoder())
    assert c.h_count == 3
    assert c.cnot_count == 11
    assert c.step_count <= 6
    assert c.measure_count == 0


def test_empty_network_fails_verification():
    assert not verify_encoder(Network(7, ()))


def test_encoder_perturbations_fail():
    net = build_encoder()
    cnots = [l for l in net.locations if l.kind == "CNOT"]
    for drop in cnots:
        rest = tuple(l for l in net.locations if l is not drop)
        assert not verify_encoder(Network(7, rest, data_qubits=net.data_qubits))


def _random_network(rng, n_steps):
    """Random H and CNOT gates on 7 qubits, each qubit in at most one gate a
    step."""
    locs = []
    for step in range(1, n_steps + 1):
        free = list(rng.permutation(7))
        while free:
            gate = rng.choice(("H", "CNOT", None)) if len(free) > 1 else rng.choice(("H", None))
            if gate == "CNOT":
                locs.append(Location(step, gate, (int(free.pop()), int(free.pop()))))
            else:
                q = int(free.pop())
                if gate == "H":
                    locs.append(Location(step, gate, (q,)))
    return Network(7, tuple(locs))


def test_mask_propagation_matches_the_frame_walker():
    """verify_encoder's mask propagation gives the frame walker's frame on
    seeded random H/CNOT networks and random (x, z)."""
    rng = np.random.default_rng(2027)
    for _ in range(200):
        net = _random_network(rng, int(rng.integers(1, 12)))
        x, z = (int(v) for v in rng.integers(0, 128, size=2))
        frame, _ = _walk(net, PauliFrame(x, z, 7))
        assert _propagate(net, x, z) == (frame.x_mask, frame.z_mask)


# ---------------------------------------------------------------------------
# ancilla preparation
# ---------------------------------------------------------------------------


def test_prep_census():
    for kind in ("phase", "bit"):
        c = census(build_ancilla_prep(kind))
        assert c.cnot_count == 5  # 3 fan-out + 2 verification
        assert c.measure_count == 1
    assert census(build_ancilla_prep("phase")).h_count == 1
    assert census(build_ancilla_prep("bit")).h_count == 5


def test_prep_unknown_kind():
    with pytest.raises(ValueError):
        build_ancilla_prep("weird")


def _verify_outcome(inject):
    net = build_ancilla_prep("phase")
    frame, outcomes = _walk(net, PauliFrame(0, 0, 5), inject)
    assert len(outcomes) == 1
    return frame, outcomes[0][1]


def test_prep_ideal_run_accepts():
    frame, outcome = _verify_outcome({})
    assert outcome == 0 and frame.is_identity()


def test_prep_verification_semantics():
    """Accepted single bit-flip faults always touch <= 1 data qubit modulo
    the stabilizer; weight-2 cat patterns are rejected."""
    m_step = max(l.step for l in build_ancilla_prep("phase").locations)
    reject_seen = 0
    for step in range(1, m_step):  # injection after any pre-readout step
        for q in range(4):
            frame, outcome = _verify_outcome({(step, q): "X"})
            cat_x = frame.x_mask & 0x0F
            if outcome == 0:
                # slipping through is fine only if harmless on the data
                assert bin(cat_x).count("1") in (0, 1, 4)
            else:
                reject_seen += 1
    assert reject_seen > 0


def test_prep_x_before_fanout_spreads_harmlessly():
    # the all-four pattern commutes with the parity check and is a stabilizer
    frame, outcome = _verify_outcome({(1, 0): "X"})
    assert outcome == 0
    assert frame.x_mask & 0x0F == 0b1111


def test_prep_z_slips_through():
    for q in range(4):
        frame, outcome = _verify_outcome({(2, q): "Z"})
        assert outcome == 0  # phase errors are invisible to the check


# ---------------------------------------------------------------------------
# syndrome round and recovery
# ---------------------------------------------------------------------------


def _round_syndromes(inject=None):
    """Noiseless round walk; returns {(kind, row): bit}."""
    net = build_syndrome_round()
    frame, outcomes = _walk(net, PauliFrame(0, 0, net.n_qubits), inject)
    bits = {}
    verif = 0
    for loc, val in outcomes:
        if len(loc.qubits) == 1:
            verif += val
        else:
            block = loc.qubits[0] // 5 - 1  # ancilla blocks start at qubit 7
            bits[GROUP_ORDER[block]] = val
    assert verif == 0
    return bits


def test_round_census():
    c = census(build_syndrome_round())
    assert c.data_cnot_count == 24
    assert c.cnot_count == 24 + 6 * 5
    assert c.data_step_count == 6


def test_round_single_x_syndromes():
    first_data_step = min(
        l.step for l in build_syndrome_round().locations if set(l.qubits) & set(range(7))
    )
    for j in range(1, 8):
        bits = _round_syndromes({(first_data_step - 1, j - 1): "X"})
        got = (
            bits[("bit", 0)] | (bits[("bit", 1)] << 1) | (bits[("bit", 2)] << 2)
        )
        assert got == j
        assert all(bits[("phase", r)] == 0 for r in range(3))


def test_round_single_z_syndromes():
    first_data_step = min(
        l.step for l in build_syndrome_round().locations if set(l.qubits) & set(range(7))
    )
    for j in range(1, 8):
        bits = _round_syndromes({(first_data_step - 1, j - 1): "Z"})
        got = (
            bits[("phase", 0)] | (bits[("phase", 1)] << 1) | (bits[("phase", 2)] << 2)
        )
        assert got == j
        assert all(bits[("bit", r)] == 0 for r in range(3))


def test_recovery_census():
    sched = RecoverySchedule()
    c = census(build_recovery())
    assert c.data_cnot_count == 72
    assert c.cnot_count == 3 * 54
    assert c.data_step_count == 20  # 19 recovery steps + 1 channel step
    assert sched.data_exposure_steps == 19
    assert sched.total_steps == 20


def test_tally_at_each_correction_step():
    """Every recovery ends in a tally at its correction step (the CSVs'
    t_steps), after that step's memory errors."""
    steps = {}
    for mode in MODES:
        ops = list(program(mode, 3))
        tallies = [i for i, op in enumerate(ops) if op.kind == "tally"]
        steps[mode] = [ops[i].step for i in tallies]
        assert steps[mode] == [op.step for op in ops if op.kind == "P"]
        assert all(ops[i - 1][:2] == ("xor", ops[i].step) for i in tallies)
    assert steps == {
        "memory_t20": [20], "fig5": [25], "ec1": [19], "zgate": [21],
        "stabilize": [20, 40, 60],
    }


def test_schedule_validation():
    with pytest.raises(TypeError):  # fixed by the majority vote, not settable
        RecoverySchedule(rounds=2)
    with pytest.raises(TypeError):
        RecoverySchedule(steps_per_round=5)
    with pytest.raises(TypeError):  # one cycle: the idle steps are fixed too
        RecoverySchedule(channel_prefix_steps=2)
    with pytest.raises(TypeError):
        RecoverySchedule(inter_recovery_gap=3)
    # the benchmark scripts still pass a schedule, which build_recovery ignores
    assert build_recovery(RecoverySchedule()).fingerprint() == "19a428be93203fd7"


def test_network_step_disjointness_enforced():
    with pytest.raises(ValueError):
        Network(3, (Location(1, "H", (0,)), Location(1, "CNOT", (0, 1))))
    with pytest.raises(ValueError):
        Location(1, "CNOT", (2, 2))
    with pytest.raises(ValueError):
        Location(1, "H", (0, 1))


def test_no_qubit_reused_within_any_step():
    for net in (build_encoder(), build_syndrome_round(), build_recovery()):
        for step in net.steps():
            seen = set()
            for loc in step:
                assert not (seen & set(loc.qubits))
                seen |= set(loc.qubits)


def test_dump_matches_versioned_schedule_doc():
    net = build_recovery()
    with open("docs/default_schedule.txt") as fh:
        lines = [l for l in fh if not l.startswith("#")]
        fingerprint = next(
            l.split("=")[1].strip()
            for l in open("docs/default_schedule.txt")
            if l.startswith("# fingerprint")
        )
    assert "".join(lines) == net.dump_text()
    assert fingerprint == net.fingerprint()


def test_dump_deterministic():
    a = build_recovery()
    b = build_recovery()
    assert a.dump_text() == b.dump_text()
    assert a.fingerprint() == b.fingerprint()

"""The circuit, written down once: gate tables compiled into one op program.

`program()` compiles the tables below, per experiment mode, into a flat
sequence of `Op`s that the engine interprets.  The networks (encoder,
syndrome round, recovery), their censuses, the text dump and the
schedule fingerprint are derived from the same ops, so the pinned dump
describes what the engine runs.  Qubits are 0-indexed (data bit j <-> data
position j+1).

An op is (kind, step, qubits, args): `step` and `qubits` place it in the
network (a noise op lists the qubits its bits strike, in bit order); `args`
are the interpreter's operands in register-local bits, register DATA holding
the data block and ANC the ancilla group in use.  Kinds: H, CNOT; M (parity
of the qubits' x bits: a verification flag or a syndrome bit); I (idle block,
every step of a memory draw XORed in); P (majority vote and correction);
pauli1/pauli2 (a tagged noise draw over one-qubit / CNOT locations);
xor/pair (one column of a draw onto a register); prep (the shared ATTEMPT,
placed at its step and qubits, rerun for rejected trials); tally (the data
residual's joint class counts, taken after each recovery's correction step
and its memory errors).

Locations are numbered per trial in draw order, the random stream's
contract, and draw order is not step order; where the draw ops sit fixes
it.  An ancilla attempt draws its /g1, /g2 and /mem (7 steps x 5 qubits)
blocks before its first gate; the encoder draws enc/mem first, then /g1 and
/g2 step by step.  Within a step: ideal gates, then intrinsic gate errors,
then one memory error per live qubit, then readouts.

Layout notes:
  * cat-state fan-out runs the leg to the other verified qubit (a4) first;
    with verification CNOTs on (a1, a4) this is what makes every accepted
    single-fault bit-flip pattern equivalent to weight <= 1 on the data.
  * prep is scheduled serially, one gate per step (7 steps, plus one step of
    four H gates for the bit-syndrome kind, after verification).
  * each syndrome round exposes the data block for exactly 6 steps, one
    ancilla group firing all four of its data CNOTs per step; bit groups
    fire at steps 1-3, phase groups at steps 4-6 (GROUP_ORDER).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import codebook

N_DATA = 7
MODES = ("memory_t20", "stabilize", "ec1", "zgate", "fig5")

# Support of each parity-check row over the data block, ascending.
ROW_SUPPORTS: tuple[tuple[int, ...], ...] = tuple(
    tuple(j for j in range(N_DATA) if (row >> j) & 1) for row in codebook.H_ROWS
)

# (kind, row) per data step of one syndrome round, in firing order.
GROUP_ORDER: tuple[tuple[str, int], ...] = (
    ("bit", 0),
    ("bit", 1),
    ("bit", 2),
    ("phase", 0),
    ("phase", 1),
    ("phase", 2),
)

# Ancilla prep on 5 local qubits (0..3 cat, 4 verification), one gate per step.
PREP_STEPS: tuple[tuple[tuple, ...], ...] = (
    (("H", 0),),
    (("CNOT", 0, 3),),
    (("CNOT", 0, 1),),
    (("CNOT", 0, 2),),
    (("CNOT", 3, 4),),
    (("CNOT", 0, 4),),
    (("M", 4),),
)
PREP_BIT_H_LAYER: tuple[tuple, ...] = (("H", 0), ("H", 1), ("H", 2), ("H", 3))

# Encoder on the 7 data qubits; input state sits at index 2 (third qubit).
# H qubits are the generator pivots; CNOT targets never re-enter as controls
# except qubit 2, whose fan-out fires first.
ENCODER_INPUT = 2
ENCODER_STEPS: tuple[tuple[tuple, ...], ...] = (
    (("H", 0), ("H", 1), ("H", 3), ("CNOT", 2, 4)),
    (("CNOT", 2, 5), ("CNOT", 0, 4), ("CNOT", 3, 6)),
    (("CNOT", 0, 2), ("CNOT", 1, 5), ("CNOT", 3, 4)),
    (("CNOT", 0, 6), ("CNOT", 1, 2), ("CNOT", 3, 5)),
    (("CNOT", 1, 6),),
)

DATA, ANC = 0, 1  # interpreter registers
EPS, GAMMA = 0, 1  # which rate a one-qubit noise draw uses
PHASE, BIT = 0, 1  # syndrome sectors: phase bits correct z, bit bits correct x
DATA_QUBITS = tuple(range(N_DATA))


@dataclass(frozen=True)
class Location:
    """One error location: a gate, measurement, idle slot, or correction."""

    step: int
    kind: str  # "H", "CNOT", "M", "I" (idle), "P" (Pauli correction)
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"bad CNOT qubits {self.qubits}")
        elif self.kind in ("H", "I", "P"):
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes exactly one qubit")
        elif self.kind == "M":
            if not self.qubits:
                raise ValueError("measurement set must be nonempty")
        else:
            raise ValueError(f"unknown location kind {self.kind!r}")


@dataclass(frozen=True)
class Network:
    n_qubits: int
    locations: tuple[Location, ...]
    data_qubits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        busy: dict[int, set[int]] = {}
        for loc in self.locations:
            seen = busy.setdefault(loc.step, set())
            for q in loc.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range at step {loc.step}")
                if q in seen:
                    raise ValueError(f"qubit {q} used twice in step {loc.step}")
                seen.add(q)

    def steps(self) -> list[list[Location]]:
        """Locations grouped by step, ascending."""
        out: dict[int, list[Location]] = {}
        for loc in self.locations:
            out.setdefault(loc.step, []).append(loc)
        return [sorted(out[s], key=lambda l: (l.kind, l.qubits)) for s in sorted(out)]

    def dump_text(self) -> str:
        lines = [
            f"{loc.step}\t{loc.kind}\t{','.join(map(str, loc.qubits))}"
            for loc in sorted(self.locations, key=lambda l: (l.step, l.kind, l.qubits))
        ]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        import hashlib  # loads OpenSSL, which only the fingerprint needs

        return hashlib.sha256(self.dump_text().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Census:
    cnot_count: int
    h_count: int
    measure_count: int
    step_count: int
    data_cnot_count: int = 0
    data_step_count: int = 0


def census(net: Network) -> Census:
    cnot = sum(1 for l in net.locations if l.kind == "CNOT")
    h = sum(1 for l in net.locations if l.kind == "H")
    m = sum(1 for l in net.locations if l.kind == "M")
    steps = {l.step for l in net.locations}
    data = set(net.data_qubits)
    data_cnot = sum(
        1 for l in net.locations if l.kind == "CNOT" and data.intersection(l.qubits)
    )
    data_steps = {
        l.step for l in net.locations if data.intersection(l.qubits)
    }
    return Census(
        cnot_count=cnot,
        h_count=h,
        measure_count=m,
        step_count=(max(steps) - min(steps) + 1) if steps else 0,
        data_cnot_count=data_cnot,
        data_step_count=len(data_steps),
    )


class RecoverySchedule:
    """Step accounting for the one recovery cycle of the model: a channel
    step, then three syndrome rounds and the correction step.

    The majority vote needs exactly 3 rounds, the interaction layout spans 6
    data steps and the correction one; the channel step stands for the
    storage a recovery protects, and stabilize repeats the whole 20-step
    cycle.  Every count is a class constant, so nothing is settable."""

    rounds = 3
    steps_per_round = 6
    correction_steps = 1
    channel_prefix_steps = 1
    inter_recovery_gap = 1  # the channel step between stabilize's recoveries
    data_exposure_steps = rounds * steps_per_round + correction_steps  # 19
    total_steps = channel_prefix_steps + data_exposure_steps  # 20


# ---------------------------------------------------------------------------
# the op program
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    kind: str
    step: int
    qubits: tuple[int, ...]
    args: tuple = ()


def _draw(rate: int, n_steps: int, width: int, tag: str) -> Op:
    """n_steps x width one-qubit locations; later ops read it by its last tag part."""
    return Op("pauli1", 0, (), (rate, n_steps, width, tag, tag.rsplit("/", 1)[-1]))


def _draw_pairs(n: int, tag: str) -> Op:
    """n CNOT locations (rate gamma), read back like `_draw`."""
    return Op("pauli2", 0, (), (n, tag, tag.rsplit("/", 1)[-1]))


def _xor(step, key, col, reg, qmap, bits=None) -> Op:
    """Column `col` of draw `key` onto a register: bit j on qubit j, or the
    (bit, qubit) pairs of `bits`."""
    hit = qmap if bits is None else tuple(qmap[q] for _, q in bits)
    return Op("xor", step, tuple(hit), (key, col, reg, bits))


def _pair(step: int, col: int, cnot: Op) -> Op:
    """Column `col` of the latest CNOT draw onto the qubits of `cnot`."""
    return Op("pair", step, cnot.qubits, ("g2", col, *cnot.args))


def _idle(n_steps: int, tag: str, step: int, reg=DATA, qmap=DATA_QUBITS) -> list[Op]:
    """Memory errors on idle qubits for n_steps steps from `step`."""
    if n_steps <= 0:
        return []
    draw = _draw(EPS, n_steps, len(qmap), tag)
    return [draw, Op("I", step, tuple(qmap), (draw.args[4], reg, n_steps))]


def _gate_table(steps, reg, qmap, step0, tag, hoist) -> list[Op]:
    """A gate table on one register, with its gate and memory errors.

    hoist=True draws the whole table's /g1, /g2 and /mem blocks before the
    first gate (an ancilla attempt); otherwise /mem comes first and each step
    draws its own /g1 and /g2 (the encoder).
    """
    ones = [[g[1] for g in gates if g[0] != "CNOT"] for gates in steps]  # H and M
    cnots = [
        [Op("CNOT", step0 + si, (qmap[g[1]], qmap[g[2]]), (reg, g[1], reg, g[2]))
         for g in gates if g[0] == "CNOT"]
        for si, gates in enumerate(steps)
    ]
    mem = _draw(EPS, len(steps), len(qmap), tag + "/mem")
    ops = [mem]
    if hoist:
        ops = [
            _draw(GAMMA, 1, sum(map(len, ones)), tag + "/g1"),
            _draw_pairs(sum(map(len, cnots)), tag + "/g2"),
            mem,
        ]
    n1 = n2 = 0  # one-qubit gates and CNOTs of earlier steps in a hoisted draw
    for si, gates in enumerate(steps):
        step = step0 + si
        hs = [g[1] for g in gates if g[0] == "H"]
        if hs:
            ops.append(Op("H", step, tuple(qmap[q] for q in hs), (reg, sum(1 << q for q in hs))))
        ops += cnots[si]
        if ones[si]:
            if not hoist:
                ops.append(_draw(GAMMA, 1, len(ones[si]), f"{tag}/s{si}/g1"))
            ops.append(_xor(step, "g1", 0, reg, qmap, tuple(enumerate(ones[si], n1))))
        if cnots[si]:
            if not hoist:
                ops.append(_draw_pairs(len(cnots[si]), f"{tag}/s{si}/g2"))
            ops += [_pair(step, k, g) for k, g in enumerate(cnots[si], n2)]
        if hoist:
            n1, n2 = n1 + len(ones[si]), n2 + len(cnots[si])
        ops.append(_xor(step, "mem", si, reg, qmap))
        for g in gates:
            if g[0] == "M":  # verification readout; a set bit rejects the attempt
                ops.append(Op("M", step, (qmap[g[1]],), (reg, 1 << g[1], None)))
    return ops


# One ancilla synthesis attempt on local qubits 0..4 from step 0, shared by
# every prep op.
ATTEMPT = tuple(_gate_table(PREP_STEPS, ANC, tuple(range(5)), 0, "", hoist=True))


def _prep(kind: str, qmap, step0: int, tag: str) -> list[Op]:
    """Verified cat for one syndrome bit, then the bit kind's Shor rotation.

    The prep op places the shared ATTEMPT at step0 on qubits qmap and
    prefixes its draw tags with `tag`."""
    ops = [Op("prep", step0, tuple(qmap), (ATTEMPT, tag))]
    if kind == "bit":
        step = step0 + len(PREP_STEPS)
        cat = [g[1] for g in PREP_BIT_H_LAYER]
        ops += [
            _draw(GAMMA, 1, len(cat), tag + "/hl/g"),
            _draw(EPS, 1, len(cat), tag + "/hl/m"),
            Op("H", step, tuple(qmap[q] for q in cat), (ANC, sum(1 << q for q in cat))),
            _xor(step, "g", 0, ANC, qmap[: len(cat)]),
            _xor(step, "m", 0, ANC, qmap[: len(cat)]),
        ]
    return ops


def _round(tag: str, rnd: int, t0: int, base: int) -> list[Op]:
    """One six-bit syndrome round: group `slot` (ancilla qubits base+5*slot..+4)
    idles its cat from t0, fires at t0+slot, then is read out."""
    ops: list[Op] = []
    for slot, (kind, row) in enumerate(GROUP_ORDER):
        gtag = f"{tag}/g{slot}{kind[0]}{row}"
        qmap = tuple(range(base + 5 * slot, base + 5 * slot + 5))
        cat, fire = qmap[:4], t0 + slot
        ops += _prep(kind, qmap, t0 - len(PREP_STEPS) - (kind == "bit"), gtag)
        ops += _idle(slot, gtag + "/wait", t0, ANC, cat)
        # interaction: four CNOTs between the cat and the row support
        cnots = [
            Op("CNOT", fire, (cat[i], d), (ANC, i, DATA, d)) if kind == "phase"
            else Op("CNOT", fire, (d, cat[i]), (DATA, d, ANC, i))
            for i, d in enumerate(ROW_SUPPORTS[row])
        ]
        ops += cnots + [_draw_pairs(len(cnots), gtag + "/int/g2")]
        ops += [_pair(fire, k, g) for k, g in enumerate(cnots)]
        ops += [_draw(EPS, 1, N_DATA, gtag + "/int/md"), _xor(fire, "md", 0, DATA, DATA_QUBITS)]
        # cat memory from firing to readout, and its H / readout gate errors
        after = ("H", "M") if kind == "phase" else ("M",)
        ops += [
            _draw(EPS, 1 + len(after), len(cat), gtag + "/am"),
            _draw(GAMMA, len(after), len(cat), gtag + "/g1"),
            _xor(fire, "am", 0, ANC, cat),
        ]
        for k, gate in enumerate(after, 1):
            if gate == "H":  # rotate the collected phase flips into the readout basis
                ops.append(Op("H", fire + k, cat, (ANC, 0x0F)))
            ops += [_xor(fire + k, "g1", k - 1, ANC, cat), _xor(fire + k, "am", k, ANC, cat)]
        sector = PHASE if kind == "phase" else BIT
        ops.append(Op("M", fire + len(after), cat, (ANC, 0x0F, (sector, rnd, row))))
    return ops


def _recovery(tag: str, t0: int, base: int) -> list[Op]:
    """Three rounds from data step t0, then the majority-vote correction step
    and the class tally of the residual it leaves, placed at that step."""
    ops: list[Op] = []
    for rnd in range(RecoverySchedule.rounds):
        step = t0 + rnd * RecoverySchedule.steps_per_round
        ops += _round(f"{tag}/r{rnd}", rnd, step, base + 30 * rnd)
    step = t0 + RecoverySchedule.rounds * RecoverySchedule.steps_per_round
    ops.append(Op("P", step, DATA_QUBITS))
    ops += [_draw(EPS, 1, N_DATA, tag + "/corr/mem"), _xor(step, "mem", 0, DATA, DATA_QUBITS)]
    ops.append(Op("tally", step, ()))
    return ops


def program(mode: str, t_max: int = 1) -> Iterator[Op]:
    """The op program of one experiment mode, op by op; data steps count from 1.

    fig5 starts with the noisy encoder, then: ec1 one recovery; zgate an idle
    step, the transversal-Z step, one recovery; memory_t20 and fig5 the
    channel step, one recovery; stabilize t_max cycles of a channel step and
    a recovery (`RecoverySchedule`).  Every recovery ends in a tally, so a
    sweep mode has one and stabilize t_max.  Ops are made as they are read,
    so a long stabilize program is never held in memory at once."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    t = 1
    if mode == "fig5":
        yield from _gate_table(ENCODER_STEPS, DATA, DATA_QUBITS, t, "enc", hoist=False)
        t += len(ENCODER_STEPS)
    if mode == "zgate":
        yield from _idle(1, "pre", t)
        yield from [_draw(GAMMA, 1, N_DATA, "zg/gate"), _xor(t + 1, "gate", 0, DATA, DATA_QUBITS)]
        yield from _idle(1, "zg/mem", t + 1)
        t += 2
    elif mode != "ec1":
        yield from _idle(RecoverySchedule.channel_prefix_steps, "chan", t)
        t += RecoverySchedule.channel_prefix_steps
    if mode != "stabilize":
        yield from _recovery("rec", t, N_DATA)
        return
    for k in range(t_max):
        yield from _recovery(f"rec{k}", t, N_DATA + 90 * k)
        t += RecoverySchedule.data_exposure_steps
        if k + 1 < t_max:
            yield from _idle(RecoverySchedule.inter_recovery_gap, f"gap{k}", t)
            t += RecoverySchedule.inter_recovery_gap


# ---------------------------------------------------------------------------
# networks derived from the program
# ---------------------------------------------------------------------------


def _locations(ops, step0=0, qmap=None):
    """Locations of ops placed at step0 on qubits qmap (None: as they are)."""
    for kind, step, qubits, args in ops:
        step += step0
        if qmap is not None:
            qubits = tuple(qmap[q] for q in qubits)
        if kind == "prep":
            yield from _locations(args[0], step, qubits)
        elif kind in ("CNOT", "M"):
            yield Location(step, kind, qubits)
        elif kind in ("H", "P"):
            yield from (Location(step, kind, (q,)) for q in qubits)
        elif kind == "I":
            for s in range(args[2]):
                yield from (Location(step + s, "I", (q,)) for q in qubits)


def _network(ops, data_qubits=DATA_QUBITS) -> Network:
    """The ops' locations, steps shifted to start at 1."""
    locs = list(_locations(ops))
    shift = 1 - min(l.step for l in locs)
    return Network(
        1 + max(q for l in locs for q in l.qubits),
        tuple(
            Location(l.step + shift, l.kind, l.qubits)
            for l in sorted(locs, key=lambda l: (l.step, l.kind, l.qubits))
        ),
        data_qubits,
    )


def build_encoder() -> Network:
    """Fig.-2-style encoding network on the 7 data qubits (input at index 2)."""
    return _network(_gate_table(ENCODER_STEPS, DATA, DATA_QUBITS, 1, "enc", hoist=False))


def build_syndrome_round() -> Network:
    """A single six-bit syndrome measurement round (24 data-facing CNOTs)."""
    return _network(_round("rec/r0", 0, 1, N_DATA))


def build_recovery(schedule: RecoverySchedule | None = None) -> Network:
    """Three syndrome rounds plus the correction step, with channel prefix.

    The argument is ignored: the cycle is fixed, and the benchmark scripts
    still pass `RecoverySchedule()`."""
    return _network(program("memory_t20"))


def _f2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def _propagate(net: Network, x: int, z: int) -> tuple[int, int]:
    """The Pauli frame (x, z masks) that net's H and CNOT gates make of (x,
    z), step by step: H swaps bit q between x and z, and a CNOT copies x from
    control to target and z from target to control."""
    for step in net.steps():
        for loc in step:
            if loc.kind == "H":
                swap = (x ^ z) & 1 << loc.qubits[0]
                x, z = x ^ swap, z ^ swap
            elif loc.kind == "CNOT":
                c, t = loc.qubits
                x ^= (x >> c & 1) << t
                z ^= (z >> t & 1) << c
    return x, z


def verify_encoder(net: Network) -> bool:
    """Heisenberg check of an encoding network on 7 qubits.

    The six initial Z operators on the |0> qubits must map into the code's
    stabilizer group, independently, and the input qubit's X and Z must map
    to representatives of logical X and logical Z (up to stabilizer).
    """
    if net.n_qubits != N_DATA:
        return False
    cperp = codebook.tables().cperp_words
    c = codebook.tables().c_words
    stab_images = []
    for q in range(N_DATA):
        if q == ENCODER_INPUT:
            continue
        x, z = _propagate(net, 0, 1 << q)
        if x not in cperp or z not in cperp or (x == 0 and z == 0):
            return False
        stab_images.append((x << N_DATA) | z)
    if _f2_rank(stab_images) != 6:
        return False
    x, z = _propagate(net, 1 << ENCODER_INPUT, 0)
    if not (x in c and x not in cperp and z in cperp):
        return False
    x, z = _propagate(net, 0, 1 << ENCODER_INPUT)
    if not (z in c and z not in cperp and x in cperp):
        return False
    return True

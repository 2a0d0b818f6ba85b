"""Binary symplectic Pauli-frame algebra, sign-free.

A frame records the accumulated Pauli deviation from the ideal circuit as a
pair of bit masks; Y on a qubit means both its x and z bits are set.  Global
phases are dropped throughout, which is safe because every quantity reported
downstream is a squared magnitude or a class probability.

This is the tests' frame walker, kept apart from the package: the circuit
and differential tests walk networks with it, as an independent reference
for `circuit.verify_encoder`'s mask propagation and for the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliFrame:
    x_mask: int
    z_mask: int
    qubit_count: int

    def __post_init__(self) -> None:
        if self.qubit_count < 0:
            raise ValueError("qubit_count must be non-negative")
        top = 1 << self.qubit_count
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask exceeds qubit_count bits")

    def pauli_at(self, q: int) -> str:
        _check_index(self, q)
        x = (self.x_mask >> q) & 1
        z = (self.z_mask >> q) & 1
        return ("I", "X", "Z", "Y")[x + 2 * z]

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0


def identity_frame(qubit_count: int) -> PauliFrame:
    return PauliFrame(0, 0, qubit_count)


def _check_index(frame: PauliFrame, q: int) -> None:
    if not 0 <= q < frame.qubit_count:
        raise IndexError(f"qubit index {q} out of range for {frame.qubit_count} qubits")


def apply_h(frame: PauliFrame, q: int) -> PauliFrame:
    """Hadamard conjugation: swaps the x and z bits at q (Z = HXH)."""
    _check_index(frame, q)
    bit = 1 << q
    x, z = frame.x_mask, frame.z_mask
    if ((x ^ z) >> q) & 1:
        x ^= bit
        z ^= bit
    return replace(frame, x_mask=x, z_mask=z)


def apply_cnot(frame: PauliFrame, control: int, target: int) -> PauliFrame:
    """CNOT conjugation: X copies control->target, Z copies target->control."""
    _check_index(frame, control)
    _check_index(frame, target)
    if control == target:
        raise ValueError("control and target must differ")
    x, z = frame.x_mask, frame.z_mask
    if (x >> control) & 1:
        x ^= 1 << target
    if (z >> target) & 1:
        z ^= 1 << control
    return replace(frame, x_mask=x, z_mask=z)


def apply_pauli(frame: PauliFrame, q: int, p: str) -> PauliFrame:
    """XOR a Pauli into the frame (error injection / software correction)."""
    _check_index(frame, q)
    try:
        xb, zb = _PAULI_BITS[p]
    except KeyError:
        raise ValueError(f"unknown Pauli {p!r}") from None
    return replace(
        frame,
        x_mask=frame.x_mask ^ (xb << q),
        z_mask=frame.z_mask ^ (zb << q),
    )


def measure_flip(frame: PauliFrame, qubits: Iterable[int]) -> int:
    """Flip of the ideal even-parity outcome over a computational readout set.

    Only x bits matter; z errors are invisible to a computational-basis
    parity measurement.
    """
    qs = list(qubits)
    if not qs:
        raise ValueError("measurement set must be nonempty")
    flip = 0
    for q in qs:
        _check_index(frame, q)
        flip ^= (frame.x_mask >> q) & 1
    return flip

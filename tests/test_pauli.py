import pytest
from hypothesis import given, strategies as st

from frames import (
    PauliFrame,
    apply_cnot,
    apply_h,
    apply_pauli,
    identity_frame,
    measure_flip,
)

frames = st.builds(
    PauliFrame,
    st.integers(0, 2**10 - 1),
    st.integers(0, 2**10 - 1),
    st.just(10),
)


def test_h_conjugation():
    f = apply_pauli(identity_frame(3), 1, "X")
    assert apply_h(f, 1).pauli_at(1) == "Z"
    assert apply_h(apply_pauli(identity_frame(3), 1, "Z"), 1).pauli_at(1) == "X"
    assert apply_h(apply_pauli(identity_frame(3), 1, "Y"), 1).pauli_at(1) == "Y"
    assert apply_h(identity_frame(3), 0).is_identity()


@given(frames, st.integers(0, 9))
def test_h_involutive(f, q):
    assert apply_h(apply_h(f, q), q) == f


def test_cnot_propagation():
    x_on_ctrl = apply_pauli(identity_frame(2), 0, "X")
    out = apply_cnot(x_on_ctrl, 0, 1)
    assert out.pauli_at(0) == "X" and out.pauli_at(1) == "X"
    z_on_tgt = apply_pauli(identity_frame(2), 1, "Z")
    out = apply_cnot(z_on_tgt, 0, 1)
    assert out.pauli_at(0) == "Z" and out.pauli_at(1) == "Z"
    z_on_ctrl = apply_pauli(identity_frame(2), 0, "Z")
    assert apply_cnot(z_on_ctrl, 0, 1) == z_on_ctrl
    x_on_tgt = apply_pauli(identity_frame(2), 1, "X")
    assert apply_cnot(x_on_tgt, 0, 1) == x_on_tgt


@given(frames, st.integers(0, 9), st.integers(0, 9))
def test_cnot_involutive(f, c, t):
    if c == t:
        with pytest.raises(ValueError):
            apply_cnot(f, c, t)
    else:
        assert apply_cnot(apply_cnot(f, c, t), c, t) == f


def test_apply_pauli():
    f = identity_frame(4)
    assert apply_pauli(f, 2, "X").x_mask == 0b0100
    y = apply_pauli(f, 2, "Y")
    assert y.x_mask == 0b0100 and y.z_mask == 0b0100
    assert apply_pauli(apply_pauli(f, 2, "X"), 2, "X") == f
    assert apply_pauli(f, 1, "I") == f
    with pytest.raises(ValueError):
        apply_pauli(f, 0, "Q")
    with pytest.raises(IndexError):
        apply_pauli(f, 4, "X")


def test_measure_flip():
    f = identity_frame(5)
    assert measure_flip(f, [0, 1, 2, 3]) == 0
    one_x = apply_pauli(f, 2, "X")
    assert measure_flip(one_x, [0, 1, 2, 3]) == 1
    two_x = apply_pauli(one_x, 0, "X")
    assert measure_flip(two_x, [0, 1, 2, 3]) == 0
    z_only = apply_pauli(f, 1, "Z")
    assert measure_flip(z_only, [0, 1, 2, 3]) == 0
    with pytest.raises(ValueError):
        measure_flip(f, [])
    with pytest.raises(IndexError):
        measure_flip(f, [5])


_circuit_moves = st.lists(
    st.one_of(
        st.tuples(st.just("H"), st.integers(0, 9)),
        st.tuples(st.just("CNOT"), st.integers(0, 9), st.integers(0, 9)),
    ),
    max_size=30,
)


def _run(f, moves):
    for mv in moves:
        if mv[0] == "H":
            f = apply_h(f, mv[1])
        elif mv[1] != mv[2]:
            f = apply_cnot(f, mv[1], mv[2])
    return f


@given(frames, frames, _circuit_moves)
def test_group_action_linear(f1, f2, moves):
    combined = PauliFrame(f1.x_mask ^ f2.x_mask, f1.z_mask ^ f2.z_mask, 10)
    a = _run(f1, moves)
    b = _run(f2, moves)
    c = _run(combined, moves)
    assert c.x_mask == a.x_mask ^ b.x_mask
    assert c.z_mask == a.z_mask ^ b.z_mask


@given(st.integers(0, 127), st.integers(0, 127))
def test_transversal_h_swaps_sectors(x, z):
    f = PauliFrame(x, z, 7)
    for q in range(7):
        f = apply_h(f, q)
    assert (f.x_mask, f.z_mask) == (z, x)


def test_frame_validation():
    with pytest.raises(ValueError):
        PauliFrame(0b100, 0, 2)
    with pytest.raises(IndexError):
        apply_h(identity_frame(3), 3)

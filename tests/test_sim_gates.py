"""Unit tests for the gate library."""

import numpy as np
import pytest

from repro.sim.gates import (
    GATES,
    controlled_swap_unitary,
    gate_unitary,
    ry_unitary,
    swap_unitary,
)


@pytest.mark.parametrize("name", list(GATES))
def test_every_gate_is_unitary(name):
    if GATES[name].is_parametric:
        matrix = gate_unitary(name, theta=0.7)
    else:
        matrix = gate_unitary(name)
    dim = matrix.shape[0]
    assert matrix.shape == (dim, dim)
    assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("name", ["X", "CX", "CCX", "SWAP", "CSWAP", "ANTI_CSWAP"])
def test_permutation_gates_are_self_inverse(name):
    matrix = gate_unitary(name)
    assert np.allclose(matrix @ matrix, np.eye(matrix.shape[0]), atol=1e-12)


def test_cswap_routes_on_control_one():
    cswap = controlled_swap_unitary()
    # |1,0,1> (control=1, a=0, b=1) -> |1,1,0>
    state = np.zeros(8)
    state[0b101] = 1.0
    out = cswap @ state
    assert np.isclose(out[0b110], 1.0)


def test_anti_cswap_routes_on_control_zero():
    anti = gate_unitary("ANTI_CSWAP")
    state = np.zeros(8)
    state[0b001] = 1.0  # control=0, a=0, b=1
    out = anti @ state
    assert np.isclose(out[0b010], 1.0)
    # control=1 leaves targets alone
    state = np.zeros(8)
    state[0b101] = 1.0
    out = anti @ state
    assert np.isclose(out[0b101], 1.0)


def test_permutation_bit_actions_match_unitaries():
    for name in ("X", "CX", "CCX", "SWAP", "CSWAP", "ANTI_CSWAP"):
        gate = GATES[name]
        k = gate.n_qubits
        matrix = gate_unitary(name)
        for value in range(2**k):
            bits = tuple((value >> (k - 1 - i)) & 1 for i in range(k))
            new_bits = gate.permute_bits(bits)
            new_value = 0
            for bit in new_bits:
                new_value = (new_value << 1) | bit
            column = matrix[:, value]
            assert np.isclose(abs(column[new_value]), 1.0)


def test_permute_bits_rejects_non_permutation_gates():
    with pytest.raises(ValueError):
        GATES["H"].permute_bits((0,))


def test_ry_rotation_angle():
    ry = ry_unitary(np.pi)
    # RY(pi)|0> = |1> up to sign convention
    out = ry @ np.array([1, 0], dtype=complex)
    assert np.isclose(abs(out[1]), 1.0)


def test_swap_unitary_swaps_basis_states():
    swap = swap_unitary()
    state = np.zeros(4)
    state[0b01] = 1.0
    assert np.isclose((swap @ state)[0b10], 1.0)


def test_unknown_gate_raises():
    with pytest.raises(KeyError):
        gate_unitary("FOO")


def test_parametric_gate_requires_theta():
    with pytest.raises(ValueError):
        gate_unitary("RY")

"""Unit tests for the gate library."""

import math

import numpy as np
import pytest

from repro.bucket_brigade.executor import BBExecutor
from repro.core.executor import FatTreeExecutor
from repro.sim.gates import (
    GATES,
    controlled_swap_unitary,
    gate_unitary,
    swap_unitary,
)
from repro.sim.sparse import _HANDLERS, QubitLayout, SparseState, SparseStateScalar

#: The permutation gates of :data:`GATES`.
PERMUTATIONS = ["X", "SWAP", "CSWAP", "ANTI_CSWAP"]


@pytest.mark.parametrize("name", list(GATES))
def test_every_gate_is_unitary(name):
    matrix = gate_unitary(name)
    dim = matrix.shape[0]
    assert matrix.shape == (dim, dim)
    assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("name", PERMUTATIONS)
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
    for name in PERMUTATIONS:
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


def test_swap_unitary_swaps_basis_states():
    swap = swap_unitary()
    state = np.zeros(4)
    state[0b01] = 1.0
    assert np.isclose((swap @ state)[0b10], 1.0)


def test_unknown_gate_raises():
    # Names are looked up exactly as given.
    for name in ("FOO", "h"):
        with pytest.raises(KeyError):
            gate_unitary(name)


def _applied_gates():
    """Every gate name a program or a Pauli error applies: the compiled
    Fat-Tree windows at full occupancy and the BB queries at N = 4, 8 and
    16, the bus basis change H, and the Pauli errors X and Y (Z is the
    programs' phase kickback)."""
    applied = {"H", "X", "Y"}
    for capacity in (4, 8, 16):
        data = [address % 2 for address in range(capacity)]
        fat_tree = FatTreeExecutor(capacity, data)
        occupancy = int(math.log2(capacity))
        program = fat_tree.window_program(
            occupancy, fat_tree.minimum_feasible_interval(occupancy)
        )
        applied.update(gate for gate, _ in program.gates)
        applied.update(
            gate for gate, _ in BBExecutor(capacity, data).window_program().gates
        )
    return applied


def test_gate_table_holds_only_applied_gates():
    """The gate table, the bit-sliced handlers, the dense unitaries and the
    dict storage's dispatch cover the same gates, and each of them is one
    a program or a Pauli error applies: a gate nothing applies fails."""
    assert set(GATES) == set(_HANDLERS)
    layout = QubitLayout(["a", "b", "c"])
    for name, gate in GATES.items():
        assert gate_unitary(name).shape == (2**gate.n_qubits,) * 2
        states = [storage.from_layout(layout) for storage in (SparseState, SparseStateScalar)]
        for state in states:
            state.prepare_superposition(["a", "b", "c"], {0: 0.6, 5: 0.8j})
            state.apply_gate(name, ("a", "b", "c")[: gate.n_qubits])
        array, scalar = (list(state.items()) for state in states)
        assert array == scalar, name
    assert set(GATES) <= _applied_gates()

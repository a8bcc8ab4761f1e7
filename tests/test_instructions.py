"""Instruction set, lowering and the qubit namer."""

import pytest

from repro.bucket_brigade.instructions import (
    Instruction,
    InstructionKind,
    QubitNamer,
    lower_instruction,
)
from repro.sim.sparse import QubitLayout, SparseState


def test_instruction_kind_costs():
    """Table 1 footnote: SWAP-migrate and classical-gate layers cost 1/8 of a
    CSWAP layer."""
    assert InstructionKind.ROUTE.layer_cost == 1.0
    assert InstructionKind.SWAP_MIGRATE.layer_cost == 0.125
    assert InstructionKind.CLASSICAL_GATES.is_fast
    assert InstructionKind.UNSTORE.is_inverse
    assert not InstructionKind.STORE.is_inverse


def test_namer_plain_and_multiplexed():
    plain = QubitNamer("bb", multiplexed=False)
    multiplexed = QubitNamer("ft", multiplexed=True)
    assert plain.input_qubit(1, 0) == ("bb", "in", 1, 0)
    assert multiplexed.input_qubit(1, 0, 3) == ("ft", "in", 1, 0, 3)
    assert multiplexed.output_qubit(1, 0, 1, 3) == ("ft", "out", 1, 0, 3, 1)
    assert QubitNamer.address_qubit(2, 0) == ("addr", 2, 0)
    assert QubitNamer.bus_qubit(2) == ("bus", 2)


def test_route_lowering_routes_by_router_state():
    namer = QubitNamer("bb")
    instruction = Instruction(InstructionKind.ROUTE, 0, 2, 0, 0, raw_layer=1)
    gates = lower_instruction(instruction, namer, address_width=2)
    # Level 0 has one router -> ANTI_CSWAP + CSWAP.
    assert [gate for gate, _ in gates] == ["ANTI_CSWAP", "CSWAP"]
    state = SparseState.from_layout(QubitLayout([
        namer.router_qubit(0, 0), namer.input_qubit(0, 0),
        namer.output_qubit(0, 0, 0), namer.output_qubit(0, 0, 1),
    ]))
    state.apply_gate("X", (namer.router_qubit(0, 0),))   # router holds |1>
    state.apply_gate("X", (namer.input_qubit(0, 0),))    # payload |1>
    for gate, qubits in gates:
        state.apply_gate(gate, qubits)
    assert state.probability({namer.output_qubit(0, 0, 1): 1}) == pytest.approx(1.0)
    assert state.probability({namer.input_qubit(0, 0): 1}) == pytest.approx(0.0)


def test_classical_gates_lowering_targets_only_set_bits():
    namer = QubitNamer("bb")
    instruction = Instruction(InstructionKind.CLASSICAL_GATES, 0, 0, 1, 0, raw_layer=1)
    gates = lower_instruction(instruction, namer, address_width=2, data=[1, 0, 0, 1])
    assert sorted(gates) == sorted(
        ("Z", (namer.output_qubit(1, index, direction),))
        for index, direction in [(0, 0), (1, 1)]
    )
    with pytest.raises(ValueError):
        lower_instruction(instruction, namer, address_width=2)
    with pytest.raises(ValueError):
        lower_instruction(instruction, namer, address_width=2, data=[1, 0])


def test_swap_migrate_lowering_covers_inputs_and_routers():
    namer = QubitNamer("ft", multiplexed=True)
    instruction = Instruction(
        InstructionKind.SWAP_MIGRATE, 0, 0, level=1, label=1, raw_layer=5
    )
    gates = lower_instruction(instruction, namer, address_width=3)
    # Levels 0..1 (= 3 routers), 2 swaps each (input + router qubit).
    assert len(gates) == 2 * (1 + 2)
    for gate, (low, high) in gates:
        assert gate == "SWAP"
        assert low[4] == 1 and high[4] == 2   # labels 1 <-> 2


def test_load_lowering_uses_external_register():
    namer = QubitNamer("bb")
    load_bus = Instruction(InstructionKind.LOAD, 3, 3, -1, 0, raw_layer=1)
    assert lower_instruction(load_bus, namer, address_width=2) == [
        ("SWAP", (("bus", 3), namer.input_qubit(0, 0, 0)))
    ]
    load_addr = Instruction(InstructionKind.LOAD, 3, 1, -1, 0, raw_layer=1)
    assert lower_instruction(load_addr, namer, address_width=2) == [
        ("SWAP", (("addr", 3, 0), namer.input_qubit(0, 0, 0)))
    ]

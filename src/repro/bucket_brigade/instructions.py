"""Elementary QRAM instruction set and lowering to gates.

The paper (Appendix A.1) defines five elementary operations — LOAD,
TRANSPORT, ROUTE, STORE, CLASSICAL-GATES — plus their inverses.  This module
represents scheduled instances of those operations as :class:`Instruction`
records (who, where, when) and lowers them to ``(gate, qubits)`` pairs on
named qubits for the sparse simulator.

The same instruction set is reused by the Fat-Tree executor, which adds the
``SWAP_MIGRATE`` instruction for the local swap steps (SWAP-I / SWAP-II).

Both executors compile their lowered gates into a :class:`WindowProgram`
and run every query through :meth:`WindowProgram.replay`: a BB program
holds one slot, a Fat-Tree program one slot per pipelined query.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.sim.sparse import Qubit, QubitLayout, SparseState

# Layer-cost weights from Table 1: intra-node SWAPs and the classically
# controlled data-retrieval gates take 1/8 of a standard CSWAP circuit layer.
FULL_LAYER_COST = 1.0
FAST_LAYER_COST = 0.125

#: One gate application: gate name and target qubits (controls first).
GateCall = tuple[str, tuple[Qubit, ...]]


class InstructionKind(enum.Enum):
    """The elementary QRAM operations (and their inverses)."""

    LOAD = "L"
    TRANSPORT = "T"
    ROUTE = "R"
    STORE = "S"
    CLASSICAL_GATES = "CG"
    UNLOAD = "L'"
    UNTRANSPORT = "T'"
    UNROUTE = "R'"
    UNSTORE = "S'"
    SWAP_MIGRATE = "SW"

    @property
    def is_inverse(self) -> bool:
        return self in (
            InstructionKind.UNLOAD,
            InstructionKind.UNTRANSPORT,
            InstructionKind.UNROUTE,
            InstructionKind.UNSTORE,
        )

    @property
    def is_fast(self) -> bool:
        """True for operations that cost 1/8 of a circuit layer."""
        return self in (InstructionKind.CLASSICAL_GATES, InstructionKind.SWAP_MIGRATE)

    @property
    def layer_cost(self) -> float:
        return FAST_LAYER_COST if self.is_fast else FULL_LAYER_COST


@dataclass(frozen=True)
class Instruction:
    """A scheduled elementary QRAM operation.

    Attributes:
        kind: which elementary operation.
        query: query identifier (0 for single-query BB executions).
        item: which payload the op moves: 1..n for address bits, ``n+1`` for
            the bus, 0 when not applicable (CG, SWAP_MIGRATE).
        level: tree level the op acts on (-1 for LOAD/UNLOAD at the escape,
            and for whole-tree swap steps).
        label: sub-QRAM label ``k`` (always 0 for plain BB QRAM).
        raw_layer: 1-indexed raw circuit layer of the op within its schedule.
    """

    kind: InstructionKind
    query: int
    item: int
    level: int
    label: int
    raw_layer: int


class QubitNamer:
    """Maps (level, index, label) router coordinates to qubit labels.

    BB QRAM uses label 0 everywhere; Fat-Tree passes the sub-QRAM label.
    External (per-query) qubits are named ``("addr", query, bit)`` and
    ``("bus", query)``.
    """

    def __init__(self, prefix: str = "bb", multiplexed: bool = False) -> None:
        self.prefix = prefix
        self.multiplexed = multiplexed

    def input_qubit(self, level: int, index: int, label: int = 0) -> tuple:
        return self._name("in", level, index, label)

    def router_qubit(self, level: int, index: int, label: int = 0) -> tuple:
        return self._name("r", level, index, label)

    def output_qubit(self, level: int, index: int, direction: int, label: int = 0) -> tuple:
        if self.multiplexed:
            return (self.prefix, "out", level, index, label, direction)
        return (self.prefix, "out", level, index, direction)

    def _name(self, role: str, level: int, index: int, label: int) -> tuple:
        if self.multiplexed:
            return (self.prefix, role, level, index, label)
        return (self.prefix, role, level, index)

    @staticmethod
    def address_qubit(query: int, bit: int) -> tuple:
        return ("addr", query, bit)

    @staticmethod
    def bus_qubit(query: int) -> tuple:
        return ("bus", query)


def lower_instruction(
    instruction: Instruction,
    namer: QubitNamer,
    address_width: int,
    data: Sequence[int] | None = None,
    leaf_label: int | None = None,
) -> list[GateCall]:
    """Lower a scheduled instruction to a list of gate calls.

    Args:
        instruction: the scheduled elementary operation.
        namer: qubit naming scheme (plain or multiplexed).
        address_width: ``n`` of the QRAM the instruction belongs to.
        data: the classical memory contents (required for CLASSICAL_GATES).
        leaf_label: sub-QRAM label whose bottom-level outputs are the data
            leaves (``n - 1`` for Fat-Tree, 0/None for BB).

    Returns:
        ``(gate, qubits)`` pairs implementing the instruction.
        Gates emitted for one instruction conceptually execute within one
        circuit layer (the pair of CSWAPs of a ROUTE counts as a single
        layer, following Sec. A.1 of the paper).
    """
    n = address_width
    kind = instruction.kind
    query = instruction.query
    item = instruction.item
    level = instruction.level
    label = instruction.label
    gates: list[GateCall] = []

    if kind in (InstructionKind.LOAD, InstructionKind.UNLOAD):
        external = (
            namer.bus_qubit(query)
            if item == n + 1
            else namer.address_qubit(query, item - 1)
        )
        root_in = namer.input_qubit(0, 0, label)
        gates.append(("SWAP", (external, root_in)))

    elif kind in (InstructionKind.ROUTE, InstructionKind.UNROUTE):
        for index in range(2**level):
            r = namer.router_qubit(level, index, label)
            inp = namer.input_qubit(level, index, label)
            left = namer.output_qubit(level, index, 0, label)
            right = namer.output_qubit(level, index, 1, label)
            gates.append(("ANTI_CSWAP", (r, inp, left)))
            gates.append(("CSWAP", (r, inp, right)))

    elif kind in (InstructionKind.TRANSPORT, InstructionKind.UNTRANSPORT):
        # Moves between level ``level`` outputs and level ``level + 1`` inputs.
        for index in range(2**level):
            for direction in (0, 1):
                out = namer.output_qubit(level, index, direction, label)
                child_in = namer.input_qubit(level + 1, 2 * index + direction, label)
                gates.append(("SWAP", (out, child_in)))

    elif kind in (InstructionKind.STORE, InstructionKind.UNSTORE):
        for index in range(2**level):
            inp = namer.input_qubit(level, index, label)
            r = namer.router_qubit(level, index, label)
            gates.append(("SWAP", (inp, r)))

    elif kind is InstructionKind.CLASSICAL_GATES:
        if data is None:
            raise ValueError("CLASSICAL_GATES requires the classical data")
        if len(data) != 2**n:
            raise ValueError("data length must equal the QRAM capacity")
        out_label = label if leaf_label is None else leaf_label
        for address, value in enumerate(data):
            if value & 1:
                index, direction = address // 2, address % 2
                leaf = namer.output_qubit(n - 1, index, direction, out_label)
                gates.append(("Z", (leaf,)))

    elif kind is InstructionKind.SWAP_MIGRATE:
        low = label
        high = low + 1
        for lvl in range(min(low, n - 1) + 1):
            for index in range(2**lvl):
                for qubit in (namer.input_qubit, namer.router_qubit):
                    gates.append(
                        ("SWAP", (qubit(lvl, index, low), qubit(lvl, index, high)))
                    )
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported instruction kind {kind}")

    return gates


@dataclass(frozen=True)
class WindowProgram:
    """The gates of one functional window, compiled once and replayed.

    Attributes:
        total_layers: raw layers until the last slot finishes.
        layout: qubit order of the window's state: the tree, then each
            slot's register; it owns the gate-resolution memo every replay
            shares.
        registers: per slot, its address qubits (most significant first)
            and then its bus qubit.
        gates: ``(gate, qubits)`` in execution order.
    """

    total_layers: int
    layout: QubitLayout
    registers: tuple[tuple[Qubit, ...], ...]
    gates: tuple[GateCall, ...]

    def replay(
        self, inputs: Sequence[tuple[Mapping[int, complex], int]]
    ) -> tuple[list[dict[tuple[int, int], complex]], SparseState]:
        """Run the window on a fresh state, one ``apply_gate`` per gate.

        The bus is queried through phase kickback: it is placed in the X
        basis (|+> / |->) before entering the tree, the classical-gates
        step applies Z on every leaf cell whose bit is 1, and a final
        Hadamard turns the acquired phase back into a bit flip.

        Args:
            inputs: per slot, its address amplitudes (normalised
                automatically) and its initial bus bit.

        Returns:
            Per slot, the output amplitudes over ``(address, bus)``; and
            the final state, whose tree :meth:`tree_is_clean` checks.
        """
        if len(inputs) != len(self.registers):
            raise ValueError(
                f"a {len(self.registers)}-slot program needs "
                f"{len(self.registers)} inputs, got {len(inputs)}"
            )
        state = SparseState.from_layout(self.layout)
        # Prepare each slot's |address>|bus> register, then the bus's
        # phase-kickback basis change.
        for register, (amplitudes, bus) in zip(self.registers, inputs):
            state.prepare_superposition(
                register,
                {2 * address + bus: amp for address, amp in amplitudes.items()},
            )
            state.apply_gate("H", register[-1:])

        apply_gate = state.apply_gate
        for gate, qubits in self.gates:
            apply_gate(gate, qubits)

        # Undo the bus basis change and read each register.
        outputs: list[dict[tuple[int, int], complex]] = []
        for register in self.registers:
            state.apply_gate("H", register[-1:])
            joint = state.register_amplitudes(register)
            outputs.append({divmod(value, 2): amp for value, amp in joint.items()})
        return outputs, state

    def tree_is_clean(self, state: SparseState) -> bool:
        """True when every tree qubit of a replayed ``state`` is back in |0>
        in every branch (the tree leads the layout)."""
        tree = len(self.layout.qubits) - sum(map(len, self.registers))
        return not any(any(basis[:tree]) for basis, _ in state.items())


def weighted_latency(instructions: Sequence[Instruction]) -> float:
    """Weighted latency of a schedule (full layers + 1/8-cost fast layers).

    Layers are counted once even if several instructions share them.
    """
    layer_costs: dict[int, float] = {}
    for instr in instructions:
        cost = instr.kind.layer_cost
        previous = layer_costs.get(instr.raw_layer)
        layer_costs[instr.raw_layer] = max(previous, cost) if previous else cost
    return sum(layer_costs.values())

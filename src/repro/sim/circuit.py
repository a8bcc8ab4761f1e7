"""Circuit intermediate representation over *named* qubits.

QRAM circuits address qubits by structured labels such as
``("router", 1, 0, 3, "in")`` rather than flat integer indices, so the IR
stores qubits as arbitrary hashable labels.  A circuit is an ordered list of
:class:`Operation` objects; :meth:`Circuit.layers` groups them into circuit
layers with an ASAP (as-soon-as-possible) schedule, which is how the paper
counts latency.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.sim.gates import GATES

Qubit = Hashable


@dataclass(frozen=True)
class Operation:
    """A single gate application.

    Attributes:
        gate: gate name, a key of :data:`repro.sim.gates.GATES`.
        qubits: target qubits in gate order (controls first).
        theta: parameter for parametric gates.
        condition: optional classical condition ``(register_name, value)``;
            the operation is applied only when the classical register equals
            ``value`` at execution time.  Used for the data-retrieval
            CLASSICAL-GATES step of QRAM.
        tag: free-form annotation (e.g. the QRAM instruction that emitted the
            gate); carried through scheduling for analysis.
    """

    gate: str
    qubits: tuple[Qubit, ...]
    theta: float | None = None
    condition: tuple[str, int] | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        key = self.gate.upper()
        if key not in GATES:
            raise ValueError(f"unknown gate {self.gate!r}")
        expected = GATES[key].n_qubits
        if len(self.qubits) != expected:
            raise ValueError(
                f"gate {key} expects {expected} qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in operation: {self.qubits}")


@dataclass
class Circuit:
    """An ordered sequence of operations on named qubits."""

    operations: list[Operation] = field(default_factory=list)

    def append(
        self,
        gate: str,
        qubits: Sequence[Qubit],
        theta: float | None = None,
        condition: tuple[str, int] | None = None,
        tag: str = "",
    ) -> Operation:
        """Append a gate and return the created :class:`Operation`."""
        op = Operation(gate, tuple(qubits), theta=theta, condition=condition, tag=tag)
        self.operations.append(op)
        return op

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    @property
    def qubits(self) -> list[Qubit]:
        """All distinct qubits referenced, in first-use order."""
        seen: dict[Qubit, None] = {}
        for op in self.operations:
            for q in op.qubits:
                seen.setdefault(q, None)
        return list(seen)

    @property
    def num_qubits(self) -> int:
        """Number of distinct qubits referenced by the circuit."""
        return len(self.qubits)

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for op in self.operations:
            counts[op.gate] = counts.get(op.gate, 0) + 1
        return counts

    def layers(self) -> list[list[Operation]]:
        """Group operations into ASAP circuit layers.

        Two operations can share a layer when they act on disjoint qubits and
        appear in an order consistent with the original program order (an
        operation is placed in the earliest layer after the layers of all
        earlier operations that share a qubit with it).
        """
        layer_of_qubit: dict[Qubit, int] = {}
        layers: list[list[Operation]] = []
        for op in self.operations:
            earliest = 0
            for q in op.qubits:
                earliest = max(earliest, layer_of_qubit.get(q, -1) + 1)
            while len(layers) <= earliest:
                layers.append([])
            layers[earliest].append(op)
            for q in op.qubits:
                layer_of_qubit[q] = earliest
        return layers

    def depth(self) -> int:
        """Number of ASAP circuit layers."""
        return len(self.layers())

    def inverse(self) -> "Circuit":
        """Reverse the circuit.

        Only self-inverse gates (the permutation gates plus H/Z/CZ) are
        supported, which covers every QRAM routing circuit in this repo.
        """
        self_inverse = {"I", "X", "Z", "H", "CX", "CZ", "SWAP", "CCX", "CSWAP",
                        "ANTI_CSWAP"}
        inverted = Circuit()
        for op in reversed(self.operations):
            if op.gate.upper() not in self_inverse:
                raise ValueError(
                    f"cannot invert gate {op.gate}; only self-inverse gates supported"
                )
            inverted.operations.append(op)
        return inverted

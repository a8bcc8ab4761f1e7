"""Circuit intermediate representation over *named* qubits.

QRAM circuits address qubits by structured labels such as
``("router", 1, 0, 3, "in")`` rather than flat integer indices, so the IR
stores qubits as arbitrary hashable labels.  A circuit is an ordered list of
:class:`Operation` objects that a simulator's ``run`` applies in order.
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

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

"""Binary router tree structure shared by BB QRAM and (as a base) Fat-Tree QRAM.

A capacity-``N`` QRAM has ``n = log2(N)`` levels of quantum routers; level
``i`` contains ``2**i`` routers.  Router ``(i, j)`` routes between its parent
(or the external escape for the root) and its two children ``(i+1, 2j)`` and
``(i+1, 2j+1)``; the outputs of level ``n-1`` routers are the *leaf cells*
coupled to the classical memory.

Qubit naming convention (one :class:`QubitNamer` per tree, ``BBTree.namer``,
which the executor reuses):

* ``("bb", "in", i, j)`` — input qubit of router ``(i, j)``
* ``("bb", "r", i, j)`` — router (control) qubit
* ``("bb", "out", i, j, d)`` — output qubit, ``d = 0`` left / ``d = 1`` right

Fat-Tree reuses the same convention with an extra sub-QRAM label ``k``
(see :mod:`repro.core.fat_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bucket_brigade.instructions import QubitNamer


@dataclass(frozen=True, order=True)
class RouterId:
    """Identifier of a router in the binary tree.

    Attributes:
        level: tree level ``i`` (0 = root, ``n-1`` = last level of routers).
        index: position ``j`` within the level, ``0 <= j < 2**i``.
    """

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if not 0 <= self.index < 2**self.level:
            raise ValueError(
                f"router index {self.index} out of range for level {self.level}"
            )

    def child(self, direction: int) -> "RouterId":
        """Child router in ``direction`` (0 = left, 1 = right)."""
        if direction not in (0, 1):
            raise ValueError("direction must be 0 or 1")
        return RouterId(self.level + 1, 2 * self.index + direction)


def validate_capacity(capacity: int) -> int:
    """Validate a QRAM capacity and return ``n = log2(capacity)``.

    Raises:
        ValueError: if capacity is not a power of two that is >= 2.
    """
    if capacity < 2 or capacity & (capacity - 1) != 0:
        raise ValueError(f"capacity must be a power of two >= 2, got {capacity}")
    return capacity.bit_length() - 1


class BBTree:
    """The binary tree of quantum routers of a capacity-``N`` BB QRAM.

    Args:
        capacity: number of classical memory cells ``N`` (power of two >= 2).
    """

    def __init__(self, capacity: int) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.namer = QubitNamer(prefix="bb", multiplexed=False)

    @property
    def capacity(self) -> int:
        """Memory size ``N``."""
        return self._capacity

    @property
    def address_width(self) -> int:
        """Number of address bits ``n = log2(N)`` (= number of router levels)."""
        return self._n

    @property
    def num_routers(self) -> int:
        """Total number of routers, ``N - 1``."""
        return self._capacity - 1

    def routers(self) -> Iterator[RouterId]:
        """All routers in breadth-first (level, index) order."""
        for level in range(self._n):
            for index in range(2**level):
                yield RouterId(level, index)

    # ----------------------------------------------------------- qubit naming
    def input_qubit(self, router: RouterId) -> tuple:
        """Label of the input qubit of ``router``."""
        return self.namer.input_qubit(router.level, router.index)

    def router_qubit(self, router: RouterId) -> tuple:
        """Label of the router (control) qubit of ``router``."""
        return self.namer.router_qubit(router.level, router.index)

    def output_qubit(self, router: RouterId, direction: int) -> tuple:
        """Label of an output qubit of ``router`` (0 = left, 1 = right)."""
        if direction not in (0, 1):
            raise ValueError("direction must be 0 or 1")
        return self.namer.output_qubit(router.level, router.index, direction)

    def all_qubits(self) -> list[tuple]:
        """All router-tree qubits (inputs, router qubits, outputs)."""
        qubits: list[tuple] = []
        for router in self.routers():
            qubits.append(self.input_qubit(router))
            qubits.append(self.router_qubit(router))
            qubits.append(self.output_qubit(router, 0))
            qubits.append(self.output_qubit(router, 1))
        return qubits

    @property
    def num_tree_qubits(self) -> int:
        """Number of qubits in the router tree (4 per router)."""
        return 4 * self.num_routers

"""Fat-Tree QRAM structure: multiplexed quantum routers in a binary tree.

A capacity-``N`` (``n = log2 N``) Fat-Tree QRAM replaces the single router at
node ``(i, j)`` of a BB QRAM with ``n - i`` routers (Sec. 4.1).  We identify
routers by the 3-tuple ``(i, j, k)`` where ``k`` is the *sub-QRAM label*:
node ``(i, j)`` hosts the routers with labels ``k = i, i+1, ..., n-1`` and the
routers with a fixed label ``k`` across all nodes with ``i <= k`` form the
"sub-component QRAM" ``k`` of Fig. 5 (the label is the sub-QRAM index; the
physical slot of label ``k`` inside node ``(i, j)`` is ``k - i``, so labels
adjacent in value are physically adjacent, which is what makes SWAP-I/II
nearest-neighbour operations).

Key structural facts reproduced here (Sec. 4.1):

* router count ``sum_i (n - i) 2^i = 2N - 2 - n`` (about 2x BB QRAM),
* inter-node wire count between level ``i`` and ``i+1`` is ``n - i - 1`` per
  child (``n`` external wires at the root, decreasing to one at the leaves),
* router ``(i, j, k)`` has output qubits iff ``k > i`` (or ``i = n-1``, where
  the outputs are the leaf cells coupled to the classical memory); the router
  with ``k = i`` is the transient-storage router of its node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bucket_brigade.instructions import QubitNamer
from repro.bucket_brigade.tree import validate_capacity


@dataclass(frozen=True, order=True)
class FatTreeRouterId:
    """Identifier of a multiplexed router.

    Attributes:
        level: tree level ``i``.
        index: node index ``j`` within the level.
        label: sub-QRAM label ``k`` (``i <= k <= n-1``).
    """

    level: int
    index: int
    label: int

    def __post_init__(self) -> None:
        if self.level < 0 or self.index < 0 or self.label < 0:
            raise ValueError("level, index and label must be non-negative")
        if not 0 <= self.index < 2**self.level:
            raise ValueError(
                f"node index {self.index} out of range for level {self.level}"
            )
        if self.label < self.level:
            raise ValueError(
                f"label {self.label} cannot be smaller than level {self.level}"
            )


class FatTreeStructure:
    """Static structure of a capacity-``N`` Fat-Tree QRAM."""

    def __init__(self, capacity: int) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.namer = QubitNamer(prefix="ft", multiplexed=True)

    # ---------------------------------------------------------------- sizing

    @property
    def address_width(self) -> int:
        return self._n

    @property
    def num_routers(self) -> int:
        """Total multiplexed routers: ``2N - 2 - n``."""
        return 2 * self._capacity - 2 - self._n

    def routers_in_node(self, level: int) -> int:
        """Routers inside a node at ``level``: ``n - level``."""
        self._check_level(level)
        return self._n - level

    def routers_at_level(self, level: int) -> int:
        """Total routers across all nodes of a level."""
        return self.routers_in_node(level) * (2**level)

    def labels_in_node(self, level: int) -> range:
        """Sub-QRAM labels present in a node at ``level``."""
        self._check_level(level)
        return range(level, self._n)

    def wires_to_children(self, level: int) -> int:
        """Inter-node wires from a node at ``level`` to each child.

        ``n - level - 1`` for internal levels; the last level connects to the
        classical memory cells instead of child nodes.
        """
        self._check_level(level)
        if level == self._n - 1:
            return 0
        return self._n - level - 1

    @property
    def external_ports(self) -> int:
        """External wires at the root node: ``n``."""
        return self._n

    def has_outputs(self, router: FatTreeRouterId) -> bool:
        """Whether the router has output qubits (see module docstring)."""
        self._validate_router(router)
        return router.label > router.level or router.level == self._n - 1

    def is_transient(self, router: FatTreeRouterId) -> bool:
        """Whether the router is the transient-storage router of its node."""
        return not self.has_outputs(router)

    # ------------------------------------------------------------- iteration
    def routers(self) -> Iterator[FatTreeRouterId]:
        """All routers in (level, index, label) order."""
        for level in range(self._n):
            for index in range(2**level):
                for label in range(level, self._n):
                    yield FatTreeRouterId(level, index, label)

    # ----------------------------------------------------------- qubit naming
    def input_qubit(self, router: FatTreeRouterId) -> tuple:
        self._validate_router(router)
        return self.namer.input_qubit(router.level, router.index, router.label)

    def router_qubit(self, router: FatTreeRouterId) -> tuple:
        self._validate_router(router)
        return self.namer.router_qubit(router.level, router.index, router.label)

    def output_qubit(self, router: FatTreeRouterId, direction: int) -> tuple:
        self._validate_router(router)
        if not self.has_outputs(router):
            raise ValueError(f"router {router} has no output qubits")
        return self.namer.output_qubit(
            router.level, router.index, direction, router.label
        )

    def leaf_qubit(self, address: int) -> tuple:
        """Leaf cell qubit for a classical address (bottom level, label n-1)."""
        if not 0 <= address < self._capacity:
            raise ValueError(f"address {address} out of range")
        router = FatTreeRouterId(self._n - 1, address // 2, self._n - 1)
        return self.output_qubit(router, address % 2)

    def all_qubits(self) -> list[tuple]:
        """Every qubit of the router tree (3 or 5 per router)."""
        qubits: list[tuple] = []
        for router in self.routers():
            qubits.append(self.input_qubit(router))
            qubits.append(self.router_qubit(router))
            if self.has_outputs(router):
                qubits.append(self.output_qubit(router, 0))
                qubits.append(self.output_qubit(router, 1))
        return qubits

    @property
    def num_tree_qubits(self) -> int:
        """Number of simulator qubits in the tree."""
        return len(self.all_qubits())

    # --------------------------------------------------------------- helpers
    def qubit_count_per_node(self, level: int) -> int:
        """Simulator qubits in one node at ``level`` (grows with height)."""
        total = 0
        for label in self.labels_in_node(level):
            router = FatTreeRouterId(level, 0, label)
            total += 4 if self.has_outputs(router) else 2
        return total

    def _validate_router(self, router: FatTreeRouterId) -> None:
        if router.level >= self._n or router.label >= self._n:
            raise ValueError(f"router {router} outside a capacity-{self._capacity} tree")

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self._n:
            raise ValueError(f"level {level} out of range [0, {self._n})")

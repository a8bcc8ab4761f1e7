"""Modular implementation of a Fat-Tree node (Sec. 4.2.1, Fig. 4(a-c)).

Each node is an independently manufactured module: routers sit side by side,
beam-splitters couple horizontally adjacent routers, tunable couplers line
the top and bottom edges as ports for the bendable coaxial wires that provide
inter-node connectivity.  Wire crossings are allowed *between* modules (the
coax can be bent arbitrarily) but not *inside* a module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bucket_brigade.tree import validate_capacity
from repro.hardware.planarity import crossing_free_modular_wiring


@dataclass(frozen=True)
class PortAssignment:
    """Port of a module edge assigned to one inter-node wire.

    Attributes:
        edge: "top" (towards the parent) or "bottom" (towards the children).
        position: index along the edge, left to right.
        label: sub-QRAM label carried by the wire.
        child_direction: 0 / 1 for bottom ports, None for top ports.
    """

    edge: str
    position: int
    label: int
    child_direction: int | None = None


class ModularNodeLayout:
    """Physical layout summary of one modular Fat-Tree node.

    Args:
        capacity: capacity of the surrounding Fat-Tree.
        level: tree level of the node.
    """

    def __init__(self, capacity: int, level: int) -> None:
        self._n = validate_capacity(capacity)
        if not 0 <= level < self._n:
            raise ValueError("level out of range")
        self.capacity = capacity
        self.level = level

    @property
    def num_routers(self) -> int:
        return self._n - self.level

    def top_ports(self) -> list[PortAssignment]:
        """Coupler ports on the top edge (towards the parent or the QPUs).

        The root exposes ``n`` external query ports; internal nodes expose one
        incoming port per router.
        """
        labels = range(self.level, self._n)
        return [
            PortAssignment("top", i, label) for i, label in enumerate(labels)
        ]

    def bottom_ports(self) -> list[PortAssignment]:
        """Coupler ports on the bottom edge (towards the two children).

        Only routers with outputs get ports; the ports of the left child are
        interleaved with those of the right child so the in-module wiring
        from each router's two output cavities never crosses.
        """
        if self.level == self._n - 1:
            return []
        ports = []
        position = 0
        for label in range(self.level + 1, self._n):
            for direction in (0, 1):
                ports.append(PortAssignment("bottom", position, label, direction))
                position += 1
        return ports

    def wire_count(self) -> dict[str, int]:
        """Incoming / outgoing coax wires of this module (Fig. 4(a))."""
        incoming = self.num_routers
        outgoing = 0 if self.level == self._n - 1 else 2 * (self.num_routers - 1)
        return {"incoming": incoming, "outgoing": outgoing}

    def has_internal_crossings(self) -> bool:
        """Whether the in-module wiring needs any crossing (it never does)."""
        return not crossing_free_modular_wiring(self.capacity)

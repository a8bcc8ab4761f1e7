"""On-chip implementation of Fat-Tree QRAM (Sec. 4.2.2, Fig. 4(d-e)).

The on-chip design integrates every node onto a single two-layer chip:
qubits and wires must be planar within each layer, inter-layer connections
use through-silicon vias (TSVs).  The node-to-plane assignment alternates so
that each node shares a plane with exactly one of its children, which makes
both layers planar (checked via :mod:`repro.hardware.planarity`).
"""

from __future__ import annotations

from repro.bucket_brigade.tree import validate_capacity
from repro.hardware.planarity import two_plane_decomposition, is_planar


class OnChipLayout:
    """Two-plane on-chip layout of a capacity-``N`` Fat-Tree QRAM."""

    def __init__(self, capacity: int) -> None:
        self._n = validate_capacity(capacity)
        self.capacity = capacity
        self._planes: dict[tuple[int, int], int] = {(0, 0): 0}
        for level in range(self._n - 1):
            for index in range(2**level):
                parent = self._planes[(level, index)]
                self._planes[(level + 1, 2 * index)] = 1 - parent
                self._planes[(level + 1, 2 * index + 1)] = parent

    def plane_of(self, level: int, index: int) -> int:
        """Plane (0 or 1) hosting node ``(level, index)``."""
        return self._planes[(level, index)]

    def tsv_count(self) -> int:
        """Number of through-silicon-via wire groups (parent-child links that
        cross planes): exactly one child per internal node."""
        count = 0
        for (level, index), plane in self._planes.items():
            if level == self._n - 1:
                continue
            for direction in (0, 1):
                child_plane = self._planes[(level + 1, 2 * index + direction)]
                if child_plane != plane:
                    count += 1
        return count

    def planes_balanced(self) -> tuple[int, int]:
        """Number of nodes on each plane."""
        plane0 = sum(1 for p in self._planes.values() if p == 0)
        return plane0, len(self._planes) - plane0

    def both_planes_planar(self) -> bool:
        """The headline feasibility claim: each layer's wiring is planar."""
        plane0, plane1 = two_plane_decomposition(self.capacity)
        return is_planar(plane0) and is_planar(plane1)

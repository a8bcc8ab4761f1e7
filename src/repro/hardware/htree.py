"""2D H-tree placement of QRAM nodes (Fig. 2(c) and Fig. 3).

Both BB and Fat-Tree QRAM are laid out as an H-tree: the root sits at the
centre of the chip and each level alternates between horizontal and vertical
splits, which keeps every parent-child wire short (length halves every two
levels) and the classical memory cells on a regular grid at the perimeter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bucket_brigade.tree import RouterId, validate_capacity


@dataclass(frozen=True)
class Placement:
    """Physical placement of one node.

    Attributes:
        router: which node (level, index).
        x, y: coordinates in abstract grid units.
    """

    router: RouterId
    x: float
    y: float


class HTreeLayout:
    """H-tree coordinates for every node of a capacity-``N`` QRAM tree."""

    def __init__(self, capacity: int, size: float = 1.0) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.size = size
        self._positions: dict[RouterId, tuple[float, float]] = {}
        self._place(RouterId(0, 0), 0.0, 0.0, size / 2.0, size / 2.0, horizontal=True)

    def _place(
        self,
        router: RouterId,
        x: float,
        y: float,
        dx: float,
        dy: float,
        horizontal: bool,
    ) -> None:
        self._positions[router] = (x, y)
        if router.level == self._n - 1:
            return
        if horizontal:
            offsets = ((-dx, 0.0), (dx, 0.0))
            child_d = (dx / 2.0, dy)
        else:
            offsets = ((0.0, -dy), (0.0, dy))
            child_d = (dx, dy / 2.0)
        for direction, (ox, oy) in enumerate(offsets):
            self._place(
                router.child(direction),
                x + ox,
                y + oy,
                child_d[0],
                child_d[1],
                horizontal=not horizontal,
            )

    def position(self, router: RouterId) -> tuple[float, float]:
        """Coordinates of a node."""
        return self._positions[router]

    def placements(self) -> list[Placement]:
        """All node placements."""
        return [Placement(r, x, y) for r, (x, y) in sorted(self._positions.items())]

    def wire_length(self, parent: RouterId, direction: int) -> float:
        """Manhattan length of the wire from a parent to one of its children."""
        child = parent.child(direction)
        px, py = self._positions[parent]
        cx, cy = self._positions[child]
        return abs(px - cx) + abs(py - cy)

    def total_wire_length(self) -> float:
        """Total Manhattan wiring length of the tree."""
        total = 0.0
        for router in self._positions:
            if router.level == self._n - 1:
                continue
            total += self.wire_length(router, 0) + self.wire_length(router, 1)
        return total

    def max_wire_length(self) -> float:
        """Longest single parent-child wire (the root's, by construction)."""
        lengths = [
            self.wire_length(router, d)
            for router in self._positions
            if router.level < self._n - 1
            for d in (0, 1)
        ]
        return max(lengths) if lengths else 0.0

    def leaf_positions(self) -> list[tuple[int, float, float]]:
        """Positions of the last-level nodes, one per pair of memory cells."""
        out = []
        for router, (x, y) in sorted(self._positions.items()):
            if router.level == self._n - 1:
                out.append((router.index, x, y))
        return out

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of all placements."""
        xs = [p[0] for p in self._positions.values()]
        ys = [p[1] for p in self._positions.values()]
        return min(xs), min(ys), max(xs), max(ys)

"""The sub-component QRAM decomposition of a Fat-Tree (Fig. 5).

Looking only at the routers with a fixed label ``k``, a Fat-Tree QRAM is the
union of ``n`` Bucket-Brigade QRAMs of address widths ``1 .. n``: sub-QRAM
``k`` consists of routers ``(i, j, k)`` for ``i <= k`` and has address width
``k + 1``.  Only sub-QRAM ``n - 1`` reaches the classical data; the smaller
sub-QRAMs are transit stages that queries migrate through while being loaded
(up) and unloaded (down).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fat_tree import FatTreeStructure


@dataclass(frozen=True)
class SubQRAM:
    """A single sub-component QRAM of a Fat-Tree.

    Attributes:
        structure: the parent Fat-Tree.
        label: the sub-QRAM label ``k``.
    """

    structure: FatTreeStructure
    label: int

    def __post_init__(self) -> None:
        if not 0 <= self.label < self.structure.address_width:
            raise ValueError(
                f"label {self.label} out of range for an address-width-"
                f"{self.structure.address_width} Fat-Tree"
            )

    @property
    def address_width(self) -> int:
        """Address width of this sub-QRAM: ``label + 1``."""
        return self.label + 1

    @property
    def reaches_data(self) -> bool:
        """Only the largest sub-QRAM is coupled to the classical memory."""
        return self.label == self.structure.address_width - 1

    @property
    def num_routers(self) -> int:
        """Routers in this sub-QRAM: ``2**(label+1) - 1``."""
        return 2 ** (self.label + 1) - 1

    def neighbour_above(self) -> "SubQRAM | None":
        """The next larger sub-QRAM, if any."""
        if self.reaches_data:
            return None
        return SubQRAM(self.structure, self.label + 1)

    def neighbour_below(self) -> "SubQRAM | None":
        """The next smaller sub-QRAM, if any."""
        if self.label == 0:
            return None
        return SubQRAM(self.structure, self.label - 1)

    def swap_partner_levels(self) -> range:
        """Levels whose (input, router) qubits are exchanged when swapping
        this sub-QRAM with the next larger one: levels ``0 .. label``."""
        return range(self.label + 1)


def decompose(structure: FatTreeStructure) -> list[SubQRAM]:
    """All sub-component QRAMs of a Fat-Tree, smallest first."""
    return [SubQRAM(structure, k) for k in range(structure.address_width)]

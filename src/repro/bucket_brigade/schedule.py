"""Bit-level pipelined query schedule for BB QRAM.

A capacity-``N`` (``n = log2 N``) BB QRAM query consists of three stages
(Sec. 2.2.2):

1. *address loading* — the ``n`` address qubits enter through the root escape
   one after another (bit-level pipelining) and are stored into successive
   router levels; the bus follows immediately behind them,
2. *data retrieval* — one layer of classically controlled gates on the leaf
   cells (CLASSICAL-GATES),
3. *address unloading* — the exact mirror of loading.

The schedule produced here takes ``8n + 1`` raw circuit layers (25 for
N = 8, matching Fig. 2(a)) and ``8n + 0.125`` weighted layers (Table 1),
where the data-retrieval layer costs 1/8 of a CSWAP layer.

The per-address-bit completion milestones of this schedule are at layers
``4m - 2`` rather than the ``4m`` annotated in Fig. 2(a); the constant offset
comes from a slightly tighter bit-level pipeline (items enter every two
layers from the start) and does not change any total: loading ends at layer
``4n``, data retrieval is at ``4n + 1`` and the query completes at ``8n + 1``
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bucket_brigade.instructions import (
    FAST_LAYER_COST,
    FULL_LAYER_COST,
    Instruction,
    InstructionKind,
)
from repro.bucket_brigade.tree import validate_capacity


def bb_raw_query_layers(capacity: int) -> int:
    """Raw circuit layers of one BB query: ``8 log2(N) + 1``."""
    n = validate_capacity(capacity)
    return 8 * n + 1


def bb_weighted_query_latency(capacity: int) -> float:
    """Weighted single-query latency of BB QRAM: ``8 log2(N) + 0.125``."""
    n = validate_capacity(capacity)
    return 8 * n * FULL_LAYER_COST + FAST_LAYER_COST


@dataclass
class BBQuerySchedule:
    """The full instruction schedule of a single BB QRAM query.

    Args:
        capacity: memory size ``N``.
        query: query identifier used to name the external address/bus qubits.

    Attributes:
        instructions: all scheduled instructions, sorted by raw layer.
    """

    capacity: int
    query: int = 0
    instructions: list[Instruction] = field(init=False)

    def __post_init__(self) -> None:
        self.address_width = validate_capacity(self.capacity)
        self.instructions = self._build()

    # ------------------------------------------------------------ properties
    @property
    def raw_layers(self) -> int:
        """Total raw circuit layers (``8n + 1``)."""
        return 8 * self.address_width + 1

    @property
    def weighted_latency(self) -> float:
        """Weighted latency with fast data retrieval (``8n + 0.125``)."""
        return bb_weighted_query_latency(self.capacity)

    def milestone_layers(self) -> dict[str, int]:
        """Stage-completion layers analogous to the annotations of Fig. 2(a)."""
        n = self.address_width
        milestones = {
            f"store_address_{m}": 4 * m - 2 for m in range(1, n + 1)
        }
        milestones["bus_at_leaves"] = 4 * n
        milestones["data_retrieval"] = 4 * n + 1
        milestones["query_complete"] = 8 * n + 1
        return milestones

    # ------------------------------------------------------------ construction
    def _build(self) -> list[Instruction]:
        n = self.address_width
        loading = self._loading_instructions()
        retrieval = [
            Instruction(
                InstructionKind.CLASSICAL_GATES,
                query=self.query,
                item=0,
                level=n - 1,
                label=0,
                raw_layer=4 * n + 1,
            )
        ]
        unloading = self._mirror(loading)
        schedule = loading + retrieval + unloading
        schedule.sort(key=lambda instr: (instr.raw_layer, instr.level, instr.item))
        return schedule

    def _loading_instructions(self) -> list[Instruction]:
        n = self.address_width
        out: list[Instruction] = []

        def add(kind: InstructionKind, item: int, level: int, layer: int) -> None:
            out.append(
                Instruction(
                    kind,
                    query=self.query,
                    item=item,
                    level=level,
                    label=0,
                    raw_layer=layer,
                )
            )

        # Address items m = 1..n: enter at layer 2m-1, run back to back, and
        # are stored into level m-1 at layer 4m-2.
        for m in range(1, n + 1):
            start = 2 * m - 1
            add(InstructionKind.LOAD, m, -1, start)
            for i in range(m - 1):
                add(InstructionKind.ROUTE, m, i, 2 * m + 2 * i)
                add(InstructionKind.TRANSPORT, m, i, 2 * m + 2 * i + 1)
            add(InstructionKind.STORE, m, m - 1, 4 * m - 2)

        # Bus (item n+1): enters at layer 2n+1 and reaches the leaves at 4n.
        bus = n + 1
        add(InstructionKind.LOAD, bus, -1, 2 * n + 1)
        for i in range(n - 1):
            add(InstructionKind.ROUTE, bus, i, 2 * n + 2 * i + 2)
            add(InstructionKind.TRANSPORT, bus, i, 2 * n + 2 * i + 3)
        add(InstructionKind.ROUTE, bus, n - 1, 4 * n)
        return out

    def _mirror(self, loading: list[Instruction]) -> list[Instruction]:
        """Unloading = time-reversed loading with inverse instruction kinds."""
        n = self.address_width
        total = 8 * n + 2
        inverse_kind = {
            InstructionKind.LOAD: InstructionKind.UNLOAD,
            InstructionKind.ROUTE: InstructionKind.UNROUTE,
            InstructionKind.TRANSPORT: InstructionKind.UNTRANSPORT,
            InstructionKind.STORE: InstructionKind.UNSTORE,
        }
        out = []
        for instr in loading:
            out.append(
                Instruction(
                    inverse_kind[instr.kind],
                    query=instr.query,
                    item=instr.item,
                    level=instr.level,
                    label=instr.label,
                    raw_layer=total - instr.raw_layer,
                )
            )
        return out

    # ----------------------------------------------------------- validation
    def verify_no_conflicts(self) -> None:
        """Check that no two instructions touch the same location in a layer.

        Locations are (level, role) pairs at the granularity the instructions
        act on; LOAD/UNLOAD use the escape.  Raises ``AssertionError`` on a
        conflict — used by the test-suite and by the Fat-Tree pipeline checks.
        """
        by_layer: dict[int, list[Instruction]] = {}
        for instr in self.instructions:
            by_layer.setdefault(instr.raw_layer, []).append(instr)
        for layer, instrs in by_layer.items():
            touched: set[tuple] = set()
            for instr in instrs:
                for location in _touched_locations(instr):
                    if location in touched:
                        raise AssertionError(
                            f"layer {layer}: location {location} touched twice"
                        )
                    touched.add(location)


def _touched_locations(instr: Instruction) -> list[tuple]:
    """Abstract qubit-group locations an instruction touches."""
    kind = instr.kind
    if kind in (InstructionKind.LOAD, InstructionKind.UNLOAD):
        return [("escape", instr.label), ("in", 0, instr.label)]
    if kind in (InstructionKind.ROUTE, InstructionKind.UNROUTE):
        return [
            ("in", instr.level, instr.label),
            ("out", instr.level, instr.label),
            ("router", instr.level, instr.label),
        ]
    if kind in (InstructionKind.TRANSPORT, InstructionKind.UNTRANSPORT):
        return [
            ("out", instr.level, instr.label),
            ("in", instr.level + 1, instr.label),
        ]
    if kind in (InstructionKind.STORE, InstructionKind.UNSTORE):
        return [("in", instr.level, instr.label), ("router", instr.level, instr.label)]
    if kind is InstructionKind.CLASSICAL_GATES:
        return [("out", instr.level, instr.label)]
    if kind is InstructionKind.SWAP_MIGRATE:
        return [
            ("in", lvl, lab)
            for lvl in range(instr.level + 1)
            for lab in (instr.label, instr.label + 1)
        ] + [
            ("router", lvl, lab)
            for lvl in range(instr.level + 1)
            for lab in (instr.label, instr.label + 1)
        ]
    raise ValueError(f"unknown instruction kind {kind}")

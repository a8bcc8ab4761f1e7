"""Gate-level execution of pipelined Fat-Tree QRAM queries.

The executor materialises the full multiplexed router tree as named qubits on
the sparse simulator and runs several queries *concurrently*: each query
runs :class:`~repro.bucket_brigade.schedule.BBQuerySchedule`'s bit-pipelined
schedule, migrates between sub-QRAMs through explicit SWAP steps that
exchange the input and router qubits of adjacent labels, and performs data
retrieval through phase kickback on the leaf cells of sub-QRAM ``n - 1``.
The migrations are Alg. 1's timeline
(:func:`repro.core.pipeline.migration_layers`) at :data:`MIGRATION_SKEW`,
interleaved into BB's layers as fast layers, and every instruction carries
the label :func:`repro.core.pipeline.query_label` gives at its layer; the
conflict search reads the same label.

Two levels of fidelity to the paper:

* every structural rule of Sec. 4 is honoured at the gate level — ops only
  use routers of the query's current label, transient routers are never
  routed through, migrations move only input/router qubits, queries exchange
  sub-QRAMs at shared swap layers;
* the steady-state admission interval is found by a static conflict search
  and is ``10 * ceil(n / 2) + 2`` raw layers (22 at ``N = 16``, 52 at
  ``N = 1024``) rather than the abstract model's constant 10 (see
  EXPERIMENTS.md); the abstract model in :mod:`repro.core.pipeline`
  carries the paper's exact latency accounting.

A window of ``k`` queries at one interval always runs the same gates on the
same qubits: registers are named by window slot, not by query id.  The
executor therefore compiles each ``(occupancy, interval)`` once into a
:class:`WindowProgram` — the merged, deduplicated and lowered gate list
plus the qubit layout — and replays it for every later window.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from operator import itemgetter

from repro.bucket_brigade.instructions import (
    GateCall,
    Instruction,
    InstructionKind,
    QubitNamer,
    WindowProgram,
    lower_instruction,
)
from repro.bucket_brigade.schedule import BBQuerySchedule, _touched_locations
from repro.bucket_brigade.tree import validate_capacity
from repro.core.fat_tree import FatTreeStructure
from repro.core.pipeline import (
    PIPELINE_INTERVAL,
    fat_tree_raw_query_layers,
    migration_layers,
    query_label,
)
from repro.core.query import (
    QueryRequest,
    QueryResult,
    QueryStatus,
    ideal_query_output,
    output_fidelity,
)
from repro.sim.sparse import QubitLayout

#: Largest sparse state a functional window may build.  Each query
#: multiplies the branch count by its address branches and by 2 for its bus
#: in the |+>/|-> basis; past this bound a window would run for minutes, so
#: :meth:`FatTreeExecutor.run_pipelined_queries` refuses it up front.
MAX_WINDOW_TERMS = 2**16

#: Skew of the executor's migrations from Alg. 1's cadence
#: (:func:`repro.core.pipeline.migration_layers`): up migration ``j`` runs at
#: relative layer ``5j - 1``, just before BB gate layer ``4j``, the first
#: that routes through label ``j``, and each down migration mirrors it.
MIGRATION_SKEW = 1


@dataclass
class PipelinedExecutionResult:
    """Outcome of executing several pipelined queries at the gate level.

    Attributes:
        interval: admission interval (raw layers) actually used.
        total_layers: raw layers until the last query finished.
        per_query_raw_layers: raw layers each individual query took.
        results: per-query functional results (amplitudes and fidelity
            bookkeeping handled by the caller).
        max_concurrent: maximum number of queries simultaneously in flight.
    """

    interval: int
    total_layers: int
    per_query_raw_layers: int
    results: list[QueryResult] = field(default_factory=list)
    max_concurrent: int = 0


class FatTreeExecutor:
    """Gate-level executor for a capacity-``N`` Fat-Tree QRAM.

    Args:
        capacity: memory size ``N``.
        data: classical memory contents (one bit per address).
    """

    def __init__(self, capacity: int, data: Sequence[int]) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        if len(data) != capacity:
            raise ValueError(f"data must have {capacity} entries")
        self.data = [int(x) & 1 for x in data]
        self.structure = FatTreeStructure(capacity)
        self.namer: QubitNamer = self.structure.namer
        # Memoization of the static schedule artefacts, none of which needs
        # re-deriving per window: the relative schedule depends only on the
        # capacity, the lowered gates of an instruction only on its (kind,
        # slot, item, level, label) identity, the minimum feasible interval
        # only on the capacity, and a window program only on (occupancy,
        # interval).
        self._schedule_cache: list[Instruction] | None = None
        self._lowered_cache: dict[
            tuple[InstructionKind, int, int, int, int], list
        ] = {}
        self._min_interval_cache: int | None = None
        self._locations_cache: dict[Instruction, frozenset] = {}
        self._program_cache: dict[tuple[int, int], WindowProgram] = {}

    @property
    def address_width(self) -> int:
        return self._n

    # --------------------------------------------------------- relative schedule
    def relative_schedule(self, query: int = 0) -> list[Instruction]:
        """Gate-level schedule of one query in its own (relative) raw layers.

        The gate ordering is the BB bit-pipelined schedule; sub-QRAM
        migrations are inserted just in time (right before the first gate
        that needs the larger sub-QRAM) and mirrored during unloading.

        The query-0 schedule is memoized (repeated calls return the same
        list); other ids differ only in the ``query`` field and are built
        on demand, which only window compilation does.
        """
        if query != 0:
            return self._build_relative_schedule(query)
        if self._schedule_cache is None:
            self._schedule_cache = self._build_relative_schedule(0)
        return self._schedule_cache

    def _build_relative_schedule(self, query: int) -> list[Instruction]:
        """BB's schedule with the migrations of :data:`MIGRATION_SKEW`
        interleaved as fast layers.

        Each BB instruction moves past every migration placed at or before
        it and takes the label the query holds there; data retrieval (BB's
        layer ``4n + 1``) lands at ``5n`` in label ``n - 1``.
        """
        ups, downs = migration_layers(self._capacity, MIGRATION_SKEW)
        migrations = sorted(ups + downs)
        instructions: list[Instruction] = []
        for instr in BBQuerySchedule(self._capacity, query).instructions:
            raw = instr.raw_layer
            for layer in migrations:
                if layer <= raw:
                    raw += 1
            label = query_label(self._capacity, raw, MIGRATION_SKEW)
            instructions.append(replace(instr, label=label, raw_layer=raw))
        # Migration j exchanges labels j - 1 and j up to level j - 1.
        for layers in (ups, downs):
            for level, layer in enumerate(layers):
                instructions.append(
                    Instruction(
                        InstructionKind.SWAP_MIGRATE,
                        query=query,
                        item=0,
                        level=level,
                        label=level,
                        raw_layer=layer,
                    )
                )
        instructions.sort(key=lambda i: (i.raw_layer, i.level, i.item))
        return instructions

    def relative_raw_latency(self) -> int:
        """Raw layers of one query in this realisation: ``10 n - 1``."""
        return fat_tree_raw_query_layers(self._capacity)

    # --------------------------------------------------- admission feasibility
    def minimum_feasible_interval(self, num_queries: int = 2) -> int:
        """Smallest admission interval with no cross-query qubit conflicts.

        Conflicts are checked at (role, level, label) granularity, which is
        exactly the granularity at which instructions act.  Two migrations of
        the same label pair in the same layer are a single shared swap (the
        sub-QRAM exchange of Alg. 1) and are not a conflict.
        """
        if num_queries < 2:
            return PIPELINE_INTERVAL
        if self._min_interval_cache is not None:
            return self._min_interval_cache
        base = self.relative_schedule(0)
        by_layer: dict[int, list[Instruction]] = {}
        for instr in base:
            by_layer.setdefault(instr.raw_layer, []).append(instr)
        lifetime = self.relative_raw_latency()
        result = 10 * self._n  # fully sequential fallback (never reached)
        for interval in range(PIPELINE_INTERVAL, 10 * self._n + 1):
            if self._interval_is_feasible(by_layer, interval, lifetime):
                result = interval
                break
        self._min_interval_cache = result
        return result

    def _interval_is_feasible(
        self, by_layer: dict[int, list[Instruction]], interval: int, lifetime: int
    ) -> bool:
        """Check all pairwise offsets that can overlap at this interval."""
        max_shift = (lifetime // interval) + 1
        for k in range(1, max_shift + 1):
            offset = k * interval
            if offset >= lifetime:
                break
            if not self._offset_is_conflict_free(by_layer, offset):
                return False
        return True

    def _touched(self, instr: Instruction) -> frozenset:
        """Qubit-group locations an instruction acts on, cached by identity."""
        locations = self._locations_cache.get(instr)
        if locations is None:
            locations = frozenset(_touched_locations(instr))
            self._locations_cache[instr] = locations
        return locations

    def _offset_is_conflict_free(
        self, by_layer: dict[int, list[Instruction]], offset: int
    ) -> bool:
        """Check one query against another admitted ``offset`` layers earlier.

        Two rules, at every layer of the later query:

        (a) no two instructions touch the same qubit groups, except one
            shared swap;
        (b) neither query's migration moves qubits where the other query is
            merely resident (:func:`_moves_resident`).
        """
        for layer, instrs in by_layer.items():
            other_layer = layer - offset
            others = by_layer.get(other_layer, [])
            for a in instrs:
                for b in others:
                    if _compatible_shared_swap(a, b):
                        continue
                    if self._touched(a) & self._touched(b):
                        return False
            this_label = query_label(self._capacity, layer, MIGRATION_SKEW)
            other_label = query_label(self._capacity, other_layer, MIGRATION_SKEW)
            if _moves_resident(instrs, others, other_label) or _moves_resident(
                others, instrs, this_label
            ):
                return False
        return True

    # ------------------------------------------------------------- execution
    def window_program(self, occupancy: int, interval: int) -> WindowProgram:
        """The compiled program of a window of ``occupancy`` queries
        admitted ``interval`` raw layers apart (built on first use)."""
        key = (occupancy, interval)
        program = self._program_cache.get(key)
        if program is None:
            program = self._compile_window(occupancy, interval)
            self._program_cache[key] = program
        return program

    def _compile_window(self, occupancy: int, interval: int) -> WindowProgram:
        """Every slot's schedule shifted by ``slot * interval``, sorted by
        raw layer, with one shared swap per ``(label, level)`` per layer."""
        namer = self.namer
        registers = tuple(
            tuple(namer.address_qubit(slot, bit) for bit in range(self._n))
            + (namer.bus_qubit(slot),)
            for slot in range(occupancy)
        )
        layout = QubitLayout(
            [*self.structure.all_qubits(), *(q for reg in registers for q in reg)]
        )
        # Slot-major, then a stable sort by absolute raw layer.
        merged = sorted(
            (
                (instr.raw_layer + slot * interval, instr)
                for slot in range(occupancy)
                for instr in self.relative_schedule(slot)
            ),
            key=itemgetter(0),
        )
        gates: list[GateCall] = []
        layer, swapped = 0, set()
        for at, instr in merged:
            if at != layer:
                layer, swapped = at, set()
            if instr.kind is InstructionKind.SWAP_MIGRATE:
                # Migrations of one label pair in one layer are one shared
                # sub-QRAM exchange.
                shared = (instr.label, instr.level)
                if shared in swapped:
                    continue
                swapped.add(shared)
            gates.extend(self._lowered_gates(instr))
        return WindowProgram(
            total_layers=merged[-1][0],
            layout=layout,
            registers=registers,
            gates=tuple(gates),
        )

    def run_pipelined_queries(
        self,
        requests: Sequence[QueryRequest],
        interval: int | None = None,
    ) -> tuple[PipelinedExecutionResult, dict[int, dict[tuple[int, int], complex]]]:
        """Execute several queries concurrently and return their outputs.

        Request ``s`` runs in window slot ``s``; the window's compiled
        program is replayed on a fresh state.

        Args:
            requests: query requests with distinct ids; each must carry
                address amplitudes.
            interval: admission interval in raw layers; defaults to the
                smallest feasible interval for this capacity.

        Returns:
            A pair of (execution summary, per-query output amplitudes over
            ``(address, bus)``, keyed by query id).
        """
        if not requests:
            raise ValueError("at least one query request is required")
        _check_distinct_ids(requests)
        _check_window_terms(requests)
        if interval is None:
            interval = self.minimum_feasible_interval(len(requests))
        program = self.window_program(len(requests), interval)
        slot_outputs, _ = program.replay(
            [(request.address_amplitudes, request.initial_bus) for request in requests]
        )

        outputs: dict[int, dict[tuple[int, int], complex]] = {}
        results: list[QueryResult] = []
        lifetime = self.relative_raw_latency()
        for slot, (request, output) in enumerate(zip(requests, slot_outputs)):
            outputs[request.query_id] = output
            start_layer = slot * interval + 1
            finish_layer = slot * interval + lifetime
            results.append(
                QueryResult(
                    query_id=request.query_id,
                    start_layer=start_layer,
                    finish_layer=finish_layer,
                    latency_layers=finish_layer - start_layer + 1,
                    request_time=request.request_time,
                    request_to_finish=finish_layer - request.request_time,
                    amplitudes=output,
                    status=QueryStatus.COMPLETED,
                )
            )

        summary = PipelinedExecutionResult(
            interval=interval,
            total_layers=program.total_layers,
            per_query_raw_layers=lifetime,
            results=results,
            max_concurrent=self._max_concurrent(len(requests), interval, lifetime),
        )
        return summary, outputs

    #: Instruction kinds whose lowering names per-slot external qubits
    #: (address / bus registers); everything else acts on tree qubits only
    #: and lowers identically for every slot.
    _QUERY_SENSITIVE_KINDS = frozenset(
        {InstructionKind.LOAD, InstructionKind.UNLOAD}
    )

    def _lowered_gates(self, instr: Instruction) -> list[GateCall]:
        """Lowered gate sequence of an instruction, cached by identity.

        Lowering depends on (kind, item, level, label) and on the classical
        data — which is fixed for the executor's lifetime — never on the
        absolute raw layer.  The slot only matters for LOAD/UNLOAD (which
        touch the slot's external address / bus qubits), so all other kinds
        share one cache entry across slots.
        """
        query_key = instr.query if instr.kind in self._QUERY_SENSITIVE_KINDS else -1
        key = (instr.kind, query_key, instr.item, instr.level, instr.label)
        gates = self._lowered_cache.get(key)
        if gates is None:
            gates = lower_instruction(
                instr,
                self.namer,
                self._n,
                data=self.data,
                leaf_label=self._n - 1,
            )
            self._lowered_cache[key] = gates
        return gates

    @staticmethod
    def _max_concurrent(num_queries: int, interval: int, lifetime: int) -> int:
        in_flight = 1 + (lifetime - 1) // interval
        return min(num_queries, in_flight)

    # ------------------------------------------------------------ inspection
    def expected_output(
        self, request: QueryRequest
    ) -> dict[tuple[int, int], complex]:
        """Ideal output of a request per Eq. (1)."""
        return ideal_query_output(
            self.data, dict(request.address_amplitudes or {}), request.initial_bus
        )

    def query_fidelity(
        self,
        request: QueryRequest,
        output: Mapping[tuple[int, int], complex],
    ) -> float:
        """|<ideal|actual>|^2 for one query's output register."""
        return output_fidelity(self.expected_output(request), output)


def _check_distinct_ids(requests: Sequence[QueryRequest]) -> None:
    """Refuse a window that names one query id twice (its outputs, keyed by
    id, would overwrite each other)."""
    ids = [request.query_id for request in requests]
    if len(set(ids)) != len(ids):
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(
            f"functional window of {len(ids)} queries {ids} repeats query "
            f"ids {repeated}; every query in a window needs its own id"
        )


def _check_window_terms(requests: Sequence[QueryRequest]) -> None:
    """Refuse a window whose sparse state could exceed MAX_WINDOW_TERMS.

    The bound is the product over queries of twice the query's nonzero
    address branches.
    """
    branches = []
    for request in requests:
        if request.address_amplitudes is None:
            raise ValueError("functional execution requires address amplitudes")
        branches.append(
            sum(1 for amp in request.address_amplitudes.values() if amp != 0)
        )
    bound = math.prod(2 * count for count in branches)
    if bound > MAX_WINDOW_TERMS:
        ids = [request.query_id for request in requests]
        raise ValueError(
            f"functional window of {len(requests)} queries {ids} with "
            f"{branches} address branches could reach {bound} sparse terms, "
            f"above MAX_WINDOW_TERMS={MAX_WINDOW_TERMS}; serve fewer or "
            f"narrower superpositions per window"
        )


def _moves_resident(
    instrs: Sequence[Instruction],
    others: Sequence[Instruction],
    other_label: int | None,
) -> bool:
    """True when a migration in ``instrs`` exchanges the sub-QRAM the other
    query resides in (``other_label``; None when it is not in flight), where
    its stored bits and waiting items sit, and the other query is not
    exchanging the same label pair in the same layer (``others``)."""
    return any(
        a.kind is InstructionKind.SWAP_MIGRATE
        and other_label in (a.label, a.label + 1)
        and not any(_compatible_shared_swap(a, b) for b in others)
        for a in instrs
    )


def _compatible_shared_swap(a: Instruction, b: Instruction) -> bool:
    """Two migrations of the same label pair in one layer are one shared swap."""
    return (
        a.kind is InstructionKind.SWAP_MIGRATE
        and b.kind is InstructionKind.SWAP_MIGRATE
        and a.label == b.label
        and a.level == b.level
    )

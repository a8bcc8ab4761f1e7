"""Gate-level execution of pipelined Fat-Tree QRAM queries.

The executor materialises the full multiplexed router tree as named qubits on
the sparse simulator and runs several queries *concurrently*: each query
follows a BB-style bit-pipelined gate schedule annotated with its current
sub-QRAM label, migrates between sub-QRAMs through explicit SWAP steps that
exchange the input and router qubits of adjacent labels, and performs data
retrieval through phase kickback on the leaf cells of sub-QRAM ``n - 1``.

Two levels of fidelity to the paper:

* every structural rule of Sec. 4 is honoured at the gate level — ops only
  use routers of the query's current label, transient routers are never
  routed through, migrations move only input/router qubits, queries exchange
  sub-QRAMs at shared swap layers;
* the steady-state admission interval is found by a static conflict search
  and is a small constant larger than the abstract model's 10 raw layers
  (see EXPERIMENTS.md); the abstract model in :mod:`repro.core.pipeline`
  carries the paper's exact latency accounting.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.bucket_brigade.instructions import (
    Instruction,
    InstructionKind,
    QubitNamer,
    lower_instruction,
)
from repro.bucket_brigade.schedule import _touched_locations
from repro.bucket_brigade.tree import validate_capacity
from repro.core.fat_tree import FatTreeStructure
from repro.core.pipeline import PIPELINE_INTERVAL
from repro.core.query import (
    QueryRequest,
    QueryResult,
    QueryStatus,
    ideal_query_output,
    output_fidelity,
)
from repro.sim.sparse import SparseState

#: Largest sparse state a functional window may build.  Each query
#: multiplies the branch count by its address branches and by 2 for its bus
#: in the |+>/|-> basis; past this bound a window would run for minutes, so
#: :meth:`FatTreeExecutor.run_pipelined_queries` refuses it up front.
MAX_WINDOW_TERMS = 2**16


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
        # Memoization of the static schedule artefacts: the relative schedule
        # only depends on (capacity, query id), the lowered gate sequence of
        # an instruction only on its (kind, query, item, level, label)
        # identity, and the minimum feasible interval only on the capacity —
        # none of them need to be re-derived on every run_pipelined_queries
        # call.
        self._schedule_cache: dict[int, list[Instruction]] = {}
        self._lowered_cache: dict[
            tuple[InstructionKind, int, int, int, int], list
        ] = {}
        self._min_interval_cache: int | None = None
        self._locations_cache: dict[Instruction, frozenset] = {}

    #: Distinct query ids whose schedules are kept memoized at once.
    _CACHE_LIMIT = 128

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def address_width(self) -> int:
        return self._n

    # --------------------------------------------------------- relative schedule
    def relative_schedule(self, query: int = 0) -> list[Instruction]:
        """Gate-level schedule of one query in its own (relative) raw layers.

        The gate ordering is the BB bit-pipelined schedule; sub-QRAM
        migrations are inserted just in time (right before the first gate
        that needs the larger sub-QRAM) and mirrored during unloading.

        The schedule is memoized: repeated calls (and repeated pipelined
        runs) return the same cached instruction list.  Schedules of
        different query ids share their structure and differ only in the
        ``query`` field, so they are derived from the query-0 schedule
        instead of being rebuilt.
        """
        cached = self._schedule_cache.get(query)
        if cached is not None:
            return cached
        if len(self._schedule_cache) >= self._CACHE_LIMIT:
            # Callers that keep minting fresh query ids (e.g. a long trace
            # driven through parallel_queries directly) must not grow the
            # per-id caches without bound; keep the structural query-0 entry
            # and evict the rest.
            base = self._schedule_cache.get(0)
            self._schedule_cache = {} if base is None else {0: base}
            self._lowered_cache = {
                key: ops for key, ops in self._lowered_cache.items() if key[1] == -1
            }
        if query != 0:
            schedule = [
                replace(instr, query=query) for instr in self.relative_schedule(0)
            ]
            self._schedule_cache[query] = schedule
            return schedule
        schedule = self._build_relative_schedule(query)
        self._schedule_cache[query] = schedule
        return schedule

    def _build_relative_schedule(self, query: int) -> list[Instruction]:
        n = self._n
        gate_instrs = self._bb_like_gate_schedule(query)
        instructions: list[Instruction] = []
        for instr in gate_instrs:
            g = instr.gate_layer
            label = self._label_at_gate(g)
            instructions.append(
                Instruction(
                    instr.kind,
                    query=query,
                    item=instr.item,
                    level=instr.level,
                    label=label,
                    raw_layer=self._raw_of_gate(g),
                    gate_layer=g,
                )
            )
        # Upward migrations (to label j, just before gate 4j).
        for j in range(1, n):
            instructions.append(
                Instruction(
                    InstructionKind.SWAP_MIGRATE,
                    query=query,
                    item=0,
                    level=j - 1,
                    label=j - 1,
                    raw_layer=self._raw_of_gate(4 * j - 1) + 1,
                )
            )
        # Data retrieval on the leaf cells of sub-QRAM n-1.
        instructions.append(
            Instruction(
                InstructionKind.CLASSICAL_GATES,
                query=query,
                item=0,
                level=n - 1,
                label=n - 1,
                raw_layer=self._raw_of_gate(4 * n) + 1,
            )
        )
        # Downward migrations (from label j, right after the last gate that
        # needs it — the mirror of the upward placement).
        for j in range(1, n):
            instructions.append(
                Instruction(
                    InstructionKind.SWAP_MIGRATE,
                    query=query,
                    item=0,
                    level=j - 1,
                    label=j - 1,
                    raw_layer=self._raw_of_gate(8 * n + 1 - 4 * j) + 1,
                )
            )
        instructions.sort(key=lambda i: (i.raw_layer, i.level, i.item))
        return instructions

    def relative_raw_latency(self) -> int:
        """Raw layers of one query in this realisation: ``10 n - 1``."""
        return self._raw_of_gate(8 * self._n)

    def _bb_like_gate_schedule(self, query: int) -> list[Instruction]:
        """The 8n-gate-layer item schedule (labels filled in later)."""
        n = self._n
        out: list[Instruction] = []

        def add(kind: InstructionKind, item: int, level: int, gate: int) -> None:
            out.append(
                Instruction(
                    kind,
                    query=query,
                    item=item,
                    level=level,
                    label=0,
                    raw_layer=gate,
                    gate_layer=gate,
                )
            )

        for m in range(1, n + 1):
            add(InstructionKind.LOAD, m, -1, 2 * m - 1)
            for i in range(m - 1):
                add(InstructionKind.ROUTE, m, i, 2 * m + 2 * i)
                add(InstructionKind.TRANSPORT, m, i, 2 * m + 2 * i + 1)
            add(InstructionKind.STORE, m, m - 1, 4 * m - 2)
        bus = n + 1
        add(InstructionKind.LOAD, bus, -1, 2 * n + 1)
        for i in range(n - 1):
            add(InstructionKind.ROUTE, bus, i, 2 * n + 2 * i + 2)
            add(InstructionKind.TRANSPORT, bus, i, 2 * n + 2 * i + 3)
        add(InstructionKind.ROUTE, bus, n - 1, 4 * n)

        inverse = {
            InstructionKind.LOAD: InstructionKind.UNLOAD,
            InstructionKind.ROUTE: InstructionKind.UNROUTE,
            InstructionKind.TRANSPORT: InstructionKind.UNTRANSPORT,
            InstructionKind.STORE: InstructionKind.UNSTORE,
        }
        mirrored = [
            Instruction(
                inverse[i.kind],
                query=query,
                item=i.item,
                level=i.level,
                label=0,
                raw_layer=8 * n + 1 - i.gate_layer,
                gate_layer=8 * n + 1 - i.gate_layer,
            )
            for i in out
        ]
        return out + mirrored

    def _ups_before_gate(self, g: int) -> int:
        """Upward migrations placed strictly before gate layer ``g``."""
        return sum(1 for j in range(1, self._n) if 4 * j - 1 < g)

    def _downs_before_gate(self, g: int) -> int:
        """Downward migrations placed strictly before gate layer ``g``."""
        n = self._n
        return sum(1 for j in range(1, n) if 8 * n + 1 - 4 * j < g)

    def _raw_of_gate(self, g: int) -> int:
        """Relative raw layer of gate layer ``g`` (fast layers interleaved)."""
        retrieval = 1 if g > 4 * self._n else 0
        return g + self._ups_before_gate(g) + self._downs_before_gate(g) + retrieval

    def _label_at_gate(self, g: int) -> int:
        """Sub-QRAM label the query occupies while executing gate ``g``."""
        return self._ups_before_gate(g) - self._downs_before_gate(g)

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

    def resident_label(self, relative_raw: int) -> int | None:
        """Sub-QRAM label a query resides in at one of its relative layers.

        The query is considered resident in a label from the swap step that
        brings it in up to and including the swap step that takes it out
        (boundary layers are shared exchange layers).
        """
        lifetime = self.relative_raw_latency()
        if relative_raw < 1 or relative_raw > lifetime:
            return None
        n = self._n
        up_layers = [self._raw_of_gate(4 * j - 1) + 1 for j in range(1, n)]
        down_layers = [self._raw_of_gate(8 * n + 1 - 4 * j) + 1 for j in range(1, n)]
        label = 0
        for layer in up_layers:
            if relative_raw > layer:
                label += 1
        for layer in down_layers:
            if relative_raw > layer:
                label -= 1
        return label

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
        lifetime = self.relative_raw_latency()
        for layer, instrs in by_layer.items():
            other_layer = layer - offset
            others = by_layer.get(other_layer, [])
            # (a) instruction-vs-instruction overlap on the same qubit groups
            for a in instrs:
                for b in others:
                    if _compatible_shared_swap(a, b):
                        continue
                    if self._touched(a) & self._touched(b):
                        return False
            # (b) migrations must not move qubits where the *other* query is
            #     merely resident (its stored bits and waiting items), unless
            #     the other query is exchanging the same label pair.
            if 1 <= other_layer <= lifetime:
                other_resident = self.resident_label(other_layer)
                for a in instrs:
                    if a.kind is not InstructionKind.SWAP_MIGRATE:
                        continue
                    if other_resident not in (a.label, a.label + 1):
                        continue
                    shared = any(_compatible_shared_swap(a, b) for b in others)
                    if not shared:
                        return False
            # Symmetric case: the other query's migrations vs this residency.
            if 1 <= other_layer <= lifetime:
                this_resident = self.resident_label(layer)
                for b in others:
                    if b.kind is not InstructionKind.SWAP_MIGRATE:
                        continue
                    if this_resident not in (b.label, b.label + 1):
                        continue
                    shared = any(_compatible_shared_swap(a, b) for a in instrs)
                    if not shared:
                        return False
        return True

    # ------------------------------------------------------------- execution
    def run_pipelined_queries(
        self,
        requests: Sequence[QueryRequest],
        interval: int | None = None,
    ) -> tuple[PipelinedExecutionResult, dict[int, dict[tuple[int, int], complex]]]:
        """Execute several queries concurrently and return their outputs.

        Args:
            requests: query requests; each must carry address amplitudes.
            interval: admission interval in raw layers; defaults to the
                smallest feasible interval for this capacity.

        Returns:
            A pair of (execution summary, per-query output amplitudes over
            ``(address, bus)``).
        """
        if not requests:
            raise ValueError("at least one query request is required")
        _check_window_terms(requests)
        if interval is None:
            interval = self.minimum_feasible_interval(len(requests))

        state = SparseState()
        state.ensure_qubits(self.structure.all_qubits())

        # Prepare external registers and the phase-kickback basis change.
        for request in requests:
            address_qubits = [
                self.namer.address_qubit(request.query_id, bit)
                for bit in range(self._n)
            ]
            state.prepare_superposition(
                address_qubits, dict(request.address_amplitudes)
            )
            bus = self.namer.bus_qubit(request.query_id)
            state.add_qubit(bus, request.initial_bus)
            state.apply_gate("H", (bus,))

        # Build the merged absolute schedule.
        merged: list[Instruction] = []
        for slot, request in enumerate(requests):
            start = slot * interval
            for instr in self.relative_schedule(request.query_id):
                merged.append(
                    Instruction(
                        instr.kind,
                        query=instr.query,
                        item=instr.item,
                        level=instr.level,
                        label=instr.label,
                        raw_layer=instr.raw_layer + start,
                        gate_layer=instr.gate_layer,
                    )
                )
        merged.sort(key=lambda i: i.raw_layer)

        # Execute layer by layer, de-duplicating shared migrations.
        total_layers = max(i.raw_layer for i in merged)
        by_layer: dict[int, list[Instruction]] = {}
        for instr in merged:
            by_layer.setdefault(instr.raw_layer, []).append(instr)
        for layer in sorted(by_layer):
            executed_swaps: set[tuple[int, int]] = set()
            for instr in by_layer[layer]:
                if instr.kind is InstructionKind.SWAP_MIGRATE:
                    key = (instr.label, instr.level)
                    if key in executed_swaps:
                        continue
                    executed_swaps.add(key)
                for op in self._lowered_operations(instr):
                    state.apply_operation(op)

        # Undo the bus basis change and collect outputs.
        outputs: dict[int, dict[tuple[int, int], complex]] = {}
        results: list[QueryResult] = []
        lifetime = self.relative_raw_latency()
        for slot, request in enumerate(requests):
            bus = self.namer.bus_qubit(request.query_id)
            state.apply_gate("H", (bus,))
            qubits = [
                self.namer.address_qubit(request.query_id, bit)
                for bit in range(self._n)
            ]
            qubits.append(bus)
            joint = state.register_amplitudes(qubits)
            outputs[request.query_id] = {
                divmod(value, 2): amp for value, amp in joint.items()
            }
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
                    amplitudes=outputs[request.query_id],
                    status=QueryStatus.COMPLETED,
                )
            )

        summary = PipelinedExecutionResult(
            interval=interval,
            total_layers=total_layers,
            per_query_raw_layers=lifetime,
            results=results,
            max_concurrent=self._max_concurrent(len(requests), interval, lifetime),
        )
        self._final_state = state
        return summary, outputs

    #: Instruction kinds whose lowering names per-query external qubits
    #: (address / bus registers); everything else acts on tree qubits only
    #: and lowers identically for every query.
    _QUERY_SENSITIVE_KINDS = frozenset(
        {InstructionKind.LOAD, InstructionKind.UNLOAD}
    )

    def _lowered_operations(self, instr: Instruction):
        """Lowered gate sequence of an instruction, cached by identity.

        Lowering depends on (kind, item, level, label) and on the classical
        data — which is fixed for the executor's lifetime — never on the
        absolute raw layer, so merged absolute schedules reuse the lowered
        operations of the relative schedule across runs.  The query id only
        matters for LOAD/UNLOAD (which touch the query's external address /
        bus qubits), so all other kinds share one cache entry across
        queries, keeping the cache bounded by the schedule size rather than
        by the number of distinct query ids ever served.
        """
        query_key = instr.query if instr.kind in self._QUERY_SENSITIVE_KINDS else -1
        key = (instr.kind, query_key, instr.item, instr.level, instr.label)
        operations = self._lowered_cache.get(key)
        if operations is None:
            operations = lower_instruction(
                instr,
                self.namer,
                self._n,
                data=self.data,
                leaf_label=self._n - 1,
            )
            self._lowered_cache[key] = operations
        return operations

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

    def tree_is_clean(self) -> bool:
        """After execution, every tree qubit must be |0> in every branch."""
        state = getattr(self, "_final_state", None)
        if state is None:
            raise RuntimeError("no execution has been run yet")
        tree_qubits = set(self.structure.all_qubits())
        for basis, _amp in state.items():
            for qubit, value in zip(state.qubits, basis):
                if qubit in tree_qubits and value != 0:
                    return False
        return True


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


def _compatible_shared_swap(a: Instruction, b: Instruction) -> bool:
    """Two migrations of the same label pair in one layer are one shared swap."""
    return (
        a.kind is InstructionKind.SWAP_MIGRATE
        and b.kind is InstructionKind.SWAP_MIGRATE
        and a.label == b.label
        and a.level == b.level
    )

"""Gate-level execution of BB QRAM queries on the sparse simulator.

The executor lowers a :class:`~repro.bucket_brigade.schedule.BBQuerySchedule`
to gates and runs them on :class:`~repro.sim.sparse.SparseState`, realising
the query unitary of Eq. (1):

    sum_i alpha_i |i>_A |b>_B  ->  sum_i alpha_i |i>_A |b XOR x_i>_B

The bus is queried through phase kickback: it is placed in the X basis
(|+> / |->) before entering the tree, the CLASSICAL-GATES step applies Z on
every leaf cell whose classical bit is 1, and a final Hadamard converts the
acquired phase back into a bit flip.  This is the standard circuit-level
realisation of the classically controlled leaf writes and leaves every router
and leaf qubit clean (disentangled) after unloading — a property the
integration tests assert explicitly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bucket_brigade.instructions import (
    InstructionKind,
    QubitNamer,
    lower_instruction,
)
from repro.bucket_brigade.schedule import BBQuerySchedule
from repro.bucket_brigade.tree import BBTree
from repro.sim.sparse import SparseState


class BBExecutor:
    """Executes BB QRAM queries gate by gate on a sparse state.

    Schedule artefacts are memoized the same way as in the Fat-Tree
    executor: the query-0 instruction schedule and the lowered gate
    sequence of every instruction it runs are derived once per memory image
    and hit their cached values on every subsequent query — the fast path
    ``BucketBrigadeQRAM.cached_executor()`` exposes to the serving layer
    (and that classical memory writes invalidate wholesale).  Serving names
    registers by window slot and a BB window holds one query, so it only
    ever runs query 0; other ids are built on demand and never cached,
    which bounds the memo by the tree size.

    Args:
        capacity: memory size ``N`` (power of two).
        data: classical memory contents, one bit per address (values are
            reduced mod 2).
    """

    #: Instruction kinds whose lowering names per-query external qubits
    #: (address / bus registers); everything else acts on tree qubits only
    #: and lowers identically for every query.
    _QUERY_SENSITIVE_KINDS = frozenset(
        {InstructionKind.LOAD, InstructionKind.UNLOAD}
    )

    def __init__(self, capacity: int, data: Sequence[int]) -> None:
        self.tree = BBTree(capacity)
        if len(data) != capacity:
            raise ValueError(
                f"data must have {capacity} entries, got {len(data)}"
            )
        self.data = [int(x) & 1 for x in data]
        self.namer: QubitNamer = self.tree.namer
        self._schedule_cache: BBQuerySchedule | None = None
        self._lowered_cache: dict[tuple[InstructionKind, int, int, int], list] = {}

    @property
    def capacity(self) -> int:
        return self.tree.capacity

    @property
    def address_width(self) -> int:
        return self.tree.address_width

    # -------------------------------------------------------------- scheduling
    def schedule(self, query: int = 0) -> BBQuerySchedule:
        """The instruction schedule of one query id (query 0 memoized)."""
        if query != 0:
            return BBQuerySchedule(self.capacity, query=query)
        if self._schedule_cache is None:
            self._schedule_cache = BBQuerySchedule(self.capacity, query=0)
        return self._schedule_cache

    # ------------------------------------------------------------------ query
    def run_query(
        self,
        address_amplitudes: Mapping[int, complex],
        query: int = 0,
        state: SparseState | None = None,
        initial_bus: int = 0,
    ) -> SparseState:
        """Run one full query and return the final state.

        Args:
            address_amplitudes: amplitudes of the address superposition
                (normalised automatically).
            query: query id used for naming the external qubits.
            state: optionally continue on an existing state (for sequential
                queries); a fresh state is created otherwise.
            initial_bus: initial bus value ``b`` (the query XORs data into it).

        Returns:
            The sparse state after the query; address qubits are
            ``("addr", query, bit)`` and the bus is ``("bus", query)``.
        """
        n = self.address_width
        if state is None:
            state = SparseState()
        address_qubits = [self.namer.address_qubit(query, bit) for bit in range(n)]
        bus_qubit = self.namer.bus_qubit(query)
        state.ensure_qubits(self.tree.all_qubits())
        state.prepare_superposition(address_qubits, dict(address_amplitudes))
        state.add_qubit(bus_qubit, initial_bus)

        # Phase-kickback basis change on the bus.
        state.apply_gate("H", (bus_qubit,))

        self.run_schedule(self.schedule(query), state)

        state.apply_gate("H", (bus_qubit,))
        return state

    def run_schedule(self, schedule: BBQuerySchedule, state: SparseState) -> None:
        """Execute a prepared schedule on an existing state."""
        for instruction in schedule.instructions:
            for op in self._lowered_operations(instruction):
                state.apply_operation(op)

    def _lowered_operations(self, instr) -> list:
        """Lowered gate sequence of an instruction, cached by identity.

        Lowering depends on (kind, item, level, label) and on the classical
        data — fixed for the executor's lifetime — never on the raw layer.
        The query id only matters for LOAD/UNLOAD (which touch the query's
        external address / bus qubits): those are cached for query 0 only,
        and every other kind shares one cache entry across queries.
        """
        cacheable = (
            instr.query == 0 or instr.kind not in self._QUERY_SENSITIVE_KINDS
        )
        key = (instr.kind, instr.item, instr.level, instr.label)
        operations = self._lowered_cache.get(key) if cacheable else None
        if operations is None:
            operations = lower_instruction(
                instr,
                self.namer,
                self.address_width,
                data=self.data,
            )
            if cacheable:
                self._lowered_cache[key] = operations
        return operations

    # ------------------------------------------------------------ inspection
    def expected_output(
        self,
        address_amplitudes: Mapping[int, complex],
        initial_bus: int = 0,
    ) -> dict[tuple[int, int], complex]:
        """Ideal output amplitudes over (address, bus) pairs, from Eq. (1)."""
        # Imported here, not at module level: repro.core's package init pulls
        # in core.qram, which imports this module back (QUBITS_PER_ROUTER /
        # BBExecutor) — a top-level import would be circular.
        from repro.core.query import ideal_query_output

        return ideal_query_output(self.data, address_amplitudes, initial_bus)

    def measured_output(
        self, state: SparseState, query: int = 0
    ) -> dict[tuple[int, int], complex]:
        """Amplitudes of the (address, bus) registers after a query."""
        n = self.address_width
        qubits = [self.namer.address_qubit(query, bit) for bit in range(n)]
        qubits.append(self.namer.bus_qubit(query))
        joint = state.register_amplitudes(qubits)
        return {divmod(value, 2): amp for value, amp in joint.items()}

    def query_fidelity(
        self,
        address_amplitudes: Mapping[int, complex],
        query: int = 0,
        initial_bus: int = 0,
    ) -> float:
        """|<ideal|actual>|^2 of one noiseless query (should be 1.0)."""
        from repro.core.query import output_fidelity

        state = self.run_query(address_amplitudes, query=query, initial_bus=initial_bus)
        actual = self.measured_output(state, query=query)
        ideal = self.expected_output(address_amplitudes, initial_bus=initial_bus)
        return output_fidelity(ideal, actual)

    def tree_is_clean(self, state: SparseState) -> bool:
        """True when every router-tree qubit is back in |0> in every branch."""
        values = state.qubit_values()
        if values is None:
            tree_qubits = set(self.tree.all_qubits())
            for basis, _ in state.items():
                for qubit, value in zip(state.qubits, basis):
                    if qubit in tree_qubits and value != 0:
                        return False
            return True
        return all(
            values.get(q, 0) == 0 for q in self.tree.all_qubits()
        )

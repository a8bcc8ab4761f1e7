"""User-facing Fat-Tree QRAM.

``FatTreeQRAM`` is the main entry point of the library: it exposes the
architecture-level metrics of Tables 1-2 (qubits, parallelism, latency,
bandwidth), the pipeline model of Fig. 6 and the gate-level functional
execution of parallel queries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bucket_brigade.qram import QUBITS_PER_ROUTER
from repro.bucket_brigade.tree import validate_capacity
from repro.core.executor import FatTreeExecutor, PipelinedExecutionResult
from repro.core.fat_tree import FatTreeStructure
from repro.core.pipeline import (
    FatTreePipeline,
    fat_tree_amortized_query_latency,
    fat_tree_parallel_query_latency,
    fat_tree_raw_query_layers,
    fat_tree_single_query_latency,
)
from repro.core.query import QueryRequest
from repro.schedule_cache import default_registry


class FatTreeQRAM:
    """A capacity-``N`` Fat-Tree QRAM shared memory.

    Args:
        capacity: memory size ``N`` (power of two >= 2).
        data: classical memory contents, fixed at construction (defaults
            to zeros).
    """

    name = "Fat-Tree"

    def __init__(self, capacity: int, data: Sequence[int] | None = None) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.structure = FatTreeStructure(capacity)
        self._data = [0] * capacity if data is None else [int(x) & 1 for x in data]
        if len(self._data) != capacity:
            raise ValueError("data length must equal capacity")
        self._executor: FatTreeExecutor | None = None

    # -------------------------------------------------------------- structure
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def data(self) -> list[int]:
        return list(self._data)

    # --------------------------------------------------------------- resources
    @property
    def num_routers(self) -> int:
        """Multiplexed routers: ``2N - 2 - log2(N)``."""
        return self.structure.num_routers

    @property
    def qubit_count(self) -> int:
        """Physical qubit count, ``16 N`` (Table 1: double a BB QRAM)."""
        return 2 * QUBITS_PER_ROUTER * self._capacity

    @property
    def query_parallelism(self) -> int:
        """Independent queries the architecture pipelines: ``log2(N)``."""
        return self._n

    # ----------------------------------------------------------------- timing
    @property
    def raw_query_layers(self) -> int:
        """Raw layers of a single query, ``10 n - 1`` (Fig. 6)."""
        return fat_tree_raw_query_layers(self._capacity)

    def single_query_latency(self) -> float:
        """Weighted single-query latency ``8.25 n - 0.125`` (Table 1)."""
        return fat_tree_single_query_latency(self._capacity)

    def parallel_query_latency(self, num_queries: int | None = None) -> float:
        """Weighted latency of pipelined queries (``16.5 n - 8.375`` for
        ``log N`` queries, Table 1)."""
        count = self._n if num_queries is None else num_queries
        return fat_tree_parallel_query_latency(self._capacity, count)

    def amortized_query_latency(self, num_queries: int | None = None) -> float:
        """Weighted amortized latency per query.

        With ``num_queries=None`` this is the steady-state value of Table 1
        (one query per pipeline interval, ``8.25``).  An explicit
        ``num_queries`` is honoured as the finite-horizon amortization
        ``parallel_query_latency(k) / k`` — which includes the one-time
        pipeline-fill cost and converges to 8.25 from above as ``k`` grows.
        """
        if num_queries is None:
            return fat_tree_amortized_query_latency(self._capacity)
        return fat_tree_parallel_query_latency(self._capacity, num_queries) / num_queries

    def pipeline(self, num_queries: int | None = None) -> FatTreePipeline:
        """Architectural pipeline schedule (Fig. 6) for ``num_queries``."""
        return FatTreePipeline(self._capacity, num_queries=num_queries)

    def bandwidth(self, clops: float = 1.0e6) -> float:
        """Query bandwidth in (bus) qubits per second (Table 2)."""
        return self.pipeline(1).bandwidth(clops)

    # -------------------------------------------------------------- functional
    def query(
        self,
        address_amplitudes: Mapping[int, complex],
        initial_bus: int = 0,
    ) -> dict[tuple[int, int], complex]:
        """Run one query on the gate-level executor and return its output."""
        request = QueryRequest(0, dict(address_amplitudes), initial_bus=initial_bus)
        _, outputs = self.parallel_queries([request])
        return outputs[0]

    def parallel_queries(
        self,
        requests: Sequence[QueryRequest],
        interval: int | None = None,
    ) -> tuple[PipelinedExecutionResult, dict[int, dict[tuple[int, int], complex]]]:
        """Execute several queries concurrently (query-level pipelining).

        Repeated calls reuse one cached executor, so the relative schedule,
        the lowered gate sequences and the minimum feasible interval are
        derived once per memory image instead of once per call.
        """
        return self.cached_executor().run_pipelined_queries(requests, interval=interval)

    def cached_executor(self) -> FatTreeExecutor:
        """The memoized gate-level executor of this QRAM's memory image.

        The executor (and with it every schedule artefact it has memoized) is
        reused across every query of the QRAM's lifetime.
        Executors are shared process-wide through the
        :class:`~repro.schedule_cache.ScheduleCacheRegistry`: every
        replica holding the same memory image — including replicas of a
        later fleet build and forked serving workers — resolves to one
        executor, so
        schedules and lowered gate sequences are derived once per image
        instead of once per replica.
        """
        if self._executor is None:
            self._executor = default_registry().executor(
                self.name,
                self._capacity,
                self._data,
                lambda: FatTreeExecutor(self._capacity, self._data),
            )
        return self._executor

    def executor(self) -> FatTreeExecutor:
        """A fresh (unshared) gate-level executor over this QRAM's memory."""
        return FatTreeExecutor(self._capacity, self._data)

"""User-facing Bucket-Brigade QRAM.

``BucketBrigadeQRAM`` bundles the tree structure, the schedule and the
gate-level executor behind the architecture-level interface shared by all
QRAM models in this repository (see :mod:`repro.baselines.registry`):
capacity, qubit count, query parallelism, latency, and a functional
``query`` method.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bucket_brigade.executor import BBExecutor
from repro.bucket_brigade.schedule import (
    bb_raw_query_layers,
    bb_weighted_query_latency,
)
from repro.bucket_brigade.tree import BBTree, validate_capacity
from repro.schedule_cache import default_registry

# Physical qubits per quantum router in the superconducting implementation
# (input + router + two output cavities, transmon ancilla and coupler
# overhead): the constant that reproduces Table 1's "8 N" for BB QRAM.
QUBITS_PER_ROUTER = 8


class BucketBrigadeQRAM:
    """A capacity-``N`` Bucket-Brigade QRAM used as a (sequential) shared memory.

    Args:
        capacity: memory size ``N`` (power of two >= 2).
        data: classical memory contents, fixed at construction (defaults
            to zeros).
    """

    name = "BB"

    def __init__(self, capacity: int, data: Sequence[int] | None = None) -> None:
        validate_capacity(capacity)
        self._capacity = capacity
        self.tree = BBTree(capacity)
        self._data = [0] * capacity if data is None else [int(x) & 1 for x in data]
        if len(self._data) != capacity:
            raise ValueError("data length must equal capacity")
        self._executor: BBExecutor | None = None

    # -------------------------------------------------------------- structure
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def data(self) -> list[int]:
        """Classical memory contents (fixed at construction)."""
        return list(self._data)

    # --------------------------------------------------------------- resources
    @property
    def num_routers(self) -> int:
        """Quantum routers in the tree: ``N - 1``."""
        return self._capacity - 1

    @property
    def qubit_count(self) -> int:
        """Physical qubit count, ``8 N`` (Table 1)."""
        return QUBITS_PER_ROUTER * self._capacity

    @property
    def query_parallelism(self) -> int:
        """BB QRAM serves queries strictly sequentially."""
        return 1

    # ----------------------------------------------------------------- timing
    @property
    def raw_query_layers(self) -> int:
        """Raw circuit layers of a single query, ``8n + 1``."""
        return bb_raw_query_layers(self._capacity)

    def single_query_latency(self) -> float:
        """Weighted single-query latency ``8n + 0.125`` (Table 1)."""
        return bb_weighted_query_latency(self._capacity)

    def parallel_query_latency(self, num_queries: int) -> float:
        """Weighted latency of ``num_queries`` back-to-back queries.

        BB QRAM cannot overlap queries, so this is simply
        ``num_queries * (8n + 0.125)``.
        """
        if num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        return num_queries * self.single_query_latency()

    def amortized_query_latency(self, num_queries: int | None = None) -> float:
        """Weighted amortized latency per query (equal to the single-query
        latency for a sequential architecture)."""
        return self.single_query_latency()

    def bandwidth(self, clops: float = 1.0e6) -> float:
        """Bus qubits delivered per second (Table 2): ``clops / (8n + 0.125)``."""
        return clops / self.single_query_latency()

    # -------------------------------------------------------------- functional
    def query(
        self,
        address_amplitudes: Mapping[int, complex],
        initial_bus: int = 0,
    ) -> dict[tuple[int, int], complex]:
        """Run one query by replaying the executor's compiled program.

        Args:
            address_amplitudes: address superposition (normalised
                automatically).
            initial_bus: initial bus bit.

        Returns:
            Amplitudes over ``(address, bus)`` after the query.
        """
        return self.cached_executor().run_query(
            address_amplitudes, initial_bus=initial_bus
        )

    def cached_executor(self) -> BBExecutor:
        """The memoized gate-level executor of this QRAM's memory image.

        The executor (and with it the compiled program it has memoized)
        is reused across every query of the QRAM's lifetime and shared
        process-wide — the same contract as
        :meth:`repro.core.qram.FatTreeQRAM.cached_executor`.
        """
        if self._executor is None:
            self._executor = default_registry().executor(
                "BB",
                self._capacity,
                self._data,
                lambda: BBExecutor(self._capacity, self._data),
            )
        return self._executor

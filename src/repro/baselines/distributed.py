"""Distributed baselines: ``log N`` independent hardware copies.

D-BB and D-Fat-Tree (Sec. 6.1) replicate a full capacity-``N`` QRAM ``log N``
times, which multiplies the qubit cost by ``log N`` but lets ``log N`` queries
run on separate hardware.  They bound what is achievable with brute-force
replication and are the "asymptotically more expensive" comparison group of
Tables 1-2.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bucket_brigade.qram import BucketBrigadeQRAM
from repro.bucket_brigade.tree import validate_capacity
from repro.core.qram import FatTreeQRAM


class _DistributedQRAM:
    """Shared behaviour of the distributed baselines."""

    def __init__(
        self,
        capacity: int,
        data: Sequence[int] | None = None,
        num_copies: int | None = None,
    ) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.num_copies = self._n if num_copies is None else num_copies
        if self.num_copies < 1:
            raise ValueError("num_copies must be >= 1")
        self._data = [0] * capacity if data is None else [int(x) & 1 for x in data]
        if len(self._data) != capacity:
            raise ValueError("data length must equal capacity")
        self.copies = [self._make_copy() for _ in range(self.num_copies)]

    def _make_copy(self):  # pragma: no cover - overridden
        raise NotImplementedError

    # -------------------------------------------------------------- structure
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def data(self) -> list[int]:
        return list(self._data)

    # --------------------------------------------------------------- resources
    @property
    def qubit_count(self) -> int:
        return self.num_copies * self.copies[0].qubit_count

    @property
    def query_parallelism(self) -> int:
        return self.num_copies * self.copies[0].query_parallelism

    # ----------------------------------------------------------------- timing
    def single_query_latency(self) -> float:
        return self.copies[0].single_query_latency()

    def parallel_query_latency(self, num_queries: int | None = None) -> float:
        """Weighted latency of ``num_queries`` queries spread over the copies."""
        count = self._n if num_queries is None else num_queries
        per_copy = -(-count // self.num_copies)  # ceil division
        return self.copies[0].parallel_query_latency(per_copy)

    def amortized_query_latency(self, num_queries: int | None = None) -> float:
        count = self._n if num_queries is None else num_queries
        return self.parallel_query_latency(count) / count


class DistributedBBQRAM(_DistributedQRAM):
    """``log N`` independent BB QRAMs (baseline D-BB)."""

    name = "D-BB"

    def _make_copy(self) -> BucketBrigadeQRAM:
        return BucketBrigadeQRAM(self._capacity, self._data)

    def bandwidth(self, clops: float = 1.0e6) -> float:
        """Table 2: ``10^6 log(N) / (8 log(N) + 0.125)`` for 1 MHz CLOPS."""
        return self.num_copies * clops / self.copies[0].single_query_latency()


class DistributedFatTreeQRAM(_DistributedQRAM):
    """``log N`` independent Fat-Tree QRAMs (baseline D-Fat-Tree)."""

    name = "D-Fat-Tree"

    def _make_copy(self) -> FatTreeQRAM:
        return FatTreeQRAM(self._capacity, self._data)

    def bandwidth(self, clops: float = 1.0e6) -> float:
        """Table 2: ``1.21 log(N) x 10^5`` for 1 MHz CLOPS."""
        return self.num_copies * self.copies[0].bandwidth(clops)

    def parallel_query_latency(self, num_queries: int | None = None) -> float:
        """D-Fat-Tree pipelines within each copy as well; for ``log N``
        queries the amortized expression of Table 1 applies."""
        count = self._n if num_queries is None else num_queries
        per_copy = -(-count // self.num_copies)
        return self.copies[0].parallel_query_latency(per_copy)
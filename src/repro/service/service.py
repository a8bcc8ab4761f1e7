"""Traffic-facing QRAM serving layer (multi-backend, sharded, policy-driven).

A :class:`QRAMService` builds a fleet of execution backends — one per
shard, each an arbitrary registered architecture (Fat-Tree, BB, Virtual,
D-Fat-Tree, D-BB) built through
:func:`repro.baselines.registry.build_backend`.  Traffic is served by the
discrete-event engine in :mod:`repro.engine`, one heap of typed events on
one virtual clock, whether the workload is an open-loop trace, closed-loop
clients or SLO-bounded queues::

    report = ServiceEngine(service).run(TraceSource(requests))

Placement is pluggable: address-interleaved sharding
(:class:`repro.service.sharding.InterleavedShardMap`; a query's address
superposition pins it to one shard) or full replication with
shortest-queue placement (:class:`~repro.service.sharding.ReplicatedShardMap`).
Admission order within a queue is an
:class:`repro.scheduling.policy.AdmissionPolicy` (FIFO — provably
latency-optimal, Sec. A.2 — LIFO, random, priority, or EDF for
deadline-carrying traffic).

Each gate-level backend reuses one cached executor, so schedules, lowered
gate sequences and admission intervals are derived once per memory image
and hit their memoized values on every window — the schedule-cache fast
path measured by ``benchmarks/bench_service_throughput.py`` for both the
Fat-Tree and BB backends.

All service times are raw circuit layers on one global clock; per-tenant /
per-shard / per-backend summaries come from
:mod:`repro.metrics.service_stats`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.registry import build_backend
from repro.engine.core import ServiceReport
from repro.scheduling.policy import AdmissionPolicy, as_policy
from repro.schedule_cache import default_registry
from repro.service.sharding import (
    InterleavedShardMap,
    ReplicatedShardMap,
)

__all__ = ["PLACEMENTS", "QRAMService", "ServiceReport"]

#: Valid placement modes for the service fleet.
PLACEMENTS = ("interleaved", "shortest-queue")


class QRAMService:
    """A fleet of QRAM backends serving query traffic.

    Args:
        capacity: global address-space size ``N`` (power of two).
        num_shards: number of shards in the fleet.
        data: global classical memory contents (defaults to zeros),
            loaded into the shards once at build.
        policy: admission order among queued requests per shard — an
            :class:`AdmissionPolicy` or a policy name ("fifo" / "lifo" /
            "random" / "priority" / "edf").
        window_size: maximum queries batched into one pipeline window.
            Capped per shard at the backend's query parallelism: the
            architecture cannot pipeline more queries concurrently, and
            oversized windows only grow the simulated state exponentially.
        functional: when True every window runs on the backend's functional
            path and output amplitudes / fidelities are reported; when
            False the service is timing-only (same schedule, no state
            evolution).
        seed: RNG seed for the random policy.
        architectures: one architecture name per shard (any name from
            :func:`repro.baselines.registry.backend_names`, optionally
            with a QEC-distance suffix: ``"Fat-Tree@d3"`` serves encoded
            logical queries), so bare and encoded replicas can serve side
            by side; ``None`` serves Fat-Tree on every shard.
        placement: ``"interleaved"`` (address-interleaved shards; queries
            are pinned to the shard owning their addresses) or
            ``"shortest-queue"`` (every shard replicates the full memory
            and each query is placed on the least-loaded shard).
        parameters: optional
            :class:`~repro.hardware.parameters.HardwareParameters` noise
            model shared by every shard's predicted fidelities (defaults
            to the paper's parameter set).
    """

    def __init__(
        self,
        capacity: int,
        num_shards: int = 2,
        data: Sequence[int] | None = None,
        policy: AdmissionPolicy | object = "fifo",
        window_size: int | None = None,
        functional: bool = True,
        seed: int = 0,
        architectures: Sequence[str] | None = None,
        placement: str = "interleaved",
        parameters=None,
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        self.placement = placement
        if placement == "interleaved":
            self.shard_map = InterleavedShardMap(capacity, num_shards)
        else:
            self.shard_map = ReplicatedShardMap(capacity, num_shards)

        if architectures is None:
            architectures = ["Fat-Tree"] * num_shards
        elif len(architectures) != num_shards:
            raise ValueError(
                f"architectures must name one backend per shard "
                f"({len(architectures)} names for {num_shards} shards)"
            )

        memory = [0] * capacity if data is None else [int(x) & 1 for x in data]
        if len(memory) != capacity:
            raise ValueError("data length must equal capacity")
        self.shards = [
            build_backend(
                name,
                self.shard_map.shard_capacity,
                self.shard_map.shard_data(memory, shard),
                parameters=parameters,
            )
            for shard, name in enumerate(architectures)
        ]
        self.architectures = [backend.name for backend in self.shards]
        # Warm the process-wide schedule-cache registry at fleet build:
        # identical shards resolve to one shared executor, and worker
        # processes forked later inherit the warm table copy-on-write.
        default_registry().prewarm(self.shards)
        self.policy = as_policy(policy, seed=seed)
        if window_size is not None and window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_sizes = [
            backend.query_parallelism
            if window_size is None
            else max(1, min(window_size, backend.query_parallelism))
            for backend in self.shards
        ]
        self.functional = functional

    # -------------------------------------------------------------- structure

    @property
    def window_size(self) -> int:
        """Largest pipeline window any shard in the fleet batches."""
        return max(self.window_sizes)

"""Fleet partitioning for parallel serving: plan, split, and validate.

Parallel serving (:mod:`repro.engine.parallel`) runs one child
:class:`~repro.engine.core.ServiceEngine` per shard and merges the events
back deterministically.  That is only *exact* when the shards are truly
independent — no cross-shard placement, no shared mutable scheduling
state, no feedback from one shard's completions into another shard's
arrivals.  This module holds the machinery that decides and enforces
exactness:

* :func:`partition_unsupported_reason` — the single predicate gating the
  parallel path.  Any coupling (replicated placement, autoscaling, a
  random admission policy's shared RNG, closed-loop pacing, an external
  record sink) falls back to the single-process oracle, with the reason
  recorded on the report's :class:`ParallelRunInfo`.
* :func:`split_trace` — partitions a materialized trace by owning shard,
  replaying the oracle's per-arrival validation (duplicate ids, missing
  amplitudes, fidelity-SLO range, shard-spanning superpositions) in the
  oracle's order, so an invalid trace raises the identical error whether
  it is served sequentially or split across workers.
* :class:`PartitionedTraceSource` — the streaming analogue: a trace
  *factory* that can regenerate any subset of shards' requests on demand,
  so each forked worker rebuilds only its own partition (the lazy
  generators take a ``shards=`` filter precisely for this) and nothing is
  materialized in the parent.
* :func:`partition_shards` — the deterministic round-robin assignment of
  shards to workers.  Partition granularity is always one engine per
  shard regardless of worker count, which is what makes the merged output
  worker-count invariant: ``workers=8`` merges the same per-shard streams
  as ``workers=1``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.query import QueryRequest
from repro.engine.workload import (
    StreamingTraceSource,
    TraceSource,
    WorkloadSource,
    check_request_time,
)

if TYPE_CHECKING:
    from repro.engine.core import ServiceEngine

__all__ = [
    "ParallelRunInfo",
    "PartitionedTraceSource",
    "partition_shards",
    "partition_unsupported_reason",
    "split_trace",
]

#: Builds an iterator over the requests owned by the given shards
#: (``None`` = the full trace).  The filtered stream must yield exactly
#: the requests the full stream yields for those shards — same ids, same
#: times, same payloads — in the same (time-sorted, strictly-increasing
#: id) order.  ``iter_poisson_trace(..., shards=...)`` is the canonical
#: implementation.
TraceFactory = Callable[[tuple[int, ...] | None], Iterable[QueryRequest]]


@dataclass(frozen=True)
class ParallelRunInfo:
    """How one engine run was (or was not) parallelized.

    Attributes:
        workers: worker processes that actually ran partitions (0 when the
            run fell back to the single-process oracle).
        partitions: per-shard partitions that were served (0 on fallback).
        fallback_reason: why the run stayed single-process (``None`` when
            it was partitioned).
        worker_seconds: wall-clock seconds each worker spent serving its
            partitions — the per-worker timing counters of the parallel
            benchmarks.
    """

    workers: int
    partitions: int
    fallback_reason: str | None
    worker_seconds: tuple[float, ...]


class _FactoryStream:
    """A re-iterable view over one factory's (possibly filtered) stream."""

    def __init__(self, factory: TraceFactory, shards: tuple[int, ...] | None) -> None:
        self._factory = factory
        self._shards = shards

    def __iter__(self) -> Iterator[QueryRequest]:
        last_id: int | None = None
        for request in self._factory(self._shards):
            if last_id is not None and request.query_id <= last_id:
                raise ValueError(
                    f"partitioned trace factory yielded query_id "
                    f"{request.query_id} after {last_id}; partitioned streams "
                    "must carry strictly increasing ids (ids key the "
                    "per-request results fleet-wide)"
                )
            last_id = request.query_id
            yield request


class PartitionedTraceSource(StreamingTraceSource):
    """A streaming trace whose per-shard partitions can be regenerated.

    Wraps a :data:`TraceFactory`.  Served single-process it behaves
    exactly like ``StreamingTraceSource(factory(None))`` — one pending
    arrival, O(1) memory — but it is also *restartable* (each run
    re-invokes the factory) and *partitionable*: each partitioned worker
    serves :meth:`shard_requests` of its own shard, so every partition's
    requests are generated inside the worker that serves them, and the
    parent never materializes anything.

    The factory must yield requests in nondecreasing ``request_time``
    order with strictly increasing ``query_id`` (checked lazily as the
    stream is consumed), and the filtered stream must reproduce the full
    stream's requests for the selected shards byte for byte — the
    contract the ``shards=`` parameter of
    :func:`repro.workloads.generators.iter_poisson_trace` /
    :func:`~repro.workloads.generators.iter_bursty_trace` implements.
    """

    def __init__(self, factory: TraceFactory) -> None:
        self.factory = factory
        super().__init__(_FactoryStream(factory, None))

    def shard_requests(self, shards: Sequence[int]) -> Iterator[QueryRequest]:
        """The checked request stream of the given shards' partition."""
        return iter(_FactoryStream(self.factory, tuple(int(s) for s in shards)))


def partition_shards(num_shards: int, workers: int) -> list[list[int]]:
    """Round-robin assignment of shard indices to workers.

    Deterministic and independent of anything but the two counts; empty
    groups (more workers than shards) are dropped.
    """
    if num_shards < 1 or workers < 1:
        raise ValueError("num_shards and workers must be >= 1")
    groups = [list(range(worker, num_shards, workers)) for worker in range(workers)]
    return [group for group in groups if group]


def split_trace(
    requests: Sequence[QueryRequest], shard_map: Any
) -> list[list[QueryRequest]]:
    """Partition a time-sorted trace by owning shard, validating like the oracle.

    Replays exactly the per-request checks the single-process engine
    performs, in exactly its order — a negative arrival time first (the
    sorted trace streams its most negative arrival first, so the engine
    refuses it before any arrival is processed), then per arrival in time
    order: duplicate ids, missing
    amplitudes, fidelity-SLO range, and the shard map's own
    shard-spanning-superposition refusal.  A trace that raises on the
    oracle path raises the identical error here, before any worker is
    forked.

    Args:
        requests: the trace in ``(request_time, query_id)`` order (a
            :class:`~repro.engine.workload.TraceSource`'s ``requests``).
        shard_map: the fleet's shard map (``route`` decides ownership).

    Returns:
        One bucket per shard, each preserving the trace order.
    """
    if requests:
        check_request_time(requests[0])
    buckets: list[list[QueryRequest]] = [
        [] for _ in range(shard_map.num_shards)
    ]
    seen: set[int] = set()
    for request in requests:
        if request.query_id in seen:
            raise ValueError(
                f"duplicate query_id {request.query_id} in trace; "
                "query ids key the per-request results and must be unique"
            )
        seen.add(request.query_id)
        if request.address_amplitudes is None:
            raise ValueError("service requests require address amplitudes")
        if request.min_fidelity is not None and not 0.0 < request.min_fidelity <= 1.0:
            raise ValueError("min_fidelity must be in (0, 1]")
        shard, _ = shard_map.route(request.address_amplitudes)
        buckets[shard].append(request)
    return buckets


def partition_unsupported_reason(
    engine: ServiceEngine, source: WorkloadSource
) -> str | None:
    """Why this run cannot be partitioned exactly (``None`` when it can).

    Partitioned execution must be *bit-identical* to the single-process
    oracle, so anything that couples shards forces a fallback.  The
    returned string is recorded on the report's
    :class:`ParallelRunInfo.fallback_reason` so a fallback is always
    observable, never silent.
    """
    if isinstance(source, (TraceSource, PartitionedTraceSource)):
        pass
    elif isinstance(source, StreamingTraceSource):
        return (
            "a plain StreamingTraceSource is a one-shot iterator the parent "
            "cannot split; wrap the trace factory in a PartitionedTraceSource"
        )
    else:
        return (
            f"{type(source).__name__} paces arrivals on cross-shard "
            "completion feedback and cannot be partitioned"
        )
    fleet = engine.fleet
    placement = getattr(fleet, "placement", None)
    if placement != "interleaved":
        return (
            f"placement {placement!r} lets a query run on any replica; only "
            "interleaved fleets pin every request to one shard"
        )
    if engine.autoscaler is not None:
        return "autoscaling mutates the fleet mid-run across shards"
    if engine.sink is not None:
        return (
            "an external record sink observes records in global completion "
            "order"
        )
    if len(fleet.shards) < 2:
        return "a single-shard fleet has nothing to partition"
    if hasattr(fleet.policy, "_rng"):
        return (
            f"admission policy {type(fleet.policy).__name__} draws from "
            "shared random state, coupling shards' admission orders"
        )
    return None

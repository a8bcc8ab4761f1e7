"""Partitioned parallel serving: N workers, one deterministic timeline.

An interleaved fleet pins every request to the one shard owning its
addresses, and shards never interact during a run — each has its own
queue, its own backend, its own windows.  The discrete-event simulation
therefore factors exactly: running one child
:class:`~repro.engine.core.ServiceEngine` per shard over just that shard's
arrivals produces, shard by shard, the identical events the global heap
would have interleaved.  This module exploits that factorization:

1. **Partition** — the workload is split per shard: a materialized
   :class:`~repro.engine.workload.TraceSource` is bucketed (and validated)
   up front by :func:`~repro.engine.partition.split_trace`; a
   :class:`~repro.engine.partition.PartitionedTraceSource` regenerates
   each shard's requests inside the worker that serves it, so the parent
   never materializes the trace.
2. **Serve** — partitions run in up to N ``fork``-start worker processes
   (shards round-robin over workers).  Fork means nothing is pickled on
   the way in: workers inherit the fleet — including the prewarmed
   process-wide schedule-cache registry — copy-on-write.  The partition
   granularity is *always* one engine per shard, whatever the worker
   count, so the merged output cannot depend on how many workers ran.
3. **Merge** — each child engine packages what it observed as a
   :class:`~repro.engine.core.RunOutcome`, and the parent hands the
   outcomes, in shard order, to the same report builder
   (:meth:`~repro.engine.core.ServiceEngine._finalize`) the oracle calls
   with its single outcome.  The builder sorts records under the keys the
   oracle's ``(time, rank, sequence)`` heap discipline induces —
   served by ``(finish_layer, query_id)``, windows by ``(admit_layer,
   shard)``, rejections by ``(time, query_id)`` — and rebuilds telemetry
   from raw per-shard interval totals.  Under sanitizer mode it also
   checks per-partition and global conservation (``offered == served +
   rejected``) and that every partition's window and rejection streams
   come back nondecreasing in time.

Determinism contract: ``workers=N`` is bit-identical to ``workers=1`` for
every partitionable configuration, and identical to the single-process
oracle (``workers=0``) under full retention — including periodic
telemetry, whose intervals both paths derive from raw totals (the oracle
accumulates its interval fidelity sum per shard and both combine partials
with an exactly-rounded ``fsum``, so the merged intervals are byte-equal
to the oracle's).  Runs under ``retention="none"`` merge their per-shard
aggregators with
:func:`repro.metrics.streaming.merge_service_aggregators`: the log-bucket
latency sketches merge by adding bucket counts, so every count and
latency percentile equals the oracle's exactly, while the merged means,
summed in shard order, may differ from the oracle's in their last bits.

Worker errors propagate: the lowest-shard failure is re-raised in the
parent with its original type and message, which keeps failures
deterministic across worker counts too.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from itertools import chain
from typing import Any

from repro.core.query import QueryRequest
from repro.engine.core import RunOutcome, ServiceEngine, ServiceReport
from repro.engine.partition import (
    ParallelRunInfo,
    PartitionedTraceSource,
    partition_shards,
    split_trace,
)
from repro.engine.pool import ForkWorkerPool, fork_available
from repro.engine.workload import StreamingTraceSource, TraceSource, WorkloadSource
from repro.perf import profiler

__all__ = ["run_partitioned"]

#: Every ``ServiceEngine.__init__`` knob, each stored under its own name:
#: :func:`_child_engine` copies them all, then overrides a few.
_KNOBS = tuple(
    name
    for name, parameter in inspect.signature(
        ServiceEngine.__init__
    ).parameters.items()
    if parameter.kind is parameter.KEYWORD_ONLY
)


def _child_engine(engine: ServiceEngine) -> ServiceEngine:
    """The engine serving one shard's partition, with its parent's knobs.

    The child drives the *full* fleet object (inherited copy-on-write
    under fork): only its single-shard source routes work to it, so every
    record carries the global shard id.  Duplicate-id detection is off —
    one shard sees a sparse subsequence of the global id stream, which the
    parent (or the partitioned factory's strictly-increasing-id contract)
    already validates densely.
    """
    knobs = {name: getattr(engine, name) for name in _KNOBS}
    knobs.update(sink=None, workers=0)
    child = ServiceEngine(engine.fleet, **knobs)
    child._dedupe = False
    return child


def _run_shard(
    engine: ServiceEngine,
    shard: int,
    bucket: list[QueryRequest] | None,
    partitioned: PartitionedTraceSource | None,
) -> RunOutcome | None:
    """Serve one shard's partition on a child engine; ``None`` when empty."""
    source: WorkloadSource
    if partitioned is not None:
        stream = partitioned.shard_requests((shard,))
        first = next(stream, None)
        if first is None:
            return None
        source = StreamingTraceSource(chain((first,), stream))
    else:
        assert bucket is not None
        source = TraceSource(bucket)
    child = _child_engine(engine)
    child._run_events(source)
    return child._outcome()


class _ShardError(Exception):
    """Wraps a shard's failure so the parent can re-raise the original.

    Carries the failing shard (for the deterministic lowest-shard-first
    raise) around the original exception.  ``__reduce__`` keeps the pair
    picklable whenever the original is; an unpicklable original falls
    back to the pool's summary path.
    """

    def __init__(self, shard: int, original: BaseException) -> None:
        super().__init__(
            f"shard {shard}: {type(original).__name__}: {original}"
        )
        self.shard = shard
        self.original = original

    def __reduce__(self) -> tuple[Any, ...]:
        return (_ShardError, (self.shard, self.original))


def _run_forked(
    groups: list[list[int]],
    serve: Callable[[list[int]], tuple[list[tuple[int, RunOutcome]], float]],
) -> tuple[list[tuple[int, RunOutcome]], tuple[float, ...]]:
    """Run shard groups in forked pool workers; collect outcomes and timings.

    One :class:`~repro.engine.pool.ForkWorkerPool` worker per group, one
    task per worker: the pool provides the fork-start plumbing (payload
    pipes, recv-before-join discipline, died-worker detection), and the
    sweep engine reuses the same pool for its persistent cross-run
    workers.
    """
    outcomes: list[tuple[int, RunOutcome]] = []
    seconds: list[float] = []
    errors: list[tuple[int, BaseException]] = []
    with ForkWorkerPool(serve, workers=len(groups)) as pool:
        results = pool.run(
            (index, group, index) for index, group in enumerate(groups)
        )
    for result in results:
        group = groups[result.task_id]
        if result.error is None:
            group_outcomes, elapsed = result.result
            outcomes.extend(group_outcomes)
            seconds.append(elapsed)
        elif isinstance(result.error, _ShardError):
            errors.append((result.error.shard, result.error.original))
        else:
            # The worker died or the original failure would not pickle;
            # attribute it to the group's lowest shard (the first the
            # oracle would have hit).
            errors.append((min(group), result.error))
    if errors:
        # The lowest-shard error is the one the oracle would have hit
        # first (shards within a worker run in ascending order), so the
        # raised failure is deterministic across worker counts.
        errors.sort(key=lambda pair: pair[0])
        raise errors[0][1]
    return outcomes, tuple(seconds)


def run_partitioned(
    engine: ServiceEngine,
    source: WorkloadSource,
    workers: int,
    clops: float = 1.0e6,
) -> ServiceReport:
    """Serve one partitionable workload across worker processes.

    Only called by :meth:`ServiceEngine.run` after
    :func:`~repro.engine.partition.partition_unsupported_reason` returned
    ``None``; see the module docstring for the determinism contract.
    """
    num_shards = len(engine.fleet.shards)
    partitioned: PartitionedTraceSource | None
    buckets: list[list[QueryRequest]] | None
    if isinstance(source, PartitionedTraceSource):
        partitioned = source
        buckets = None
        jobs = list(range(num_shards))
    else:
        assert isinstance(source, TraceSource)
        partitioned = None
        buckets = split_trace(source.requests, engine.fleet.shard_map)
        jobs = [shard for shard in range(num_shards) if buckets[shard]]

    worker_count = max(1, min(int(workers), max(1, len(jobs))))
    if worker_count > 1 and not fork_available():
        # No fork on this platform: degrade gracefully to the in-process
        # partitioned path (same partitions, same merge, same report).
        worker_count = 1
    clock = profiler.host_clock

    def serve(group: list[int]) -> tuple[list[tuple[int, RunOutcome]], float]:
        """Serve one worker's shards in ascending order: the non-empty
        partitions' ``(shard, outcome)`` pairs and the host seconds taken
        (0.0 without an injected clock).  A failure is wrapped in
        :class:`_ShardError` naming its shard."""
        started = clock() if clock is not None else 0.0
        outcomes = []
        for shard in group:
            try:
                outcome = _run_shard(
                    engine,
                    shard,
                    buckets[shard] if buckets is not None else None,
                    partitioned,
                )
            except BaseException as exc:
                raise _ShardError(shard, exc) from None
            if outcome is not None:
                outcomes.append((shard, outcome))
        return outcomes, clock() - started if clock is not None else 0.0

    if worker_count == 1:
        try:
            outcomes, elapsed = serve(jobs)
        except _ShardError as error:
            raise error.original from None
        worker_seconds: tuple[float, ...] = (elapsed,)
    else:
        groups = [
            [jobs[index] for index in group]
            for group in partition_shards(len(jobs), worker_count)
        ]
        outcomes, worker_seconds = _run_forked(groups, serve)
    outcomes.sort(key=lambda pair: pair[0])
    return engine._finalize(
        [outcome for _, outcome in outcomes],
        clops,
        ParallelRunInfo(
            workers=worker_count,
            partitions=len(outcomes),
            fallback_reason=None,
            worker_seconds=worker_seconds,
        ),
    )

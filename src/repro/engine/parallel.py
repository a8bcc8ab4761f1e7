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
3. **Merge** — per-shard outcomes come back in shard order and are merged
   deterministically under the same keys the oracle's
   ``(time, PRIORITY, sequence)`` heap discipline induces on records:
   served by ``(finish_layer, query_id)``, windows by
   ``(admit_layer, shard)``, rejections by ``(time, query_id)``.  Under
   sanitizer mode the merge additionally checks that every partition's
   record streams are nondecreasing across the worker boundary and that
   per-partition conservation (``offered == served + rejected``) sums to
   the global invariant.

Determinism contract: ``workers=N`` is bit-identical to ``workers=1`` for
every partitionable configuration, and identical to the single-process
oracle (``workers=0``) under full retention — including periodic
telemetry, whose intervals are recombined per tick from raw per-shard
totals (the oracle accumulates its interval fidelity sum per shard and
both paths combine partials with an exactly-rounded ``fsum``, so the
merged intervals are byte-equal to the oracle's).  Streaming-retention
runs merge their per-shard aggregators with
:func:`repro.metrics.streaming.merge_service_aggregators`: the log-bucket
latency sketches merge by adding bucket counts, so every count and
latency percentile equals the oracle's exactly, while the merged means,
summed in shard order, may differ from the oracle's in their last bits.

Worker errors propagate: the lowest-shard failure is re-raised in the
parent with its original type and message, which keeps failures
deterministic across worker counts too.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro.core.query import QueryRequest
from repro.engine.events import SanitizerViolation, merge_sorted_records
from repro.engine.partition import (
    ParallelRunInfo,
    PartitionedTraceSource,
    split_trace,
)
from repro.engine.pool import ForkWorkerPool, fork_available
from repro.engine.workload import StreamingTraceSource, TraceSource, WorkloadSource
from repro.metrics.service_stats import (
    RejectedQuery,
    ServedQuery,
    WindowRecord,
    summarize_service,
)
from repro.metrics.streaming import (
    IntervalStats,
    StreamingServiceAggregator,
    merge_service_aggregators,
)
from repro.perf.profiler import StageProfile
from repro.schedule_cache import default_registry

if TYPE_CHECKING:
    from repro.engine.core import ServiceEngine, ServiceReport

__all__ = ["host_clock", "run_partitioned"]

#: Host-side monotone clock used to time worker processes, or ``None``.
#: Simulation code never reads host wall time (the determinism discipline
#: simlint SIM001 enforces tree-wide), so per-worker timings are strictly
#: opt-in: a measurement harness installs a clock explicitly —
#: ``repro.engine.parallel.host_clock = time.perf_counter`` — and
#: ``ParallelRunInfo.worker_seconds`` reports zeros otherwise.  Forked
#: workers inherit the installed clock copy-on-write, so per-worker
#: elapsed times are measured inside each worker.
host_clock: Callable[[], float] | None = None

#: One interval's raw telemetry totals (see ``ServiceEngine._telemetry_raw``).
_RawInterval = tuple[float, float, int, int, int, int, int, int, int, float, int]


@dataclass
class _ShardOutcome:
    """Everything one shard's child engine observed, shipped to the parent."""

    shard: int
    offered: int
    served: list[ServedQuery]
    windows: list[WindowRecord]
    rejected: list[RejectedQuery]
    outputs: dict[int, dict[tuple[int, int], complex]]
    max_depth: int
    aggregator: StreamingServiceAggregator
    telemetry_raw: list[_RawInterval]
    profile: StageProfile | None = None


def _run_shard(
    engine: ServiceEngine,
    shard: int,
    bucket: list[QueryRequest] | None,
    partitioned: PartitionedTraceSource | None,
) -> _ShardOutcome | None:
    """Serve one shard's partition on a child engine; ``None`` when empty.

    The child drives the *full* fleet object (inherited copy-on-write
    under fork, shared in-process otherwise): only its single-shard source
    ever routes work to it, so every record naturally carries the global
    shard id and no remapping is needed anywhere.  Duplicate-id detection
    is disabled in the child — a single shard sees a sparse subsequence of
    the global id stream, which the parent (or the partitioned factory's
    strictly-increasing-id contract) already validates densely.
    """
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
    from repro.engine.core import ServiceEngine as Engine

    child = Engine(
        engine.fleet,
        max_queue_depth=engine.max_queue_depth,
        shed_expired=engine.shed_expired,
        autoscaler=None,
        max_distillation_copies=engine.max_distillation_copies,
        retention=engine.retention,
        sample_size=engine.sample_size,
        # Disjoint per-shard reservoir seeds (each engine uses 4 streams),
        # fixed by shard — never by worker — so sampled retention is
        # worker-count invariant too.
        sample_seed=engine.sample_seed + 4 * shard,
        telemetry_interval=engine.telemetry_interval,
        sink=None,
        sanitize=engine.sanitize,
        workers=0,
        profile=engine.profile,
    )
    child._dedupe = False
    child._run_events(source)
    retained = engine.retention != "none"
    return _ShardOutcome(
        shard=shard,
        offered=child._offered,
        served=list(child._served_sink.records) if retained else [],
        windows=list(child._window_sink.records) if retained else [],
        rejected=list(child._rejected_sink.records) if retained else [],
        outputs=dict(child._outputs),
        max_depth=child._max_depth.get(shard, 0),
        aggregator=child._aggregator,
        telemetry_raw=list(child._telemetry_raw),
        profile=(
            child._profiler.snapshot() if child._profiler is not None else None
        ),
    )


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
    engine: ServiceEngine,
    groups: list[list[int]],
    buckets: list[list[QueryRequest]] | None,
    partitioned: PartitionedTraceSource | None,
) -> tuple[list[_ShardOutcome], tuple[float, ...]]:
    """Run shard groups in forked pool workers; collect outcomes and timings.

    One :class:`~repro.engine.pool.ForkWorkerPool` worker per group, one
    task per worker: the pool provides the fork-start plumbing (payload
    pipes, recv-before-join discipline, died-worker detection) this
    module used to hand-roll, and the sweep engine reuses the same pool
    for its persistent cross-run workers.
    """
    clock = host_clock

    def handler(group: list[int]) -> tuple[list[_ShardOutcome], float]:
        started = clock() if clock is not None else 0.0
        outcomes: list[_ShardOutcome] = []
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
                outcomes.append(outcome)
        elapsed = clock() - started if clock is not None else 0.0
        return outcomes, elapsed

    outcomes: list[_ShardOutcome] = []
    seconds: list[float] = []
    errors: list[tuple[int, BaseException]] = []
    with ForkWorkerPool(handler, workers=len(groups)) as pool:
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


def _merge_telemetry(outcomes: list[_ShardOutcome]) -> list[IntervalStats]:
    """Recombine per-shard telemetry intervals on the shared tick grid.

    Every child flushes on the same ``i * interval`` grid (plus one final
    partial interval), so intervals group exactly by ``start_layer``;
    counters sum in shard order, rates and the fidelity mean are recomputed
    from the raw totals (fidelity partials via ``fsum``, matching the
    oracle's own per-shard accumulation byte-for-byte).  Queue depths are
    per-shard snapshots: the total sums over shards, the max is the
    deepest single shard — identical to the oracle's instantaneous global
    snapshot because partitioned shards never interact.
    """
    groups: dict[float, list[_RawInterval]] = {}
    for outcome in outcomes:
        for raw in outcome.telemetry_raw:
            groups.setdefault(raw[0], []).append(raw)
    intervals: list[IntervalStats] = []
    for start in sorted(groups):
        rows = groups[start]
        end = max(row[1] for row in rows)
        span = end - start
        served = sum(row[3] for row in rows)
        rejected = sum(row[4] for row in rows)
        # fsum is exactly rounded, so summing per-shard partials here gives
        # byte-for-byte the total the oracle's own fsum over its per-shard
        # accumulators produces, whatever order the rows arrived in.
        fidelity_total = math.fsum(row[9] for row in rows)
        fidelity_count = sum(row[10] for row in rows)
        intervals.append(
            IntervalStats(
                start_layer=start,
                end_layer=end,
                arrivals=sum(row[2] for row in rows),
                served=served,
                rejected=rejected,
                shed=sum(row[5] for row in rows),
                windows=sum(row[6] for row in rows),
                throughput_queries_per_layer=(
                    served / span if span > 0 else 0.0
                ),
                queue_depth_total=sum(row[7] for row in rows),
                queue_depth_max=max(row[8] for row in rows),
                rejection_rate=(
                    rejected / (served + rejected) if (served + rejected) else 0.0
                ),
                mean_fidelity=(
                    fidelity_total / fidelity_count if fidelity_count else None
                ),
            )
        )
    return intervals


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
    from repro.engine.core import ServiceReport as Report

    fleet = engine.fleet
    num_shards = len(fleet.shards)
    partitioned: PartitionedTraceSource | None
    buckets: list[list[QueryRequest]] | None
    if isinstance(source, PartitionedTraceSource):
        partitioned = source
        buckets = None
        jobs = list(range(num_shards))
    else:
        assert isinstance(source, TraceSource)
        partitioned = None
        buckets = split_trace(source.requests, fleet.shard_map)
        jobs = [shard for shard in range(num_shards) if buckets[shard]]

    worker_count = max(1, min(int(workers), max(1, len(jobs))))
    if worker_count > 1 and not fork_available():
        # No fork on this platform: degrade gracefully to the in-process
        # partitioned path (same partitions, same merge, same report).
        worker_count = 1

    if worker_count == 1:
        clock = host_clock
        started = clock() if clock is not None else 0.0
        maybe = [
            _run_shard(
                engine,
                shard,
                buckets[shard] if buckets is not None else None,
                partitioned,
            )
            for shard in jobs
        ]
        outcomes = [outcome for outcome in maybe if outcome is not None]
        worker_seconds = (clock() - started if clock is not None else 0.0,)
    else:
        groups = [jobs[worker::worker_count] for worker in range(worker_count)]
        outcomes, worker_seconds = _run_forked(engine, groups, buckets, partitioned)

    outcomes.sort(key=lambda outcome: outcome.shard)
    offered_total = sum(outcome.offered for outcome in outcomes)
    served_total = sum(outcome.aggregator.served_count for outcome in outcomes)
    rejected_total = sum(outcome.aggregator.rejected_count for outcome in outcomes)
    if engine.sanitize:
        for outcome in outcomes:
            part_served = outcome.aggregator.served_count
            part_rejected = outcome.aggregator.rejected_count
            if outcome.offered != part_served + part_rejected:
                raise SanitizerViolation(
                    f"partition conservation broken on shard {outcome.shard}: "
                    f"offered={outcome.offered} != served={part_served} + "
                    f"rejected={part_rejected} (queues drain by end of run)"
                )
        if offered_total != served_total + rejected_total:
            raise SanitizerViolation(
                "global conservation broken across partitions: "
                f"offered={offered_total} != served={served_total} + "
                f"rejected={rejected_total}"
            )
    if not served_total:
        if rejected_total:
            raise ValueError(
                f"no queries were served: all {rejected_total} offered requests "
                "were rejected or shed (loosen max_queue_depth / deadlines)"
            )
        raise ValueError("the workload source produced no requests")

    retained = engine.retention != "none"
    served: list[ServedQuery] = []
    windows: list[WindowRecord] = []
    rejected: list[RejectedQuery] = []
    if retained:
        served = sorted(
            (record for outcome in outcomes for record in outcome.served),
            key=lambda record: (record.finish_layer, record.query_id),
        )
        # Under full retention each partition's window / rejection stream
        # is in event order, so the k-way merge both reassembles the
        # canonical order and (in sanitizer mode) checks the streams stay
        # nondecreasing across the worker boundary.  Sampled retention
        # keeps reservoirs, whose records carry no order — plain canonical
        # sorts apply.
        checked = engine.retention == "full"
        windows = merge_sorted_records(
            [outcome.windows for outcome in outcomes],
            key=lambda record: (record.admit_layer, record.shard),
            sanitize=engine.sanitize and checked,
            description="window",
        )
        if not checked:
            windows.sort(key=lambda record: (record.admit_layer, record.shard))
        rejected = merge_sorted_records(
            [outcome.rejected for outcome in outcomes],
            key=lambda record: record.time,
            sanitize=engine.sanitize and checked,
            description="rejection",
        )
        rejected.sort(key=lambda record: (record.time, record.query_id))

    outputs: dict[int, dict[tuple[int, int], complex]] = {}
    for outcome in outcomes:
        outputs.update(outcome.outputs)
    max_depth = {shard: 0 for shard in range(num_shards)}
    for outcome in outcomes:
        max_depth[outcome.shard] = outcome.max_depth

    if engine.retention == "full":
        stats = summarize_service(
            served, windows, max_depth, clops=clops, rejected=rejected
        )
    else:
        merged = merge_service_aggregators(
            [outcome.aggregator for outcome in outcomes]
        )
        stats = merged.to_stats(max_depth, clops=clops)

    telemetry = (
        _merge_telemetry(outcomes)
        if engine.telemetry_interval is not None
        else []
    )
    profile: StageProfile | None = None
    if engine.profile:
        profile = StageProfile()
        for outcome in outcomes:
            if outcome.profile is not None:
                profile = profile.merged(outcome.profile)
    return Report(
        served=served,
        windows=windows,
        stats=stats,
        outputs=outputs,
        rejected=rejected,
        scale_events=[],
        telemetry=telemetry,
        retention=engine.retention,
        parallel=ParallelRunInfo(
            workers=worker_count,
            partitions=len(outcomes),
            fallback_reason=None,
            worker_seconds=worker_seconds,
        ),
        profile=profile,
        # The parent's registry snapshot: forked workers' serve-time
        # lookups land in their own copy-on-write registries, so this
        # reflects the shared table the workers inherited (fleet-build
        # prewarms included), not per-worker hit traffic.
        cache_stats=default_registry().stats(),
    )

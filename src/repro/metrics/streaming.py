"""Online (single-pass, bounded-memory) serving statistics.

Every serving statistic is computed here.  The engine folds each record
into constant-size accumulators the moment it is produced under
``retention="none"``; under full retention
:func:`repro.metrics.service_stats.summarize_service` folds the retained
records through the same aggregator and swaps in exact percentiles.

* :class:`StreamingStat` — count / sum / mean / min / max of one series.
* :class:`LogBucketSketch` — a log-bucket relative-error quantile sketch
  (DDSketch): every percentile it reports is within
  :data:`RELATIVE_ACCURACY` (1%) relative of an exact order statistic,
  and merging two sketches adds bucket counts, so merges are exact.
* :class:`StreamingServiceAggregator` — the full
  :class:`~repro.metrics.service_stats.ServiceStats` surface (global,
  per-tenant, per-shard, per-backend, rejection and SLO accounting)
  maintained online; ``to_stats`` materializes the summary at any point.
* :class:`IntervalStats` — one time-windowed telemetry sample (throughput,
  queue depths, rejection rate, fidelity) emitted by the engine's periodic
  :class:`~repro.engine.events.TelemetryTick`.

Memory grows with the tenants, shards and backends and with the
logarithmic spread of the latencies, never with the request count: a
million-query run aggregates through the same few kilobytes as a
hundred-query run.  Counts, sums and extrema are exact;
only the latency percentiles are sketched.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    BackendStats,
    RejectedQuery,
    ServedQuery,
    ServiceStats,
    ShardStats,
    TenantStats,
    WindowRecord,
)

__all__ = [
    "IntervalStats",
    "LogBucketSketch",
    "RELATIVE_ACCURACY",
    "StreamingServiceAggregator",
    "StreamingStat",
    "merge_service_aggregators",
]

#: Relative accuracy ``α`` of :class:`LogBucketSketch` percentiles.
RELATIVE_ACCURACY = 0.01
_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)


class StreamingStat:
    """Count / sum / mean / min / max of one series, in O(1) memory."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of the series (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: StreamingStat) -> None:
        """Fold another series' accumulators into this one.

        Counts, sums and extrema merge exactly, so statistics over a
        partitioned run equal the statistics of one combined series up to
        float-summation order (parallel serving merges partitions in shard
        order, making the order — and the result — worker-count
        invariant).
        """
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum


class LogBucketSketch:
    """Mergeable relative-error quantile sketch (DDSketch; Masson et al.,
    VLDB 2019).

    A positive value ``v`` lands in bucket ``ceil(log(v) / log(γ))`` with
    ``γ = (1 + α) / (1 - α)`` and :data:`RELATIVE_ACCURACY` ``α``; bucket
    ``k`` covers ``(γ^(k-1), γ^k]`` and reports ``2γ^k / (γ + 1)``, which is
    within ``α`` relative of every value in it.  Non-positive values share
    one zero count, reported as 0.0.  The state is nothing but counts, so
    :meth:`merge` adds them: any partition of a series, merged in any
    order, holds exactly the buckets of one sketch fed the whole series.
    """

    __slots__ = ("count", "zero_count", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.zero_count = 0
        self.buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        if value > 0.0:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            buckets = self.buckets
            buckets[key] = buckets.get(key, 0) + 1
        else:
            self.zero_count += 1

    def merge(self, other: LogBucketSketch) -> None:
        """Add another sketch's counts into this one (exact)."""
        self.count += other.count
        self.zero_count += other.zero_count
        buckets = self.buckets
        for key, count in other.buckets.items():
            buckets[key] = buckets.get(key, 0) + count

    def quantile(self, q: float) -> float:
        """Estimate of the order statistic at rank ``floor(q * (count - 1))``.

        Within :data:`RELATIVE_ACCURACY` relative of that order statistic;
        0.0 for an empty sketch.
        """
        if not self.count:
            return 0.0
        rank = math.floor(q * (self.count - 1))
        seen = self.zero_count
        if rank < seen:
            return 0.0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if rank < seen:
                break
        return 2.0 * _GAMMA**key / (_GAMMA + 1.0)


@dataclass(frozen=True)
class IntervalStats:
    """One time-windowed telemetry sample of a running service.

    Emitted by the engine's periodic
    :class:`~repro.engine.events.TelemetryTick`: counters cover the events
    of the half-open interval ``(start_layer, end_layer]``; queue depths
    are the instantaneous values at ``end_layer``.

    Attributes:
        start_layer / end_layer: bounds of the interval, raw layers.
        arrivals: requests that arrived in the interval (served or not).
        served: queries completed in the interval.
        rejected: requests refused in the interval (all reasons, shed
            included).
        shed: the expired-deadline subset of ``rejected``.
        windows: pipeline windows admitted in the interval.
        throughput_queries_per_layer: ``served`` over the interval length.
        queue_depth_total / queue_depth_max: queued requests summed / maxed
            over the active shards at the tick instant.
        rejection_rate: ``rejected`` over the interval's dispositions
            (``served + rejected``, both counted at the instant they
            happen, so the rate is always in [0, 1] even when a request
            sheds intervals after it arrived); 0.0 on an idle interval.
        mean_fidelity: mean fidelity of the queries served in the interval
            (``None`` when none carried a fidelity).
    """

    start_layer: float
    end_layer: float
    arrivals: int
    served: int
    rejected: int
    shed: int
    windows: int
    throughput_queries_per_layer: float
    queue_depth_total: int
    queue_depth_max: int
    rejection_rate: float
    mean_fidelity: float | None


@dataclass(slots=True)
class _GroupAggregate:
    """Shared accumulator behind the tenant / shard / backend views."""

    queries: int = 0
    latency: StreamingStat = field(default_factory=StreamingStat)
    queue_delay: StreamingStat = field(default_factory=StreamingStat)
    fidelity: StreamingStat = field(default_factory=StreamingStat)
    deadline_demand: int = 0
    deadline_misses: int = 0
    slo_demand: int = 0
    slo_misses: int = 0
    # Windows (shard / backend views only).
    windows: int = 0
    batch_total: int = 0
    busy_layers: float = 0.0
    architecture: str = ""
    shard_ids: set[int] = field(default_factory=set)
    # Rejections (tenant view only).
    shed: int = 0
    fidelity_rejected: int = 0

    def _observe_values(
        self,
        latency_layers: float,
        queue_delay_layers: float,
        fidelity: float | None,
        has_deadline: bool,
        missed_deadline: bool,
        has_slo: bool,
        missed_slo: bool,
    ) -> None:
        """Fold one served query's derived values into the accumulators.

        The aggregator computes the :class:`ServedQuery` property values
        once per record and feeds the same scalars to every group view
        (global / tenant / shard / backend) — four views per record make
        the recomputation the hottest line of streaming retention.
        """
        self.queries += 1
        self.latency.add(latency_layers)
        self.queue_delay.add(queue_delay_layers)
        if fidelity is not None:
            self.fidelity.add(fidelity)
        if has_deadline:
            self.deadline_demand += 1
            if missed_deadline:
                self.deadline_misses += 1
        if has_slo:
            self.slo_demand += 1
            if missed_slo:
                self.slo_misses += 1

    def observe_window(self, record: WindowRecord) -> None:
        self.windows += 1
        self.batch_total += record.batch_size
        self.busy_layers += record.total_layers

    def merge(self, other: _GroupAggregate) -> None:
        """Fold another group's accumulators into this one (shard-order
        deterministic; see :func:`merge_service_aggregators`)."""
        self.queries += other.queries
        self.latency.merge(other.latency)
        self.queue_delay.merge(other.queue_delay)
        self.fidelity.merge(other.fidelity)
        self.deadline_demand += other.deadline_demand
        self.deadline_misses += other.deadline_misses
        self.slo_demand += other.slo_demand
        self.slo_misses += other.slo_misses
        self.windows += other.windows
        self.batch_total += other.batch_total
        self.busy_layers += other.busy_layers
        if not self.architecture:
            self.architecture = other.architecture
        self.shard_ids |= other.shard_ids
        self.shed += other.shed
        self.fidelity_rejected += other.fidelity_rejected

    @property
    def mean_batch_size(self) -> float:
        return self.batch_total / self.windows if self.windows else 0.0


class StreamingServiceAggregator:
    """The full :class:`ServiceStats` surface, maintained one record at a time.

    The engine feeds every :class:`ServedQuery`, :class:`WindowRecord` and
    :class:`RejectedQuery` through :meth:`observe_served` /
    :meth:`observe_window` / :meth:`observe_rejected`;
    :meth:`to_stats` materializes a :class:`ServiceStats` whose counts,
    sums, means, extrema and rates are exact and whose latency percentiles
    come from log-bucket sketches (:class:`LogBucketSketch`, one for the
    global view and one per tenant).  Memory is independent of the number
    of records observed.
    """

    def __init__(self) -> None:
        self.served_count = 0
        self.rejected_count = 0
        self.shed_count = 0
        self.fidelity_rejected_count = 0
        self.makespan_layers = 0.0
        self._global = _GroupAggregate()
        self._latency_sketch = LogBucketSketch()
        self._tenants: dict[int, _GroupAggregate] = {}
        self._tenant_sketches: dict[int, LogBucketSketch] = {}
        self._shards: dict[int, _GroupAggregate] = {}
        self._backends: dict[str, _GroupAggregate] = {}

    # ------------------------------------------------------------- observers
    def _tenant(self, tenant: int) -> _GroupAggregate:
        group = self._tenants.get(tenant)
        if group is None:
            group = self._tenants[tenant] = _GroupAggregate()
            self._tenant_sketches[tenant] = LogBucketSketch()
        return group

    def observe_served(self, record: ServedQuery) -> None:
        self.served_count += 1
        finish = record.finish_layer
        if finish > self.makespan_layers:
            self.makespan_layers = finish
        # Derive the record's property values once and share them across
        # the four group views — recomputing them per view was the hottest
        # line of streaming retention (see the engine's `sketch_update`
        # profile stage).
        request_time = record.request_time
        latency = finish - request_time
        queue_delay = record.admit_layer - request_time
        fidelity = record.fidelity
        deadline = record.deadline
        has_deadline = deadline is not None
        missed_deadline = has_deadline and finish > deadline
        min_fidelity = record.min_fidelity
        has_slo = min_fidelity is not None
        if has_slo:
            achieved = record.predicted_fidelity
            if achieved is None:
                achieved = fidelity
            missed_slo = achieved is not None and achieved < min_fidelity
        else:
            missed_slo = False
        tenant = record.tenant
        tenant_group = self._tenants.get(tenant)
        if tenant_group is None:
            tenant_group = self._tenant(tenant)
        shard = self._shards.get(record.shard)
        if shard is None:
            shard = self._shards[record.shard] = _GroupAggregate()
        if not shard.architecture:
            shard.architecture = record.architecture
        backend = self._backends.get(record.architecture)
        if backend is None:
            backend = self._backends[record.architecture] = _GroupAggregate()
            backend.shard_ids.add(record.shard)
        elif record.shard not in backend.shard_ids:
            backend.shard_ids.add(record.shard)
        for group in (self._global, tenant_group, shard, backend):
            group._observe_values(
                latency,
                queue_delay,
                fidelity,
                has_deadline,
                missed_deadline,
                has_slo,
                missed_slo,
            )
        self._latency_sketch.add(latency)
        self._tenant_sketches[tenant].add(latency)

    def observe_window(self, record: WindowRecord) -> None:
        # `.get` instead of `.setdefault`: the default argument would
        # construct (and usually discard) a fresh _GroupAggregate — three
        # StreamingStats and a set — on every window.
        shard = self._shards.get(record.shard)
        if shard is None:
            shard = self._shards[record.shard] = _GroupAggregate()
        shard.observe_window(record)
        backend = self._backends.get(record.architecture)
        if backend is None:
            backend = self._backends[record.architecture] = _GroupAggregate()
        backend.observe_window(record)

    def observe_rejected(self, record: RejectedQuery) -> None:
        # Shed and fidelity-infeasible refusals surface per tenant (they
        # are SLO misses), while queue-full backpressure is service-level
        # only — a tenant whose whole demand bounced off a full queue must
        # not appear as a phantom zero-query row.
        self.rejected_count += 1
        if record.reason == REJECT_DEADLINE_EXPIRED:
            self.shed_count += 1
            self._tenant(record.tenant).shed += 1
        elif record.reason == REJECT_FIDELITY:
            self.fidelity_rejected_count += 1
            self._tenant(record.tenant).fidelity_rejected += 1

    # Private aliases for :meth:`_folded`: instrumentation that wraps the
    # public observers then counts live engine observations only, never a
    # batch re-summary of retained records.
    _observe_served = observe_served
    _observe_window = observe_window
    _observe_rejected = observe_rejected

    @classmethod
    def _folded(
        cls,
        served: Iterable[ServedQuery],
        windows: Iterable[WindowRecord],
        rejected: Iterable[RejectedQuery],
    ) -> StreamingServiceAggregator:
        """A fresh aggregator fed every record, each stream in its order."""
        aggregator = cls()
        for record in served:
            aggregator._observe_served(record)
        for window in windows:
            aggregator._observe_window(window)
        for refusal in rejected:
            aggregator._observe_rejected(refusal)
        return aggregator

    # ----------------------------------------------------------- summarizing
    def to_stats(
        self,
        max_queue_depth: dict[int, int] | None = None,
        clops: float = 1.0e6,
    ) -> ServiceStats:
        """Materialize the running aggregates as a :class:`ServiceStats`.

        Latency percentiles are sketched (see :class:`LogBucketSketch`);
        :func:`repro.metrics.service_stats.summarize_service` replaces
        them with exact order statistics when the records are retained.
        """
        if not self.served_count:
            raise ValueError("at least one served query is required")
        depths = max_queue_depth or {}
        makespan = self.makespan_layers
        seconds = makespan / clops if makespan > 0 else float("inf")

        per_tenant = {}
        for tenant in sorted(self._tenants):
            group = self._tenants[tenant]
            deadline_demand = group.deadline_demand + group.shed
            deadline_misses = group.deadline_misses + group.shed
            slo_demand = group.slo_demand + group.fidelity_rejected
            slo_misses = group.slo_misses + group.fidelity_rejected
            per_tenant[tenant] = TenantStats(
                tenant=tenant,
                queries=group.queries,
                mean_latency_layers=group.latency.mean,
                max_latency_layers=group.latency.maximum or 0.0,
                mean_queue_delay_layers=group.queue_delay.mean,
                throughput_queries_per_sec=group.queries / seconds,
                p95_latency_layers=self._tenant_sketches[tenant].quantile(0.95),
                deadline_misses=deadline_misses,
                deadline_miss_rate=(
                    deadline_misses / deadline_demand if deadline_demand else 0.0
                ),
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=slo_misses,
                fidelity_slo_miss_rate=(
                    slo_misses / slo_demand if slo_demand else 0.0
                ),
            )

        per_shard = {}
        for shard in sorted(self._shards):
            group = self._shards[shard]
            if not group.queries:
                continue
            per_shard[shard] = ShardStats(
                shard=shard,
                queries=group.queries,
                windows=group.windows,
                mean_batch_size=group.mean_batch_size,
                busy_layers=group.busy_layers,
                utilization=(
                    min(1.0, group.busy_layers / makespan) if makespan > 0 else 0.0
                ),
                max_queue_depth=depths.get(shard, 0),
                architecture=group.architecture,
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=group.slo_misses,
            )

        per_backend = {}
        for architecture in sorted(self._backends):
            group = self._backends[architecture]
            if not group.queries:
                continue
            per_backend[architecture] = BackendStats(
                architecture=architecture,
                shards=len(group.shard_ids),
                queries=group.queries,
                windows=group.windows,
                mean_batch_size=group.mean_batch_size,
                mean_latency_layers=group.latency.mean,
                mean_queue_delay_layers=group.queue_delay.mean,
                busy_layers=group.busy_layers,
                throughput_queries_per_sec=group.queries / seconds,
                mean_fidelity=(
                    group.fidelity.mean if group.fidelity.count else None
                ),
                min_fidelity=group.fidelity.minimum,
                fidelity_slo_misses=group.slo_misses,
            )

        total = self._global
        deadline_demand = total.deadline_demand + self.shed_count
        deadline_misses = total.deadline_misses + self.shed_count
        slo_demand = total.slo_demand + self.fidelity_rejected_count
        slo_misses = total.slo_misses + self.fidelity_rejected_count
        return ServiceStats(
            total_queries=self.served_count,
            makespan_layers=makespan,
            mean_latency_layers=total.latency.mean,
            mean_queue_delay_layers=total.queue_delay.mean,
            bandwidth_queries_per_sec=self.served_count / seconds,
            per_tenant=per_tenant,
            per_shard=per_shard,
            per_backend=per_backend,
            p50_latency_layers=self._latency_sketch.quantile(0.50),
            p95_latency_layers=self._latency_sketch.quantile(0.95),
            p99_latency_layers=self._latency_sketch.quantile(0.99),
            offered_queries=self.served_count + self.rejected_count,
            rejected_queries=self.rejected_count - self.shed_count,
            shed_queries=self.shed_count,
            fidelity_rejected_queries=self.fidelity_rejected_count,
            deadline_misses=deadline_misses,
            deadline_miss_rate=(
                deadline_misses / deadline_demand if deadline_demand else 0.0
            ),
            mean_fidelity=(
                total.fidelity.mean if total.fidelity.count else None
            ),
            min_fidelity=total.fidelity.minimum,
            fidelity_slo_misses=slo_misses,
            fidelity_slo_miss_rate=(
                slo_misses / slo_demand if slo_demand else 0.0
            ),
        )


def merge_service_aggregators(
    parts: list[StreamingServiceAggregator],
) -> StreamingServiceAggregator:
    """Combine per-partition aggregators into one fleet-wide aggregator.

    Parallel serving aggregates each shard's records in its own worker;
    this merge reassembles the run-wide view.  Counts, extrema and latency
    percentiles come out identical to observing every record in one
    aggregator.  ``parts`` must be passed in shard order — the
    float-summation order of the means is then fixed by the partition
    layout, making the merged statistics bit-identical across worker
    counts.
    """
    if not parts:
        raise ValueError("at least one partition aggregator is required")
    merged = StreamingServiceAggregator()
    for part in parts:
        merged.served_count += part.served_count
        merged.rejected_count += part.rejected_count
        merged.shed_count += part.shed_count
        merged.fidelity_rejected_count += part.fidelity_rejected_count
        if part.makespan_layers > merged.makespan_layers:
            merged.makespan_layers = part.makespan_layers
        merged._global.merge(part._global)
        merged._latency_sketch.merge(part._latency_sketch)
        for tenant, group in part._tenants.items():
            merged._tenant(tenant).merge(group)
            merged._tenant_sketches[tenant].merge(part._tenant_sketches[tenant])
        for shard, shard_group in part._shards.items():
            merged._shards.setdefault(shard, _GroupAggregate()).merge(shard_group)
        for name, backend_group in part._backends.items():
            merged._backends.setdefault(name, _GroupAggregate()).merge(
                backend_group
            )
    return merged

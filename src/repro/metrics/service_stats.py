"""Per-tenant / per-shard / per-backend serving statistics.

The serving subsystem (:mod:`repro.service`) records one
:class:`ServedQuery` per completed request and one :class:`WindowRecord`
per executed pipeline window; this module aggregates them into the
latency / queue-depth / utilization / bandwidth summaries that a shared
memory serving many callers is judged by.  Since the service can drive a
heterogeneous fleet (per-shard architecture choice via
:mod:`repro.backends`), every record carries its backend's architecture
label and the summary reports per-architecture aggregates alongside the
per-tenant and per-shard ones.

All times are raw circuit layers on the service clock.  Conversions to
wall-clock treat one raw layer as one full CSWAP layer at the hardware
CLOPS — a conservative clock, since fast layers (1/8 cost) are counted
at full weight.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ServedQuery:
    """One completed request, as recorded by the serving loop.

    Attributes:
        query_id: identifier of the originating request.
        tenant: requesting tenant (QPU / algorithm id).
        shard: shard that served the query.
        request_time: arrival time (raw layers).
        admit_layer: when the query's pipeline window was admitted.
        start_layer: first raw layer of the query inside its window.
        finish_layer: raw layer at which the query completed.
        fidelity: quality of the slot's output register — the measured
            ``|<ideal|actual>|^2`` on a functional run, the backend's
            analytic prediction on a timing-only run (``None`` only for
            hand-built records); when the engine spent distillation copies
            on the query, the distilled suppression is already applied.
        architecture: architecture name of the serving backend.
        deadline: absolute raw layer the request had to finish by
            (``None`` for best-effort requests).
        predicted_fidelity: the backend's analytic per-slot fidelity
            prediction, after any virtual-distillation boost the engine
            granted; drives the fidelity-SLO accounting.
        min_fidelity: the request's fidelity SLO (``None`` best-effort).
        distillation_copies: parallel copies the engine spent on the query
            (1 = no distillation).
    """

    query_id: int
    tenant: int
    shard: int
    request_time: float
    admit_layer: float
    start_layer: float
    finish_layer: float
    fidelity: float | None = None
    architecture: str = ""
    deadline: float | None = None
    predicted_fidelity: float | None = None
    min_fidelity: float | None = None
    distillation_copies: int = 1

    @classmethod
    def _from_fields(cls, **fields: object) -> ServedQuery:
        """Allocation-lean constructor for the serving hot path.

        A frozen dataclass pays one guarded ``object.__setattr__`` per
        field in ``__init__``; populating the instance dict directly cuts
        the per-record cost to a fraction (pinned faster-path-equal in
        tests).  Callers must pass **every** field — no defaults are
        applied — and get back an instance indistinguishable from the
        normal constructor's (same equality, hash, pickle, ``asdict``).
        """
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record

    @property
    def latency_layers(self) -> float:
        """Request-to-finish latency (queueing + service), raw layers."""
        return self.finish_layer - self.request_time


#: Reason codes carried by :class:`RejectedQuery` records.
REJECT_QUEUE_FULL = "queue-full"
REJECT_DEADLINE_EXPIRED = "deadline-expired"
REJECT_FIDELITY = "fidelity-infeasible"


@dataclass(frozen=True)
class RejectedQuery:
    """One request the serving engine refused to serve.

    Attributes:
        query_id: identifier of the rejected request.
        tenant: requesting tenant (QPU / algorithm id).
        shard: shard whose queue the request was headed for.
        time: raw layer at which the rejection happened.
        reason: :data:`REJECT_QUEUE_FULL` (backpressure: the bounded queue
            was full at arrival), :data:`REJECT_DEADLINE_EXPIRED` (the
            request was shed from the queue after its deadline passed) or
            :data:`REJECT_FIDELITY` (no admissible placement could meet
            the request's ``min_fidelity``, even with distillation).
        deadline: the request's deadline, if it carried one.
        min_fidelity: the request's fidelity SLO, if it carried one.
    """

    query_id: int
    tenant: int
    shard: int
    time: float
    reason: str
    deadline: float | None = None
    min_fidelity: float | None = None


@dataclass(frozen=True)
class WindowRecord:
    """One executed pipeline window on one shard.

    Attributes:
        shard: shard the window ran on.
        admit_layer: when the window started.
        batch_size: queries admitted into the window.
        interval: admission interval used inside the window (raw layers;
            0 for architectures that admit a window concurrently).
        total_layers: raw layers until the window fully drained.
        architecture: architecture name of the serving backend.
    """

    shard: int
    admit_layer: float
    batch_size: int
    interval: int
    total_layers: float
    architecture: str = ""

    @classmethod
    def _from_fields(cls, **fields: object) -> WindowRecord:
        """Allocation-lean constructor (see :meth:`ServedQuery._from_fields`);
        callers must pass every field."""
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record


@dataclass(frozen=True)
class TenantStats:
    """Serving quality observed by one tenant.

    ``deadline_miss_rate`` is computed over the tenant's SLO-carrying
    demand: served queries that had a deadline plus requests shed for an
    expired deadline (queue-full rejections are reported separately and do
    not count as misses).  ``fidelity_slo_miss_rate`` is the analogue for
    fidelity SLOs: served queries carrying ``min_fidelity`` whose predicted
    fidelity fell short, plus requests rejected as fidelity-infeasible (a
    refused request is a guaranteed miss).  ``mean_fidelity`` /
    ``min_fidelity`` summarize the non-``None`` fidelities of the tenant's
    served queries and are ``None`` when every record was fidelity-less
    (hand-built timing-only records).
    """

    tenant: int
    queries: int
    mean_latency_layers: float
    max_latency_layers: float
    mean_queue_delay_layers: float
    throughput_queries_per_sec: float
    p95_latency_layers: float = 0.0
    deadline_misses: int = 0
    deadline_miss_rate: float = 0.0
    mean_fidelity: float | None = None
    min_fidelity: float | None = None
    fidelity_slo_misses: int = 0
    fidelity_slo_miss_rate: float = 0.0


@dataclass(frozen=True)
class ShardStats:
    """Load placed on one shard.

    ``mean_fidelity`` / ``min_fidelity`` / ``fidelity_slo_misses`` cover
    the queries the shard actually served (refusals are accounted at the
    tenant and service level).
    """

    shard: int
    queries: int
    windows: int
    mean_batch_size: float
    busy_layers: float
    utilization: float
    max_queue_depth: int
    architecture: str = ""
    mean_fidelity: float | None = None
    min_fidelity: float | None = None
    fidelity_slo_misses: int = 0


@dataclass(frozen=True)
class BackendStats:
    """Aggregate load and serving quality of one backend architecture.

    In a heterogeneous fleet this is the cross-architecture comparison:
    how many queries each architecture absorbed, at what latency and what
    quality-of-result, and how long its shards stayed busy — with encoded
    replicas (``"Fat-Tree@d3"``) reported under their own label, this is
    where the bare-vs-encoded fidelity gap shows up.
    """

    architecture: str
    shards: int
    queries: int
    windows: int
    mean_batch_size: float
    mean_latency_layers: float
    mean_queue_delay_layers: float
    busy_layers: float
    throughput_queries_per_sec: float
    mean_fidelity: float | None = None
    min_fidelity: float | None = None
    fidelity_slo_misses: int = 0


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate serving report.

    Attributes:
        total_queries: queries served.
        makespan_layers: raw layers from time 0 to the last completion.
        mean_latency_layers: mean request-to-finish latency.
        mean_queue_delay_layers: mean admission delay.
        bandwidth_queries_per_sec: served queries per second at the given
            CLOPS (raw layers counted as full layers).
        per_tenant: per-tenant summaries, keyed by tenant id.
        per_shard: per-shard summaries, keyed by shard index.
        per_backend: per-architecture summaries, keyed by architecture
            name (one entry per distinct backend label).
        p50_latency_layers / p95_latency_layers / p99_latency_layers:
            latency percentiles over all served queries — exact (linear
            interpolation between order statistics) when the records are
            retained, within 1% relative of an order statistic when
            sketched by a streaming run.
        offered_queries: total requests offered to the service (served plus
            rejected plus shed).
        rejected_queries: requests refused at arrival (bounded queue full
            or fidelity-infeasible); always ``len(rejected) - shed_queries``
            and therefore never negative.
        shed_queries: requests dropped from a queue after their deadline
            expired.
        fidelity_rejected_queries: the fidelity-infeasible subset of
            ``rejected_queries``.
        deadline_misses: served queries that finished past their deadline,
            plus shed requests (a shed request is a guaranteed miss).
        deadline_miss_rate: ``deadline_misses`` over the SLO-carrying
            demand (served-with-deadline + shed); 0.0 when no request
            carried a deadline.
        mean_fidelity / min_fidelity: mean and worst fidelity over the
            served queries that carried one (``None`` when none did).
        fidelity_slo_misses: served queries whose predicted fidelity fell
            short of their ``min_fidelity``, plus fidelity-infeasible
            rejections (a refused request is a guaranteed miss).
        fidelity_slo_miss_rate: ``fidelity_slo_misses`` over the
            fidelity-SLO-carrying demand; 0.0 when no request carried one.
    """

    total_queries: int
    makespan_layers: float
    mean_latency_layers: float
    mean_queue_delay_layers: float
    bandwidth_queries_per_sec: float
    per_tenant: dict[int, TenantStats] = field(default_factory=dict)
    per_shard: dict[int, ShardStats] = field(default_factory=dict)
    per_backend: dict[str, BackendStats] = field(default_factory=dict)
    p50_latency_layers: float = 0.0
    p95_latency_layers: float = 0.0
    p99_latency_layers: float = 0.0
    offered_queries: int = 0
    rejected_queries: int = 0
    shed_queries: int = 0
    fidelity_rejected_queries: int = 0
    deadline_misses: int = 0
    deadline_miss_rate: float = 0.0
    mean_fidelity: float | None = None
    min_fidelity: float | None = None
    fidelity_slo_misses: int = 0
    fidelity_slo_miss_rate: float = 0.0


def summarize_service(
    served: Sequence[ServedQuery],
    windows: Sequence[WindowRecord],
    max_queue_depth: dict[int, int] | None = None,
    clops: float = 1.0e6,
    rejected: Sequence[RejectedQuery] = (),
) -> ServiceStats:
    """Aggregate served-query and window records into a :class:`ServiceStats`.

    The records are folded, each stream in its given order, through the
    same :class:`~repro.metrics.streaming.StreamingServiceAggregator` the
    engine maintains online, so both retention paths share one set of
    accounting rules; because the records are retained, the sketched
    latency percentiles are then replaced by exact order statistics.

    Args:
        served: one record per completed query.
        windows: one record per executed pipeline window.
        max_queue_depth: deepest per-shard queue observed by the serving
            loop (defaults to 0 for every shard).
        clops: hardware clock in full circuit layers per second.
        rejected: requests the engine refused (backpressure or expired
            deadlines), folded into the offered / shed / miss accounting.
    """
    # Deferred: the streaming module builds on this module's record types.
    from repro.metrics.streaming import StreamingServiceAggregator

    stats = StreamingServiceAggregator._folded(
        served, windows, rejected
    ).to_stats(max_queue_depth, clops=clops)
    by_tenant: dict[int, list[float]] = {}
    for record in served:
        by_tenant.setdefault(record.tenant, []).append(record.latency_layers)
    latencies = [record.latency_layers for record in served]
    return replace(
        stats,
        per_tenant={
            tenant: replace(
                row, p95_latency_layers=_percentile(by_tenant.get(tenant, []), 95)
            )
            for tenant, row in stats.per_tenant.items()
        },
        p50_latency_layers=_percentile(latencies, 50),
        p95_latency_layers=_percentile(latencies, 95),
        p99_latency_layers=_percentile(latencies, 99),
    )


def _percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] * (high - rank) + ordered[high] * (rank - low)

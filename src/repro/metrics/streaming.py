"""Online (single-pass, bounded-memory) serving statistics.

Every serving statistic is computed here.  The engine hands each record
to the aggregator as it is produced, under ``retention="none"``; under
full retention :func:`repro.metrics.service_stats.summarize_service`
feeds the retained records through the same aggregator and swaps in exact
percentiles.  Served and window records are folded in 1024-row blocks:
each observation appends the record's scalars to an open block, and a
full block, like every read of the statistics, is folded in array
operations whose results equal, bit for bit, adding the records one at a
time in observe order.  Every read is therefore exact.

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
million-query run aggregates through the same few kilobytes (plus one
open block) as a hundred-query run.  Counts, sums and extrema are exact;
only the latency percentiles are sketched.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

import numpy as np

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

#: Records per observation block: observers append a record's scalars,
#: and a full block (or any read) folds them in array operations.
_BLOCK_ROWS = 1024

#: A sketch key whose ``log(v) / log γ`` lies within this relative
#: distance (absolute below 1) of an integer is recomputed with
#: :func:`math.log`.  ``np.log`` may differ from it in the last bit, which
#: moves the ``ceil`` only at a bucket boundary.
_KEY_TOLERANCE = 1e-9

#: The scalars a block keeps of one :class:`ServedQuery` / :class:`WindowRecord`.
_SERVED_COLUMNS = operator.attrgetter(
    "tenant",
    "shard",
    "architecture",
    "request_time",
    "admit_layer",
    "finish_layer",
    "fidelity",
    "deadline",
    "min_fidelity",
    "predicted_fidelity",
)
_WINDOW_COLUMNS = operator.attrgetter(
    "shard", "architecture", "batch_size", "total_layers"
)


def _sequential_sum(totals: list[float], values: np.ndarray) -> list[float]:
    """Each running total plus its column's values in order.

    Bit-identical to ``+=`` per value: ``add.accumulate`` adds down each
    column one row at a time, never pairwise.
    """
    return np.add.accumulate(np.concatenate(([totals], values)))[-1].tolist()


def _floats(column: tuple[float | None, ...]) -> np.ndarray:
    """A column as float64, ``None`` read as NaN."""
    return np.fromiter(column, dtype=float, count=len(column))


def _codes(column: tuple[Hashable, ...]) -> tuple[list, np.ndarray]:
    """The sorted distinct keys of a column, and each row's index into them."""
    keys = sorted(set(column))
    if len(keys) == 1:
        return keys, np.zeros(len(column), dtype=np.intp)
    index = dict(zip(keys, range(len(keys))))
    codes = np.fromiter(
        map(index.__getitem__, column), dtype=np.intp, count=len(column)
    )
    return keys, codes


def _bucket_keys(latencies: np.ndarray) -> np.ndarray:
    """:class:`LogBucketSketch` keys of positive values, equal to
    ``math.ceil(math.log(v) / _LOG_GAMMA)`` for every value."""
    ratios = np.log(latencies) / _LOG_GAMMA
    keys = np.ceil(ratios).astype(np.int64)
    near = np.flatnonzero(
        np.abs(ratios - np.rint(ratios))
        <= _KEY_TOLERANCE * np.maximum(1.0, np.abs(ratios))
    )
    # Only values next to a bucket boundary take the scalar logarithm:
    # none of poisson-stream's 60,000 latencies at seed 1, 6 of which get
    # a different last bit from ``np.log``.
    exact = np.fromiter(
        map(math.log, latencies[near].tolist()), dtype=float, count=len(near)
    )
    keys[near] = np.ceil(exact / _LOG_GAMMA)
    return keys


class StreamingStat:
    """Count / sum / mean / min / max of one series, in O(1) memory."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def add(self, value: float) -> None:
        """Add one value (the per-record reference :meth:`fold` equals)."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def fold(self, count: int, total: float, low: float, high: float) -> None:
        """Account for ``count`` more values with extrema ``low`` / ``high``;
        ``total`` is this series' total after adding them one by one."""
        if not count:
            return
        self.count += count
        self.total = total
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high

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
        """Add one value (the per-record reference :meth:`fold` equals)."""
        self.count += 1
        if value > 0.0:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            buckets = self.buckets
            buckets[key] = buckets.get(key, 0) + 1
        else:
            self.zero_count += 1

    def fold(self, keys: np.ndarray, zeros: int) -> None:
        """Add a block: the bucket keys of its positive values (see
        :func:`_bucket_keys`) and the count of its non-positive ones."""
        self.count += len(keys) + zeros
        self.zero_count += zeros
        if not len(keys):
            return
        low = int(keys.min())
        counts = np.bincount(keys - low)
        present = np.flatnonzero(counts)
        buckets = self.buckets
        for key, count in zip((present + low).tolist(), counts[present].tolist()):
            buckets[key] = buckets.get(key, 0) + count

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


@dataclass(slots=True)
class _ServedBlock:
    """One block of served records as columns, one row per record.

    ``values`` holds each record's latency, queue delay and fidelity (NaN
    when it has none), and ``summands`` the same with 0.0 for NaN: adding
    +0.0 leaves a running total unchanged, so a record without a fidelity
    adds nothing to the fidelity total.  ``flags`` holds, as 0/1, whether
    the record has a fidelity, has a deadline, missed it, has a fidelity
    SLO, and missed that.
    """

    values: np.ndarray
    summands: np.ndarray
    flags: np.ndarray

    def fold_into(self, groups: list[_GroupAggregate], codes: np.ndarray) -> None:
        """Fold row ``r`` into ``groups[codes[r]]``, each group's rows in
        order; every group owns at least one row."""
        order = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=len(groups))
        stops = np.cumsum(counts)
        starts = stops - counts
        values = self.values[order]
        summands = self.summands[order]
        lows = np.fmin.reduceat(values, starts).tolist()
        highs = np.fmax.reduceat(values, starts).tolist()
        tallies = np.add.reduceat(self.flags[order], starts)
        for group, start, stop, low, high, tally in zip(
            groups, starts.tolist(), stops.tolist(), lows, highs, tallies.tolist()
        ):
            fidelities, deadlines, deadline_misses, slos, slo_misses = tally
            queries = stop - start
            series = (group.latency, group.queue_delay, group.fidelity)
            totals = _sequential_sum(
                [stat.total for stat in series], summands[start:stop]
            )
            for stat, count, total, lo, hi in zip(
                series, (queries, queries, fidelities), totals, low, high
            ):
                stat.fold(count, total, lo, hi)
            group.queries += queries
            group.deadline_demand += deadlines
            group.deadline_misses += deadline_misses
            group.slo_demand += slos
            group.slo_misses += slo_misses


class StreamingServiceAggregator:
    """The full :class:`ServiceStats` surface, maintained in 1024-row blocks.

    The engine feeds every :class:`ServedQuery`, :class:`WindowRecord` and
    :class:`RejectedQuery` through :meth:`observe_served` /
    :meth:`observe_window` / :meth:`observe_rejected`, one call per
    record.  A served or window record appends its scalars (never the
    record) to an open block; a full block, and every read (:meth:`to_stats`,
    :func:`merge_service_aggregators`, pickling), folds the open blocks in
    array operations, so every read is exact and equal, bit for bit, to
    folding the records one at a time in observe order.  ``served_count``
    and the rejection counters are current after every call.
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
        self._served_rows: list[tuple] = []
        self._window_rows: list[tuple] = []

    # ------------------------------------------------------------- observers
    def _tenant(self, tenant: int) -> _GroupAggregate:
        group = self._tenants.get(tenant)
        if group is None:
            group = self._tenants[tenant] = _GroupAggregate()
            self._tenant_sketches[tenant] = LogBucketSketch()
        return group

    def observe_served(self, record: ServedQuery) -> None:
        # The engine's `sketch_update` profile stage times this call: one
        # row appended per record, the arithmetic once per block.
        self.served_count += 1
        rows = self._served_rows
        rows.append(_SERVED_COLUMNS(record))
        if len(rows) == _BLOCK_ROWS:
            self._fold_served()

    def observe_window(self, record: WindowRecord) -> None:
        rows = self._window_rows
        rows.append(_WINDOW_COLUMNS(record))
        if len(rows) == _BLOCK_ROWS:
            self._fold_windows()

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
        aggregator._fold()
        return aggregator

    # --------------------------------------------------------------- folding
    def _fold(self) -> None:
        """Fold the open blocks; every read of the accumulators calls this."""
        self._fold_served()
        self._fold_windows()

    def _fold_served(self) -> None:
        if not self._served_rows:
            return
        (
            tenants,
            shards,
            architectures,
            request_time,
            admit_layer,
            finish_layer,
            fidelity,
            deadline,
            min_fidelity,
            predicted_fidelity,
        ) = zip(*self._served_rows)
        self._served_rows = []
        request_time = _floats(request_time)
        finish_layer = _floats(finish_layer)
        fidelity = _floats(fidelity)
        deadline = _floats(deadline)
        min_fidelity = _floats(min_fidelity)
        # The SLO is judged on the predicted fidelity, else the measured
        # one; every comparison with NaN (``None``) is false.
        achieved = _floats(predicted_fidelity)
        np.copyto(achieved, fidelity, where=np.isnan(achieved))
        latency = finish_layer - request_time
        rows = len(latency)
        values = np.empty((rows, 3))
        values[:, 0] = latency
        values[:, 1] = _floats(admit_layer) - request_time
        values[:, 2] = fidelity
        has_fidelity = ~np.isnan(fidelity)
        summands = values.copy()
        summands[:, 2] = np.where(has_fidelity, fidelity, 0.0)
        flags = np.empty((rows, 5), dtype=np.int64)
        flags[:, 0] = has_fidelity
        flags[:, 1] = ~np.isnan(deadline)
        flags[:, 2] = finish_layer > deadline
        flags[:, 3] = ~np.isnan(min_fidelity)
        flags[:, 4] = achieved < min_fidelity
        block = _ServedBlock(values, summands, flags)
        last = float(finish_layer.max())
        if last > self.makespan_layers:
            self.makespan_layers = last

        tenant_keys, tenant_codes = _codes(tenants)
        shard_keys, shard_codes = _codes(shards)
        backend_keys, backend_codes = _codes(architectures)
        tenant_groups = [self._tenant(tenant) for tenant in tenant_keys]
        shard_groups = [
            self._shards.setdefault(shard, _GroupAggregate()) for shard in shard_keys
        ]
        backend_groups = [
            self._backends.setdefault(name, _GroupAggregate())
            for name in backend_keys
        ]
        for shard, group in zip(shard_keys, shard_groups):
            if not group.architecture:
                # A shard reports the architecture of its first record.
                group.architecture = architectures[shards.index(shard)]
        pairs = np.bincount(shard_codes * len(backend_keys) + backend_codes)
        for pair in np.flatnonzero(pairs).tolist():
            shard_code, backend_code = divmod(pair, len(backend_keys))
            backend_groups[backend_code].shard_ids.add(shard_keys[shard_code])

        block.fold_into([self._global], np.zeros(rows, dtype=np.intp))
        block.fold_into(tenant_groups, tenant_codes)
        block.fold_into(shard_groups, shard_codes)
        block.fold_into(backend_groups, backend_codes)

        positive = latency > 0.0
        keys = _bucket_keys(latency[positive])
        self._latency_sketch.fold(keys, rows - len(keys))
        key_codes = tenant_codes[positive]
        zeros = np.bincount(
            tenant_codes[~positive], minlength=len(tenant_keys)
        ).tolist()
        for code, tenant in enumerate(tenant_keys):
            self._tenant_sketches[tenant].fold(
                keys[key_codes == code], zeros[code]
            )

    def _fold_windows(self) -> None:
        if not self._window_rows:
            return
        shards, architectures, batch_size, total_layers = zip(*self._window_rows)
        self._window_rows = []
        batch_size = np.array(batch_size, dtype=np.int64)
        total_layers = _floats(total_layers)
        for table, column in (
            (self._shards, shards),
            (self._backends, architectures),
        ):
            keys, codes = _codes(column)
            windows = np.bincount(codes, minlength=len(keys)).tolist()
            for code, key in enumerate(keys):
                group = table.setdefault(key, _GroupAggregate())
                rows = codes == code
                group.windows += windows[code]
                group.batch_total += int(batch_size[rows].sum())
                (group.busy_layers,) = _sequential_sum(
                    [group.busy_layers], total_layers[rows][:, None]
                )

    def __getstate__(self) -> dict:
        # A worker's aggregator crosses the process boundary folded.
        self._fold()
        return self.__dict__

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
        self._fold()
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
    aggregator.  Each part's open blocks are folded first.  ``parts``
    must be passed in shard order — the float-summation order of the means
    is then fixed by the partition layout, making the merged statistics
    bit-identical across worker counts.
    """
    if not parts:
        raise ValueError("at least one partition aggregator is required")
    merged = StreamingServiceAggregator()
    for part in parts:
        part._fold()
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

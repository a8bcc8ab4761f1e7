"""The discrete-event serving engine: one virtual clock for every scenario.

:class:`ServiceEngine` drives a fleet of QRAM backends (any object with the
:class:`repro.service.QRAMService` surface — shards, shard map, admission
policy, window sizes) through a heap of typed events
(:mod:`repro.engine.events`).  Time advances only here: arrivals enqueue,
idle shards admit pipeline windows, and draining windows free their shard,
on one fixed fleet.  New serving scenarios are new event types or new
:class:`~repro.engine.workload.WorkloadSource` implementations — never a
new hand-rolled loop.

On top of the bare event loop the engine adds the serving disciplines a
shared memory under live contention needs:

* **closed-loop clients** — a :class:`~repro.engine.workload.ClosedLoopSource`
  issues each client's next request only after its previous completion
  (think-time feedback), while
  :class:`~repro.engine.workload.StreamingTraceSource` pulls a lazy
  open-loop trace one arrival at a time (a
  :class:`~repro.engine.workload.TraceSource` sorts a materialized trace,
  then streams it the same way);
* **SLO-aware admission** — per-request deadlines (EDF ordering via
  ``policy="edf"``), bounded per-shard queues that reject on overflow, and
  optional shedding of queued requests whose deadline already expired, all
  surfaced in :class:`repro.metrics.service_stats.ServiceStats`;
* **fidelity-aware admission** — per-request ``min_fidelity`` targets
  checked against every backend's *predicted* slot fidelity
  (:mod:`repro.backends.noise`): replicated placement prefers a shard that
  can meet the target (an encoded replica in a mixed fleet), infeasible
  requests are refused with :data:`REJECT_FIDELITY`, an optional
  virtual-distillation retry spends up to ``max_distillation_copies``
  parallel copies (Sec. 8.2) to lift a shard over the target with the
  copies' layer cost charged to the window, and batches are capped so
  pipelining-depth degradation never drags an admitted slot below its SLO
  (predictions are memoized per ``(shard, occupancy)`` — the hot path
  never re-derives them);
* **streaming telemetry** — every served / rejected / window record
  flows through a :class:`~repro.metrics.sinks.RecordSink` chosen
  by the engine's ``retention`` mode *and* the online
  :class:`~repro.metrics.streaming.StreamingServiceAggregator`, so
  ``retention="none"`` serves million-query workloads in memory
  independent of request count while still reporting full
  :class:`~repro.metrics.service_stats.ServiceStats`; a periodic
  :class:`TelemetryTick` emits time-windowed
  :class:`~repro.metrics.streaming.IntervalStats` (throughput, queue
  depths, rejection rates, fidelity) so long runs expose a time series.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from typing import Any, NamedTuple

from repro.core.query import ANY_SHARD, QueryRequest
from repro.engine.events import (
    ClientThink,
    EventHeap,
    SanitizerViolation,
    TelemetryTick,
    WindowDrain,
    WindowStart,
    check_nondecreasing,
)
from repro.engine.partition import ParallelRunInfo, partition_unsupported_reason
from repro.engine.workload import WorkloadSource, check_arrival
from repro.fidelity.distillation import distilled_infidelity
from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    REJECT_QUEUE_FULL,
    RejectedQuery,
    ServedQuery,
    ServiceStats,
    WindowRecord,
    summarize_service,
)
from repro.metrics.sinks import ListSink, NullSink, RecordSink
from repro.metrics.streaming import (
    IntervalStats,
    StreamingServiceAggregator,
    merge_service_aggregators,
)
from repro.perf.profiler import (
    PROFILE_ENV,
    UNATTRIBUTED,
    HotPathProfiler,
    StageProfile,
)

#: Retention modes for the engine's per-request records.
RETENTIONS = ("full", "none")

#: Environment switch for sanitizer mode (CI runs the whole suite with it).
SANITIZE_ENV = "REPRO_SANITIZE"

#: Environment default for partitioned parallel serving.  Applied only to
#: runs whose parallel output is provably identical to the single-process
#: oracle (full retention, no external sink, and a partitionable
#: fleet/source); everything else falls back silently.  An explicit
#: ``ServiceEngine(workers=...)`` always wins over the variable.
WORKERS_ENV = "REPRO_WORKERS"


def _env_flag(name: str) -> bool:
    """Default on/off setting from a ``REPRO_*`` switch variable
    (``REPRO_SANITIZE``, ``REPRO_PROFILE``): on for 1/true/yes/on."""
    return os.environ.get(name, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _env_workers() -> int | None:
    """Default worker count from the ``REPRO_WORKERS`` variable: unset,
    empty or ``0`` means single-process; anything but a non-negative
    integer is an error, never a silent fallback."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return None
    error = ValueError(f"{WORKERS_ENV} must be a worker count >= 0, got {raw!r}")
    try:
        value = int(raw)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value or None


def _distilled(fidelity: float, copies: int) -> float:
    """Predicted fidelity after virtual distillation with ``copies`` copies
    (identity at 1 copy; the paper's leading-order ``eps^k`` suppression).

    Measured functional fidelities are state overlaps — mathematically in
    [0, 1] but computed with floats, so a perfect slot can come back as
    ``1.0 + O(eps)``.  Clamp the implied infidelity into range rather than
    letting :func:`distilled_infidelity` reject the rounding artifact.
    """
    if copies <= 1:
        return fidelity
    infidelity = min(1.0, max(0.0, 1.0 - fidelity))
    return 1.0 - distilled_infidelity(infidelity, copies)


class _SeenIds:
    """Exact duplicate detection that stays O(1) for monotone id streams.

    The engine must refuse duplicate query ids, but a plain ``set`` grows
    with the request count — the one bookkeeping structure that would
    break bounded-memory serving.  Generators assign ids ``0, 1, 2, ...``
    in arrival order, so this tracker keeps a *contiguous-prefix
    watermark* (every id in ``[0, watermark]`` seen) plus a sparse
    overflow set that drains back into the watermark as gaps fill.  For
    the monotone streams every trace and closed-loop source produces, the
    overflow set stays empty; arbitrary (sparse or out-of-order) ids
    remain correct and merely fall back to set behaviour.
    """

    __slots__ = ("_watermark", "_sparse")

    def __init__(self) -> None:
        self._watermark = -1
        self._sparse: set[int] = set()

    def add(self, query_id: int) -> bool:
        """Record one id; True when it was already seen."""
        if 0 <= query_id <= self._watermark or query_id in self._sparse:
            return True
        self._sparse.add(query_id)
        while self._watermark + 1 in self._sparse:
            self._watermark += 1
            self._sparse.discard(self._watermark)
        return False


class RawInterval(NamedTuple):
    """One telemetry interval's raw totals, as a drain records them (unlike
    :class:`IntervalStats`, whose mean fidelity lost its count, raw totals
    of several shards recombine exactly)."""

    start: float
    end: float
    arrivals: int
    served: int
    rejected: int
    shed: int
    windows: int
    depth_total: int
    depth_max: int
    fidelity_total: float
    fidelity_count: int


def _interval_stats(rows: Iterable[RawInterval]) -> list[IntervalStats]:
    """The telemetry time series of one run's raw interval rows.

    Every drain flushes on the same ``i * interval`` grid (plus one final
    partial interval), so rows group exactly by ``start``: one row per
    interval from the oracle, one per shard from a partitioned run.
    Counters sum, the deepest queue is the max, and rates derive from the
    sums; fidelity partials combine with an exactly-rounded ``fsum``, so
    both paths give byte-equal intervals.
    """
    groups: dict[float, list[RawInterval]] = {}
    for row in rows:
        groups.setdefault(row.start, []).append(row)
    intervals = []
    for start in sorted(groups):
        group = groups[start]
        end = max(row.end for row in group)
        span = end - start
        served = sum(row.served for row in group)
        rejected = sum(row.rejected for row in group)
        fidelity_count = sum(row.fidelity_count for row in group)
        intervals.append(
            IntervalStats(
                start_layer=start,
                end_layer=end,
                arrivals=sum(row.arrivals for row in group),
                served=served,
                rejected=rejected,
                shed=sum(row.shed for row in group),
                windows=sum(row.windows for row in group),
                throughput_queries_per_layer=served / span if span > 0 else 0.0,
                queue_depth_total=sum(row.depth_total for row in group),
                queue_depth_max=max(row.depth_max for row in group),
                # Rate over the interval's *dispositions* (completions +
                # refusals), which are all counted at the instant they
                # happen — dividing by arrivals would be incoherent when a
                # request sheds intervals after it arrived (rates over 1,
                # or 0.0 despite sheds).
                rejection_rate=(
                    rejected / (served + rejected) if served + rejected else 0.0
                ),
                mean_fidelity=(
                    math.fsum(row.fidelity_total for row in group)
                    / fidelity_count
                    if fidelity_count
                    else None
                ),
            )
        )
    return intervals


@dataclass
class RunOutcome:
    """What one drained engine observed, for :meth:`ServiceEngine._finalize`.

    The single-process oracle yields one outcome spanning every shard; a
    partitioned run yields one per served shard, shipped back from its
    worker.  Record lists are the retained ones, in event order (empty
    under ``retention="none"``); ``offered`` counts validated arrivals,
    ``max_depth`` the deepest queue per shard.
    """

    offered: int
    served: list[ServedQuery]
    windows: list[WindowRecord]
    rejected: list[RejectedQuery]
    outputs: dict[int, dict[tuple[int, int], complex]]
    max_depth: dict[int, int]
    aggregator: StreamingServiceAggregator
    telemetry: list[RawInterval]
    profile: StageProfile | None


@dataclass
class ServiceReport:
    """Everything the engine observed while serving one workload.

    Built in one place, :meth:`ServiceEngine._finalize`, from the oracle's
    single :class:`RunOutcome` or a partitioned run's per-shard ones.

    Attributes:
        served: completed-query records, in completion order (by
            ``(finish_layer, query_id)``) — every one under
            ``retention="full"``, empty under ``"none"`` (``stats`` always
            covers the whole run).
        windows: executed pipeline windows, by ``(admit_layer, shard)``
            (retained per the same mode).
        stats: aggregated per-tenant / per-shard / per-backend statistics —
            the retained records' summary (exact percentiles) under full
            retention, the streaming aggregates (exact counts and means,
            sketched percentiles) otherwise.
        outputs: per-query output amplitudes over global ``(address, bus)``
            pairs (populated only on functional runs under full retention).
        rejected: requests refused by backpressure or shed past deadline,
            by ``(time, query_id)`` (retained per the retention mode).
        telemetry: time-windowed interval samples, one per
            :class:`~repro.engine.events.TelemetryTick` (empty unless the
            engine was given a ``telemetry_interval``).
        retention: the retention mode the run used.
        parallel: how the run was parallelized (or why it was not) when
            partitioned serving was requested; ``None`` on a plain
            single-process run.  Excluded from equality — the whole point
            of the parallel path is that reports compare equal across
            worker counts.
        profile: the hot-path stage-time table
            (:class:`~repro.perf.profiler.StageProfile`) when the engine
            ran with ``profile=True`` / ``REPRO_PROFILE=1`` (summed over
            a partitioned run's workers); ``None`` otherwise.  Excluded
            from equality like ``parallel`` — profiling is observational
            and must never make two otherwise identical reports differ.
    """

    served: list[ServedQuery]
    windows: list[WindowRecord]
    stats: ServiceStats
    outputs: dict[int, dict[tuple[int, int], complex]] = field(default_factory=dict)
    rejected: list[RejectedQuery] = field(default_factory=list)
    telemetry: list[IntervalStats] = field(default_factory=list)
    retention: str = "full"
    parallel: ParallelRunInfo | None = field(
        default=None, repr=False, compare=False
    )
    profile: StageProfile | None = field(default=None, repr=False, compare=False)
    _result_index: dict[int, ServedQuery] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def result_for(self, query_id: int) -> ServedQuery:
        """The served record of one query id (O(1) after the first call).

        Only retained records are indexed: under ``retention="none"`` a
        completed query raises ``KeyError`` here even though it is counted
        in ``stats``.
        """
        if self._result_index is None:
            self._result_index = {r.query_id: r for r in self.served}
        try:
            return self._result_index[query_id]
        except KeyError:
            raise KeyError(query_id) from None


class ServiceEngine:
    """Discrete-event simulation of a QRAM backend fleet serving traffic.

    The fleet is fixed for the whole run, as in the paper: every shard
    built with it serves from the first event to the last.

    Args:
        fleet: the fleet to drive — typically a
            :class:`repro.service.QRAMService`; any object exposing
            ``shards``, ``shard_map``, ``policy``, ``window_sizes``,
            ``functional`` and ``placement`` works.
        max_queue_depth: bound on every per-shard queue; arrivals that find
            their queue full are rejected (backpressure).  ``None``
            disables the bound.
        shed_expired: when True, queued requests that can no longer finish
            by their deadline (``deadline <= now`` — any execution takes at
            least one layer) are shed (never executed) at the next window
            admission on their shard.
        max_distillation_copies: most parallel copies the engine may spend
            per query on virtual distillation (Sec. 8.2) to reach the
            query's ``min_fidelity``; each extra copy consumes one window
            slot and one admission interval of backend time.  1 disables
            the retry.
        retention: what happens to the per-request records —
            ``"full"`` keeps every record and reproduces the historical
            batch :class:`ServiceStats` byte for byte; ``"none"`` keeps
            no records at all and reports the streaming aggregates,
            serving any request count in bounded memory.
        telemetry_interval: when set, emit one
            :class:`~repro.metrics.streaming.IntervalStats` every this
            many raw layers (the report's ``telemetry`` time series).
        sink: optional extra :class:`~repro.metrics.sinks.RecordSink` that
            receives *every* served / rejected / window record
            regardless of retention — e.g. a
            :class:`~repro.metrics.sinks.JsonlSink` for durable full
            telemetry next to a bounded-memory run.
        workers: partitioned parallel serving.  ``N >= 1`` partitions the
            fleet per shard, serves the partitions in up to ``N`` forked
            worker processes and merges the events back deterministically
            — the report is bit-identical to ``workers=1``, and on the
            configurations :mod:`repro.engine.partition` can prove
            independent, identical to the single-process oracle.
            Unpartitionable runs (replicated placement, closed-loop
            sources, shared-RNG policies, external sinks)
            fall back to the oracle with the reason recorded on
            ``report.parallel``.  ``0`` forces the single-process oracle;
            ``None`` (default) reads the ``REPRO_WORKERS`` environment
            variable (a non-integer value is an error), which only ever
            parallelizes provably oracle-identical configurations (full
            retention, no external sink).
        sanitize: runtime invariant checking.  When True every run asserts
            clock monotonicity, nondecreasing heap-key order, that windows
            only start on idle shards, and the conservation invariant
            ``offered == served + rejected + queued`` at every window
            drain (queues empty at end of run); violations raise
            :class:`~repro.engine.events.SanitizerViolation`.  ``None``
            (the default) reads the ``REPRO_SANITIZE`` environment
            variable, which is how CI runs the whole test suite
            sanitized.
        profile: hot-path stage profiling.  When True the run attributes
            per-stage invocation counts (and self wall seconds, when a
            host clock is injected into :mod:`repro.perf.profiler`) to the
            named engine stages, plus an ``(unattributed)`` residual, and
            lands the table on the report's ``profile`` field.  Profiling
            is observational: the report is otherwise identical to an
            unprofiled run.  ``None`` (the
            default) reads the ``REPRO_PROFILE`` environment variable.

    Engines are reusable: ``run`` resets all per-run state (queues, seen
    ids, busy times, telemetry, caches) on entry, so consecutive runs of
    the same engine are independent and identical given identical
    workloads.
    """

    def __init__(
        self,
        # Duck-typed on purpose (see the docstring): a QRAMService or any
        # object with the same shards/shard_map/policy/placement surface.
        fleet: Any,
        *,
        max_queue_depth: int | None = None,
        shed_expired: bool = False,
        max_distillation_copies: int = 1,
        retention: str = "full",
        telemetry_interval: float | None = None,
        sink: RecordSink | None = None,
        sanitize: bool | None = None,
        workers: int | None = None,
        profile: bool | None = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        if max_distillation_copies < 1:
            raise ValueError("max_distillation_copies must be >= 1")
        if retention not in RETENTIONS:
            raise ValueError(
                f"unknown retention {retention!r}; expected one of {RETENTIONS}"
            )
        if telemetry_interval is not None and telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        self.fleet = fleet
        self.max_queue_depth = max_queue_depth
        self.shed_expired = shed_expired
        self.max_distillation_copies = max_distillation_copies
        self.retention = retention
        self.telemetry_interval = telemetry_interval
        self.sink = sink
        self.sanitize = (
            _env_flag(SANITIZE_ENV) if sanitize is None else bool(sanitize)
        )
        self.workers = workers
        self.profile = (
            _env_flag(PROFILE_ENV) if profile is None else bool(profile)
        )
        # Child engines in parallel workers see a single shard's sparse id
        # stream, which would blow the contiguous-prefix watermark of
        # _SeenIds into a set; the parent validates the full dense stream
        # instead and disables per-child dedup.
        self._dedupe = True

    # ------------------------------------------------------------------ run
    def _make_sink(self) -> RecordSink:
        """One per-run record sink for the engine's retention mode."""
        return ListSink() if self.retention == "full" else NullSink()

    def _reset(self, source: WorkloadSource) -> None:
        """(Re)initialize every piece of per-run state.

        Called at the top of every ``run``, which makes engines reusable:
        nothing from a previous run — seen ids, queues, busy times, caches,
        telemetry — leaks into the next.
        """
        fleet = self.fleet
        self._source = source
        # The heap spans its own pushes and pops (``heap_push`` /
        # ``heap_pop``; held arrivals and claimed window starts are
        # neither); every other stage is spanned here.
        self._profiler = HotPathProfiler() if self.profile else None
        self._heap = EventHeap(sanitize=self.sanitize, profiler=self._profiler)
        self._offered = 0
        self._backends = list(fleet.shards)
        self._window_sizes = list(fleet.window_sizes)
        num_shards = len(self._backends)
        self._queues: list[list[QueryRequest]] = [[] for _ in range(num_shards)]
        self._busy_until = [0.0] * num_shards
        self._window_pending = [False] * num_shards
        self._max_depth = {shard: 0 for shard in range(num_shards)}
        self._seen_ids = _SeenIds()
        self._local_amps: dict[int, dict[int, complex]] = {}
        self._copies: dict[int, int] = {}
        self._outputs: dict[int, dict[tuple[int, int], complex]] = {}
        # Read once per run: the hot path branches on these every event.
        self._functional = bool(fleet.functional)
        # Whether any admitted request carried a fidelity SLO this run.
        # Gates batch capping, a no-op (and re-derivable from the queue)
        # while this is False.
        self._slo_seen = False
        # Frozen per-shard events are reusable singletons: one WindowStart
        # / WindowDrain per shard and one ClientThink per closed-loop
        # client serve the whole run instead of one allocation per event.
        self._start_events = [WindowStart(shard) for shard in range(num_shards)]
        self._drain_events = [WindowDrain(shard) for shard in range(num_shards)]
        self._think_events: dict[int, ClientThink] = {}
        # The observation path: per-stream sinks + the online aggregates.
        self._served_sink = self._make_sink()
        self._window_sink = self._make_sink()
        self._rejected_sink = self._make_sink()
        self._aggregator = StreamingServiceAggregator()
        # Traffic events (the held arrival, thinks, window starts, drains)
        # still pending — the liveness signal the recurring TelemetryTick
        # uses to decide whether to reschedule.
        self._traffic_events = 0
        # Telemetry is recorded as raw interval totals only; the report
        # builder turns them into IntervalStats (see RawInterval).
        self._telemetry: list[RawInterval] = []
        self._tick_start = 0.0
        self._tick_arrivals = 0
        self._tick_served = 0
        self._tick_rejected = 0
        self._tick_shed = 0
        self._tick_windows = 0
        # Per-shard partial sums, combined with an exactly-rounded fsum at
        # flush time: a partitioned run accumulates each shard's fidelities
        # on its own child engine, so a global left-to-right += would make
        # the oracle's interval mean differ from the merge in the last bit
        # (float addition is not associative).  fsum over identical
        # per-shard partials is order-independent, so both paths agree
        # byte-for-byte.
        self._tick_fidelity_totals: dict[int, float] = {}
        self._tick_fidelity_count = 0
        self._now = 0.0

    def run(self, source: WorkloadSource, clops: float = 1.0e6) -> ServiceReport:
        """Serve one workload to completion and report what happened.

        With ``workers`` set (or ``REPRO_WORKERS`` on a provably
        oracle-identical configuration) the run is dispatched to the
        partitioned parallel path of :mod:`repro.engine.parallel`; any
        configuration that cannot be partitioned exactly falls back to
        this single-process oracle with the reason recorded on the
        report's ``parallel`` field.

        Args:
            source: the traffic (open-loop trace — materialized or
                streaming — or closed-loop clients).
            clops: hardware clock used for the queries-per-second numbers.
        """
        requested = self.workers
        if requested is None:
            env = _env_workers()
            if env is not None and self.retention == "full" and self.sink is None:
                requested = env
        parallel_info: ParallelRunInfo | None = None
        if requested is not None and requested >= 1:
            reason = partition_unsupported_reason(self, source)
            if reason is None:
                # Imported lazily: the parallel module builds child
                # ServiceEngines, so the import must not be circular at
                # module load.
                from repro.engine.parallel import run_partitioned

                return run_partitioned(self, source, requested, clops)
            parallel_info = ParallelRunInfo(
                workers=0,
                partitions=0,
                fallback_reason=reason,
                worker_seconds=(),
            )
        self._run_events(source)
        return self._finalize([self._outcome()], clops, parallel_info)

    def _run_events(self, source: WorkloadSource) -> None:
        """Drain one workload's event heap to empty (the oracle loop).

        Resets all per-run state, runs every event, flushes trailing
        telemetry and performs the end-of-run sanitizer checks — but does
        not build the report: parallel workers run exactly this on their
        partition and ship :meth:`_outcome` back.  A profiled drain is the
        profiler's root span, whose self time (all no named stage
        claimed) is the ``(unattributed)`` row.
        """
        self._reset(source)
        profiler = self._profiler
        if profiler is not None:
            profiler.enter(UNATTRIBUTED)
            profiler.enter("workload_source")
        source.start(self)
        if profiler is not None:
            profiler.exit()
        if self.telemetry_interval is not None:
            self._heap.push(self.telemetry_interval, TelemetryTick())

        # The drain loop is the innermost hot loop of every run: bind the
        # heap's next_event once, branch on exact event classes (events
        # are final dataclasses, ordered here by serving frequency; a
        # ``None`` event is the held open-loop arrival), and keep the
        # sanitizer check behind one cached flag.
        next_event = self._heap.next_event
        sanitize = self.sanitize
        while (item := next_event()) is not None:
            now, event = item
            cls = event.__class__
            if sanitize:
                if now < self._now:
                    name = "arrival" if event is None else cls.__name__
                    raise SanitizerViolation(
                        f"virtual clock moved backwards: popped "
                        f"{name} at {now} after {self._now}"
                    )
                if cls is WindowDrain:
                    self._check_conservation(now)
            self._now = now
            if event is None or cls is ClientThink:
                self._traffic_events -= 1
                if profiler is not None:
                    profiler.enter("workload_source")
                request = (
                    source.next_arrival(self, now)
                    if event is None
                    else source.next_request(self, event.client_id, now)
                )
                if profiler is not None:
                    profiler.exit()
                if request is not None:
                    if profiler is not None:
                        profiler.enter("admission")
                    self._on_arrival(now, request)
                    if profiler is not None:
                        profiler.exit()
            elif cls is WindowDrain:
                self._traffic_events -= 1
                self._maybe_start(event.shard, now)
            elif cls is WindowStart:
                self._traffic_events -= 1
                self._on_window_start(now, event.shard)
            elif cls is TelemetryTick:
                self._on_telemetry_tick(now)

        if self.telemetry_interval is not None and (
            self._tick_arrivals
            or self._tick_served
            or self._tick_rejected
            or self._tick_windows
        ):
            # Safety net: a tick reschedules while work remains, so by
            # construction nothing countable happens after the final tick
            # — but if that invariant ever breaks, flush the activity
            # rather than lose it.
            self._flush_interval(max(self._now, self._tick_start))
        if self.sanitize:
            queued = sum(len(queue) for queue in self._queues)
            if queued:
                raise SanitizerViolation(
                    f"run ended with {queued} request(s) still queued"
                )
            self._check_conservation(self._now)
        if profiler is not None:
            profiler.exit()

    def _outcome(self) -> RunOutcome:
        """The drained per-run state, packaged for :meth:`_finalize`."""
        retained = self.retention == "full"
        return RunOutcome(
            offered=self._offered,
            served=self._served_sink.records if retained else [],
            windows=self._window_sink.records if retained else [],
            rejected=self._rejected_sink.records if retained else [],
            outputs=self._outputs,
            max_depth=self._max_depth,
            aggregator=self._aggregator,
            telemetry=self._telemetry,
            profile=(
                self._profiler.snapshot() if self._profiler is not None else None
            ),
        )

    def _finalize(
        self,
        outcomes: list[RunOutcome],
        clops: float,
        parallel_info: ParallelRunInfo | None = None,
    ) -> ServiceReport:
        """Build the report from drained outcomes — the one report builder.

        The oracle passes its single outcome; a partitioned run passes one
        per served shard, in shard order.  In sanitizer mode each outcome
        and their sum must conserve requests (``offered == served +
        rejected``, queues drained), and under full retention each window
        and rejection stream must be nondecreasing in time.  Records are
        sorted under unique keys — served by ``(finish_layer, query_id)``,
        windows by ``(admit_layer, shard)``, rejections by ``(time,
        query_id)`` — so every partitioning yields the oracle's lists.
        """
        offered = sum(outcome.offered for outcome in outcomes)
        served_count = sum(outcome.aggregator.served_count for outcome in outcomes)
        rejected_count = sum(
            outcome.aggregator.rejected_count for outcome in outcomes
        )
        if self.sanitize:
            for index, outcome in enumerate(outcomes):
                part_served = outcome.aggregator.served_count
                part_rejected = outcome.aggregator.rejected_count
                if outcome.offered != part_served + part_rejected:
                    raise SanitizerViolation(
                        f"conservation broken in run outcome {index}: "
                        f"offered={outcome.offered} != served={part_served} + "
                        f"rejected={part_rejected} (queues drain by end of run)"
                    )
            if offered != served_count + rejected_count:
                raise SanitizerViolation(
                    "global conservation broken across run outcomes: "
                    f"offered={offered} != served={served_count} + "
                    f"rejected={rejected_count}"
                )
            if self.retention == "full":
                check_nondecreasing(
                    [outcome.windows for outcome in outcomes],
                    key=lambda record: record.admit_layer,
                    description="window",
                )
                check_nondecreasing(
                    [outcome.rejected for outcome in outcomes],
                    key=lambda record: record.time,
                    description="rejection",
                )
        if not served_count:
            if rejected_count:
                raise ValueError(
                    f"no queries were served: all {rejected_count} offered "
                    "requests were rejected or shed (loosen max_queue_depth "
                    "/ deadlines)"
                )
            raise ValueError("the workload source produced no requests")

        served = sorted(
            chain.from_iterable(outcome.served for outcome in outcomes),
            key=lambda record: (record.finish_layer, record.query_id),
        )
        windows = sorted(
            chain.from_iterable(outcome.windows for outcome in outcomes),
            key=lambda record: (record.admit_layer, record.shard),
        )
        rejected = sorted(
            chain.from_iterable(outcome.rejected for outcome in outcomes),
            key=lambda record: (record.time, record.query_id),
        )
        outputs: dict[int, dict[tuple[int, int], complex]] = {}
        max_depth: dict[int, int] = {}
        for outcome in outcomes:
            outputs.update(outcome.outputs)
            for shard, depth in outcome.max_depth.items():
                max_depth[shard] = max(depth, max_depth.get(shard, 0))
        if self.retention == "full":
            # Exact percentiles over the complete record lists.
            stats = summarize_service(
                served, windows, max_depth, clops=clops, rejected=rejected
            )
        else:
            aggregator = (
                outcomes[0].aggregator
                if len(outcomes) == 1
                else merge_service_aggregators(
                    [outcome.aggregator for outcome in outcomes]
                )
            )
            stats = aggregator.to_stats(max_depth, clops=clops)
        profiles = [
            outcome.profile for outcome in outcomes if outcome.profile is not None
        ]
        return ServiceReport(
            served=served,
            windows=windows,
            stats=stats,
            outputs=outputs,
            rejected=rejected,
            telemetry=_interval_stats(
                chain.from_iterable(outcome.telemetry for outcome in outcomes)
            ),
            retention=self.retention,
            parallel=parallel_info,
            profile=reduce(StageProfile.merged, profiles) if profiles else None,
        )

    # ----------------------------------------------- source-facing scheduling
    def schedule_think(self, client_id: int, time: float) -> None:
        """Schedule a closed-loop client's next issue instant.  Validation
        of amplitudes and duplicate ids happens when the arrival is
        processed — the one path every request takes, trace or
        closed-loop."""
        self._traffic_events += 1
        event = self._think_events.get(client_id)
        if event is None:
            event = self._think_events[client_id] = ClientThink(client_id)
        self._heap.push(max(0.0, time), event)

    def schedule_arrival(self, time: float) -> None:
        """Schedule an open-loop trace's next arrival.  It is held beside
        the event heap, not pushed: the source has exactly one pending,
        and it leaves in the order a pushed :class:`ClientThink` would."""
        self._traffic_events += 1
        self._heap.hold_arrival(max(0.0, time))

    # ------------------------------------------------------------ recording
    def _record_served(self, record: ServedQuery) -> None:
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("sketch_update")
        self._served_sink.append(record)
        self._aggregator.observe_served(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_served += 1
        if record.fidelity is not None:
            totals = self._tick_fidelity_totals
            totals[record.shard] = totals.get(record.shard, 0.0) + record.fidelity
            self._tick_fidelity_count += 1
        if profiler is not None:
            profiler.exit()

    def _record_window(self, record: WindowRecord) -> None:
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("sketch_update_window")
        self._window_sink.append(record)
        self._aggregator.observe_window(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_windows += 1
        if profiler is not None:
            profiler.exit()

    def _record_rejected(self, record: RejectedQuery) -> None:
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("sketch_update_rejected")
        self._rejected_sink.append(record)
        self._aggregator.observe_rejected(record)
        if self.sink is not None:
            self.sink.append(record)
        self._tick_rejected += 1
        if record.reason == REJECT_DEADLINE_EXPIRED:
            self._tick_shed += 1
        if profiler is not None:
            profiler.exit()

    # ------------------------------------------------------------- handlers
    def _on_arrival(self, now: float, request: QueryRequest) -> None:
        self._tick_arrivals += 1
        if self._dedupe and self._seen_ids.add(request.query_id):
            raise ValueError(
                f"duplicate query_id {request.query_id} in trace; "
                "query ids key the per-request results and must be unique"
            )
        check_arrival(request)
        # Every validated arrival is "offered" — it must end up served,
        # rejected, or still queued (the conservation invariant the
        # sanitizer checks at every drain).
        self._offered += 1
        shard, local = self.fleet.shard_map.route(request.address_amplitudes)
        if shard == ANY_SHARD:
            # Fidelity-aware placement: replicated shards all hold the full
            # memory, so prefer the shortest queue among the replicas that
            # can meet the request's fidelity SLO (with distillation if
            # allowed) — in a mixed fleet that is how SLO-carrying traffic
            # lands on the encoded replicas.
            candidates: list[int] | None = None
            if request.min_fidelity is not None:
                candidates = [
                    s for s in range(len(self._backends))
                    if self._feasible_copies(s, request) is not None
                ]
                if not candidates:
                    self._reject(
                        request, self._shortest_queue(now), now, REJECT_FIDELITY
                    )
                    return
            shard = self._shortest_queue(now, candidates)
        copies = self._feasible_copies(shard, request)
        if copies is None:
            self._reject(request, shard, now, REJECT_FIDELITY)
            return
        queue = self._queues[shard]
        if self.max_queue_depth is not None and len(queue) >= self.max_queue_depth:
            self._reject(request, shard, now, REJECT_QUEUE_FULL)
            return
        if request.min_fidelity is not None:
            self._slo_seen = True
        # Per-query routing state is only tracked when a downstream reader
        # exists: copy counts matter past 1 (readers default to 1), local
        # amplitudes only reach the backend on functional windows.
        if copies != 1:
            self._copies[request.query_id] = copies
        if self._functional:
            self._local_amps[request.query_id] = local
        queue.append(request)
        depth = len(queue)
        if depth > self._max_depth[shard]:
            self._max_depth[shard] = depth
        self._maybe_start(shard, now)

    def _predicted_fidelities(self, shard: int, occupancy: int) -> tuple[float, ...]:
        """``backend.predicted_window_fidelities(occupancy)`` for one shard.

        Memoization lives with the backend, not the engine: each backend
        keeps one memoized window per occupancy, pre-derived at fleet
        build, so an engine-level cache has nothing to add.
        """
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("fidelity_prediction")
        predictions = self._backends[shard].predicted_window_fidelities(occupancy)
        if profiler is not None:
            profiler.exit()
        return predictions

    def _feasible_copies(self, shard: int, request: QueryRequest) -> int | None:
        """Fewest parallel copies that lift the shard's predicted fidelity
        over the request's SLO (1 without an SLO or when the bare prediction
        already suffices); ``None`` when even the most copies the engine may
        spend cannot reach the target.

        The copies are modelled as what they are — extra pipelined
        admissions — so ``k`` copies distill the *worst slot* of a
        ``k``-query window, not the lone-query bound: spending more copies
        also costs more crosstalk, and both sides of that trade-off are in
        the check.
        """
        if request.min_fidelity is None:
            return 1
        most = min(self.max_distillation_copies, self._window_sizes[shard])
        for copies in range(1, most + 1):
            worst = min(self._predicted_fidelities(shard, copies))
            if _distilled(worst, copies) >= request.min_fidelity:
                return copies
        return None

    def _batch_predictions(self, shard: int, batch: list[QueryRequest]) -> list[float]:
        """Per-request predicted fidelity of one window, copies included.

        Distillation copies are extra pipelined admissions sharing the
        window (they are also charged that way in ``_execute_window``), so
        the window is predicted at its full occupancy — ``sum(copies)``
        slots — request ``j`` owning the contiguous slot run of its copies.
        Each request's prediction is its worst copy slot, distilled.
        """
        copies = [self._copies.get(r.query_id, 1) for r in batch]
        expanded = self._predicted_fidelities(shard, sum(copies))
        predictions = []
        offset = 0
        for count in copies:
            worst = min(expanded[offset:offset + count])
            predictions.append(_distilled(worst, count))
            offset += count
        return predictions

    def _reject(
        self, request: QueryRequest, shard: int, now: float, reason: str
    ) -> None:
        """Record one refusal and let the source react (closed-loop clients
        pace on rejections exactly as they pace on completions)."""
        self._copies.pop(request.query_id, None)
        self._local_amps.pop(request.query_id, None)
        record = RejectedQuery(
            query_id=request.query_id,
            tenant=request.qpu,
            shard=shard,
            time=now,
            reason=reason,
            deadline=request.deadline,
            min_fidelity=request.min_fidelity,
        )
        self._record_rejected(record)
        self._source.on_rejection(self, record)

    def _maybe_start(self, shard: int, now: float) -> None:
        """Admit a window on an idle shard with queued work: at once when
        its WindowStart would be the next event out, else by pushing it.

        Admitting at once is admitting where the pushed start would have
        popped: arrivals and drains return straight after this call.
        """
        if (
            self._queues[shard]
            and not self._window_pending[shard]
            and self._busy_until[shard] <= now
        ):
            start = self._start_events[shard]
            if self._heap.claim(now, start):
                self._on_window_start(now, shard)
                return
            self._window_pending[shard] = True
            self._traffic_events += 1
            self._heap.push(now, start)

    def _on_window_start(self, now: float, shard: int) -> None:
        self._window_pending[shard] = False
        if self._busy_until[shard] > now:
            return
        queue = self._queues[shard]
        if self.shed_expired and queue:
            kept: list[QueryRequest] = []
            for request in queue:
                # A request whose deadline is exactly `now` can no longer
                # finish on time (execution takes at least one layer), so
                # the boundary sheds — matching `missed_deadline`, which
                # only forgives finish_layer <= deadline.
                if request.deadline is not None and request.deadline <= now:
                    self._reject(request, shard, now, REJECT_DEADLINE_EXPIRED)
                else:
                    kept.append(request)
            queue[:] = kept
        if not queue:
            return
        batch = self.fleet.policy.select(queue, self._window_sizes[shard], now)
        if self._slo_seen:
            batch = self._cap_batch_for_fidelity(shard, batch, queue)
        self._execute_window(shard, batch, now)

    def _cap_batch_for_fidelity(
        self, shard: int, batch: list[QueryRequest], queue: list[QueryRequest]
    ) -> list[QueryRequest]:
        """Shrink a selected batch until every fidelity SLO in it is met.

        Two window-level effects can break a per-query feasible admission:
        pipelining-depth degradation (a full window predicts lower slot
        fidelities than a lone query) and the distillation copies of the
        batched queries overflowing the window's parallelism.  Dropping the
        last-admitted request back to the queue head restores both
        invariants; a batch of one is always feasible by admission.
        """
        if all(request.min_fidelity is None for request in batch):
            return batch
        limit = self._window_sizes[shard]
        while len(batch) > 1:
            occupancy = sum(self._copies.get(r.query_id, 1) for r in batch)
            predicted = self._batch_predictions(shard, batch)
            feasible = occupancy <= limit and all(
                request.min_fidelity is None
                or predicted[slot] >= request.min_fidelity
                for slot, request in enumerate(batch)
            )
            if feasible:
                break
            queue.insert(0, batch.pop())
        return batch

    def _execute_window(
        self, shard: int, batch: list[QueryRequest], admit: float
    ) -> None:
        """Run one pipeline window on one backend, at absolute layer ``admit``.

        The backend receives shard-local requests (translated address
        superpositions) and runs them by window slot, so its schedule
        caches and compiled window programs are shared across every window
        of the run.
        """
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("window_execute")
        if self.sanitize and self._busy_until[shard] > admit:
            raise SanitizerViolation(
                f"window admitted on busy shard {shard}: busy until "
                f"{self._busy_until[shard]}, admitted at {admit}"
            )
        backend = self._backends[shard]
        functional = self._functional
        if functional:
            local_requests = [
                QueryRequest(
                    query_id=request.query_id,
                    address_amplitudes=self._local_amps[request.query_id],
                    request_time=request.request_time,
                    qpu=request.qpu,
                    initial_bus=request.initial_bus,
                    priority=request.priority,
                )
                for request in batch
            ]
        else:
            # Timing-only windows never read per-request state (every
            # adapter serves them from its memoized timing window), so the
            # shard-local translated copies would be pure allocation.
            local_requests = batch
        if profiler is not None:
            profiler.enter("run_window")
        result = backend.run_window(local_requests, functional=functional)
        if profiler is not None:
            profiler.exit()
        copies_map = self._copies
        predictions: Sequence[float | None]
        if copies_map:
            predictions = self._batch_predictions(shard, batch)
        else:
            # No in-flight distillation: the window's predictions are the
            # ones it just ran with (one copy per slot, and distillation at
            # one copy is the identity).
            predictions = result.predicted_fidelities

        keep_outputs = functional and self.retention == "full"
        for slot, request in enumerate(batch):
            # Functional outputs are per-request state the report keys by
            # query id — retaining them for every query is exactly the
            # unbounded growth retention="none" exists to avoid.
            if keep_outputs and result.outputs[slot] is not None:
                self._outputs[request.query_id] = self.fleet.shard_map.to_global_outputs(
                    shard, result.outputs[slot]
                )
            copies = copies_map.get(request.query_id, 1) if copies_map else 1
            slot_fidelity = result.fidelities[slot]
            record = ServedQuery._from_fields(
                query_id=request.query_id,
                tenant=request.qpu,
                shard=shard,
                request_time=request.request_time,
                admit_layer=admit,
                start_layer=admit + result.start_offsets[slot],
                finish_layer=admit + result.finish_offsets[slot],
                # Distillation delivers the distilled state: its suppression
                # applies to the slot's quality, measured or predicted.
                fidelity=(
                    slot_fidelity
                    if copies == 1 or slot_fidelity is None
                    else _distilled(slot_fidelity, copies)
                ),
                architecture=backend.name,
                deadline=request.deadline,
                predicted_fidelity=predictions[slot],
                min_fidelity=request.min_fidelity,
                distillation_copies=copies,
            )
            self._record_served(record)
            self._source.on_completion(self, record)
        # Distillation copies are extra admissions into the same window:
        # each one keeps the backend busy for one more admission interval.
        if copies_map:
            extra_copies = sum(
                copies_map.get(r.query_id, 1) - 1 for r in batch
            )
        else:
            extra_copies = 0
        total_layers = result.total_layers
        if extra_copies:
            total_layers += float(extra_copies * result.interval)
        self._record_window(
            WindowRecord._from_fields(
                shard=shard,
                admit_layer=admit,
                batch_size=len(batch),
                interval=result.interval,
                total_layers=total_layers,
                architecture=backend.name,
            )
        )
        # The per-query routing state is dead once the window is recorded;
        # dropping it keeps the engine's footprint independent of how many
        # requests a run serves.
        if copies_map:
            for request in batch:
                copies_map.pop(request.query_id, None)
        if self._local_amps:
            for request in batch:
                self._local_amps.pop(request.query_id, None)
        busy = admit + total_layers
        self._busy_until[shard] = busy
        self._traffic_events += 1
        self._heap.push(busy, self._drain_events[shard])
        if profiler is not None:
            profiler.exit()

    # -------------------------------------------------------------- sanitizer
    def _check_conservation(self, now: float) -> None:
        """Assert ``offered == served + rejected + queued`` right now.

        Served records are written at window-admit time, so between events
        there is no in-flight term: every offered request is either in a
        queue or already accounted as served / rejected (shed requests are
        a flavor of rejection).  Checked on every :class:`WindowDrain` and
        at end of run.
        """
        served = self._aggregator.served_count
        rejected = self._aggregator.rejected_count
        queued = sum(len(queue) for queue in self._queues)
        if self._offered != served + rejected + queued:
            raise SanitizerViolation(
                f"conservation broken at t={now}: offered={self._offered} "
                f"!= served={served} + rejected={rejected} + queued={queued}"
            )
        if self._aggregator.shed_count > rejected:
            raise SanitizerViolation(
                f"shed count {self._aggregator.shed_count} exceeds rejected "
                f"count {rejected} at t={now}"
            )

    # ------------------------------------------------------------- placement
    def _shortest_queue(self, now: float, shards: list[int] | None = None) -> int:
        """Least-loaded shard among ``shards`` (default: all of them):
        fewest queued, then earliest free."""
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("placement")
        chosen = min(
            range(len(self._backends)) if shards is None else shards,
            key=lambda shard: (
                len(self._queues[shard]),
                max(self._busy_until[shard], now),
                shard,
            ),
        )
        if profiler is not None:
            profiler.exit()
        return chosen

    # ------------------------------------------------------------- telemetry
    def _work_remains(self, now: float) -> bool:
        """Whether any serving activity is pending or possible.

        Counts queued requests, busy shards and *traffic* events still in
        the heap — deliberately not the recurring tick itself, which would
        keep the run alive forever.
        """
        return (
            self._traffic_events > 0
            or any(self._queues)
            or any(busy > now for busy in self._busy_until)
        )

    def _flush_interval(self, end: float) -> None:
        """Record the raw totals of the interval ``(_tick_start, end]``."""
        depths = [len(queue) for queue in self._queues]
        self._telemetry.append(
            RawInterval(
                start=self._tick_start,
                end=end,
                arrivals=self._tick_arrivals,
                served=self._tick_served,
                rejected=self._tick_rejected,
                shed=self._tick_shed,
                windows=self._tick_windows,
                depth_total=sum(depths),
                depth_max=max(depths, default=0),
                fidelity_total=math.fsum(
                    self._tick_fidelity_totals[shard]
                    for shard in sorted(self._tick_fidelity_totals)
                ),
                fidelity_count=self._tick_fidelity_count,
            )
        )
        self._tick_start = end
        self._tick_arrivals = 0
        self._tick_served = 0
        self._tick_rejected = 0
        self._tick_shed = 0
        self._tick_windows = 0
        self._tick_fidelity_totals = {}
        self._tick_fidelity_count = 0

    def _on_telemetry_tick(self, now: float) -> None:
        self._flush_interval(now)
        if self._work_remains(now):
            self._heap.push(now + self.telemetry_interval, TelemetryTick())

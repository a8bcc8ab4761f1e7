"""The streaming telemetry core: sketches, sinks, retention modes, ticks.

Covers the observation-path refactor end to end:

* online aggregates (:class:`StreamingStat`, :class:`LogBucketSketch`)
  against exact batch computations, including the sketch's relative
  error bound and its exact merges;
* record sinks — list / reservoir sample / JSONL round-trip / null;
* engine retention modes: ``"full"`` reproduces the historical batch
  :class:`ServiceStats` byte for byte, ``"sampled"`` and ``"none"`` report
  exact counts and means from the streaming aggregator in bounded memory;
* the periodic :class:`TelemetryTick` time series;
* lazy traces and the :class:`StreamingTraceSource` equivalence;
* the satellite fixes: request-time validation, reusable engines, memoized
  fidelity predictions.
"""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.query import QueryRequest
from repro.engine import (
    AutoscalerConfig,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
)
from repro.metrics.sinks import (
    JsonlSink,
    ListSink,
    NullSink,
    SamplingSink,
    load_jsonl,
)
from repro.metrics.streaming import (
    RELATIVE_ACCURACY,
    LogBucketSketch,
    StreamingServiceAggregator,
    StreamingStat,
)
from repro.service import QRAMService
from repro.workloads import (
    closed_loop_source,
    iter_poisson_trace,
    random_data,
)

CAPACITY = 16


def _poisson_kwargs(**overrides):
    kwargs = dict(
        num_queries=60,
        mean_interarrival=8.0,
        num_tenants=3,
        num_shards=2,
        seed=7,
    )
    kwargs.update(overrides)
    return kwargs


@pytest.fixture()
def service():
    return QRAMService(CAPACITY, num_shards=2, data=random_data(CAPACITY, seed=1))


@pytest.fixture()
def trace():
    return list(iter_poisson_trace(CAPACITY, **_poisson_kwargs()))


# --------------------------------------------------------------- primitives
def test_streaming_stat_matches_batch():
    rng = np.random.default_rng(3)
    values = rng.exponential(10.0, size=500)
    stat = StreamingStat()
    for value in values:
        stat.add(float(value))
    assert stat.count == 500
    assert stat.mean == pytest.approx(float(np.mean(values)))
    assert stat.minimum == pytest.approx(float(np.min(values)))
    assert stat.maximum == pytest.approx(float(np.max(values)))
    empty = StreamingStat()
    assert empty.mean == 0.0 and empty.minimum is None and empty.maximum is None


def _exponential_latencies():
    rng = np.random.default_rng(11)
    return [float(v) for v in rng.exponential(50.0, size=4000)]


@pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
def test_sketch_error_bounds(quantile):
    """Every estimate is within alpha relative of the exact order
    statistic at the sketch's rank, on heavy-tailed latency-like data."""
    values = _exponential_latencies()
    sketch = LogBucketSketch()
    for value in values:
        sketch.add(value)
    exact = sorted(values)[math.floor(quantile * (len(values) - 1))]
    assert abs(sketch.quantile(quantile) - exact) <= RELATIVE_ACCURACY * exact


def test_sketch_merge_is_exact():
    """Merging any partition, in any order, yields exactly the buckets of
    one sketch fed the concatenated series."""
    values = _exponential_latencies()
    whole = LogBucketSketch()
    for value in values:
        whole.add(value)
    rng = np.random.default_rng(5)
    for parts in (2, 3, 7):
        labels = rng.integers(0, parts, size=len(values))
        pieces = [LogBucketSketch() for _ in range(parts)]
        for label, value in zip(labels, values):
            pieces[label].add(value)
        merged = LogBucketSketch()
        for index in rng.permutation(parts):
            merged.merge(pieces[index])
        assert merged.count == whole.count
        assert merged.zero_count == whole.zero_count
        assert merged.buckets == whole.buckets
        for quantile in (0.5, 0.95, 0.99):
            assert merged.quantile(quantile) == whole.quantile(quantile)


def test_sketch_counts_zero():
    sketch = LogBucketSketch()
    assert sketch.quantile(0.5) == 0.0
    sketch.add(0.0)
    assert sketch.count == 1 and sketch.zero_count == 1
    assert sketch.buckets == {}
    assert sketch.quantile(0.99) == 0.0
    sketch.add(10.0)
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == pytest.approx(10.0, rel=RELATIVE_ACCURACY)


# --------------------------------------------------------------------- sinks
def test_sampling_sink_uniform_reservoir():
    sink = SamplingSink(8, seed=4)
    for i in range(200):
        sink.append(i)
    assert sink.seen == 200
    assert len(sink.records) == 8
    assert all(0 <= r < 200 for r in sink.records)
    assert len(set(sink.records)) == 8
    # Deterministic for a fixed seed.
    again = SamplingSink(8, seed=4)
    for i in range(200):
        again.append(i)
    assert again.records == sink.records
    # Short streams are retained completely.
    short = SamplingSink(8, seed=4)
    for i in range(5):
        short.append(i)
    assert short.records == list(range(5))
    with pytest.raises(ValueError):
        SamplingSink(0)


def test_list_and_null_sinks():
    keep, drop = ListSink(), NullSink()
    for i in range(3):
        keep.append(i)
        drop.append(i)
    assert keep.records == [0, 1, 2] and len(keep) == 3
    assert len(drop) == 0


def test_jsonl_sink_round_trip(tmp_path, service, trace):
    path = tmp_path / "records.jsonl"
    with JsonlSink(str(path)) as sink:
        report = ServiceEngine(
            service, retention="none", sink=sink
        ).run(TraceSource(trace))
    records = load_jsonl(str(path))
    assert sink.written == len(records)
    # The tee received every record even though the report retained none.
    assert report.served == [] and report.windows == []
    served = [r for r in records if type(r).__name__ == "ServedQuery"]
    windows = [r for r in records if type(r).__name__ == "WindowRecord"]
    assert len(served) == report.stats.total_queries == 60
    assert len(windows) > 0
    # Byte-exact field round trip against a full-retention run.
    full = ServiceEngine(service).run(TraceSource(trace))
    assert sorted(served, key=lambda r: r.query_id) == sorted(
        full.served, key=lambda r: r.query_id
    )
    assert windows == full.windows


def test_jsonl_sink_rejects_unknown_records(tmp_path):
    with JsonlSink(str(tmp_path / "x.jsonl")) as sink:
        with pytest.raises(TypeError):
            sink.append({"not": "a record"})


# ----------------------------------------------------------- retention modes
def test_full_retention_is_byte_identical(service, trace):
    """The tentpole pin: rewiring through sinks + aggregator must not move
    a single bit of the full-retention ServiceStats."""
    default = ServiceEngine(service).run(TraceSource(trace))
    rewired = ServiceEngine(service, retention="full").run(TraceSource(trace))
    assert rewired.stats == default.stats
    assert rewired.served == default.served
    assert rewired.windows == default.windows
    assert rewired.retention == "full"


def test_retention_none_stats_without_records(service, trace):
    full = ServiceEngine(service).run(TraceSource(trace))
    none = ServiceEngine(service, retention="none").run(TraceSource(trace))
    assert none.served == [] and none.windows == [] and none.rejected == []
    assert none.outputs == {}
    assert none.retention == "none"
    stats, exact = none.stats, full.stats
    assert stats.total_queries == exact.total_queries
    assert stats.offered_queries == exact.offered_queries
    assert stats.makespan_layers == exact.makespan_layers
    assert stats.mean_latency_layers == pytest.approx(exact.mean_latency_layers)
    assert stats.mean_queue_delay_layers == pytest.approx(
        exact.mean_queue_delay_layers
    )
    assert stats.mean_fidelity == pytest.approx(exact.mean_fidelity)
    assert stats.min_fidelity == pytest.approx(exact.min_fidelity)
    assert set(stats.per_tenant) == set(exact.per_tenant)
    assert set(stats.per_shard) == set(exact.per_shard)
    assert set(stats.per_backend) == set(exact.per_backend)
    for tenant, tenant_stats in stats.per_tenant.items():
        assert tenant_stats.queries == exact.per_tenant[tenant].queries
        assert tenant_stats.mean_latency_layers == pytest.approx(
            exact.per_tenant[tenant].mean_latency_layers
        )
        assert tenant_stats.max_latency_layers == pytest.approx(
            exact.per_tenant[tenant].max_latency_layers
        )
    for shard, shard_stats in stats.per_shard.items():
        assert shard_stats.windows == exact.per_shard[shard].windows
        assert shard_stats.busy_layers == pytest.approx(
            exact.per_shard[shard].busy_layers
        )
        assert shard_stats.utilization == pytest.approx(
            exact.per_shard[shard].utilization
        )
        assert shard_stats.max_queue_depth == exact.per_shard[shard].max_queue_depth
        assert shard_stats.architecture == exact.per_shard[shard].architecture
    # Sketched percentiles track the exact order statistics.
    assert stats.p50_latency_layers == pytest.approx(
        exact.p50_latency_layers, rel=0.15
    )
    assert stats.p95_latency_layers == pytest.approx(
        exact.p95_latency_layers, rel=0.15
    )


def test_retention_none_result_for_raises(service, trace):
    none = ServiceEngine(service, retention="none").run(TraceSource(trace))
    with pytest.raises(KeyError):
        none.result_for(trace[0].query_id)


def test_retention_sampled_reservoir(service, trace):
    sampled = ServiceEngine(
        service, retention="sampled", sample_size=10
    ).run(TraceSource(trace))
    assert len(sampled.served) == 10
    assert sampled.retention == "sampled"
    assert sampled.stats.total_queries == 60
    full = ServiceEngine(service).run(TraceSource(trace))
    by_id = {record.query_id: record for record in full.served}
    for record in sampled.served:
        assert record == by_id[record.query_id]
    # Completion-ordered like the full list.
    keys = [(r.finish_layer, r.query_id) for r in sampled.served]
    assert keys == sorted(keys)


def test_retention_rejections_counted(service):
    """Rejection/shed accounting survives record-free serving."""
    trace = list(iter_poisson_trace(
        CAPACITY, **_poisson_kwargs(mean_interarrival=2.0, deadline_layers=150.0)
    ))
    kwargs = dict(max_queue_depth=8, shed_expired=True)
    full = ServiceEngine(service, **kwargs).run(TraceSource(trace))
    none = ServiceEngine(service, retention="none", **kwargs).run(TraceSource(trace))
    assert full.stats.rejected_queries > 0 or full.stats.shed_queries > 0
    assert none.stats.rejected_queries == full.stats.rejected_queries
    assert none.stats.shed_queries == full.stats.shed_queries
    assert none.stats.deadline_misses == full.stats.deadline_misses
    assert none.stats.deadline_miss_rate == pytest.approx(
        full.stats.deadline_miss_rate
    )
    for tenant, tenant_stats in none.stats.per_tenant.items():
        assert tenant_stats.deadline_misses == (
            full.stats.per_tenant[tenant].deadline_misses
        )


def test_queue_full_only_tenant_matches_batch_tenant_universe(service):
    """A tenant whose entire demand bounced off a full queue appears in
    neither path's per-tenant view — streaming must not invent a phantom
    zero-query row the batch summary would omit."""
    burst = [
        QueryRequest(
            query_id=i,
            address_amplitudes={0: 1.0},  # all on shard 0
            request_time=0.0,
            qpu=0 if i == 0 else 1,  # tenant 1 only ever sees a full queue
        )
        for i in range(6)
    ]
    full = ServiceEngine(service, max_queue_depth=1).run(TraceSource(burst))
    none = ServiceEngine(
        service, max_queue_depth=1, retention="none"
    ).run(TraceSource(burst))
    assert full.stats.rejected_queries == 5
    assert set(full.stats.per_tenant) == {0}  # tenant 1 never served anything
    assert set(none.stats.per_tenant) == set(full.stats.per_tenant)


def test_sample_seed_passthrough(service, trace):
    a = ServiceEngine(
        service, retention="sampled", sample_size=10, sample_seed=1
    ).run(TraceSource(trace))
    b = ServiceEngine(
        service, retention="sampled", sample_size=10, sample_seed=2
    ).run(TraceSource(trace))
    assert a.stats == b.stats
    assert a.served != b.served  # different reservoirs, same statistics


def test_invalid_retention_rejected(service):
    with pytest.raises(ValueError):
        ServiceEngine(service, retention="forever")
    with pytest.raises(ValueError):
        ServiceEngine(service, sample_size=0)
    with pytest.raises(ValueError):
        ServiceEngine(service, telemetry_interval=0.0)


def test_streaming_aggregator_requires_served():
    with pytest.raises(ValueError):
        StreamingServiceAggregator().to_stats()


def test_retention_none_memory_is_bounded():
    """Peak traced memory does not grow with the request count."""

    def serve(num):
        svc = QRAMService(8, num_shards=2, functional=False)
        trace = iter_poisson_trace(
            8, num, mean_interarrival=14.0, addresses_per_query=1,
            num_tenants=4, num_shards=2, seed=5,
        )
        return ServiceEngine(svc, retention="none").run(StreamingTraceSource(trace))

    serve(500)  # warm import-time and schedule caches
    peaks = []
    for num in (1_000, 5_000):
        tracemalloc.start()
        report = serve(num)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert report.stats.total_queries == num
    assert peaks[1] <= 1.5 * peaks[0] + 256 * 1024


# ------------------------------------------------------------ telemetry ticks
def test_telemetry_time_series(service, trace):
    report = ServiceEngine(
        service, retention="none", telemetry_interval=100.0
    ).run(TraceSource(trace))
    telemetry = report.telemetry
    assert len(telemetry) > 2
    # Contiguous cover of the run from t=0 through the last event.
    assert telemetry[0].start_layer == 0.0
    for prev, this in zip(telemetry, telemetry[1:]):
        assert this.start_layer == prev.end_layer
        assert this.end_layer > this.start_layer
    assert telemetry[-1].end_layer >= report.stats.makespan_layers
    # Interval counters sum to the run's totals.
    assert sum(i.served for i in telemetry) == report.stats.total_queries
    assert sum(i.arrivals for i in telemetry) == report.stats.offered_queries
    assert sum(i.windows for i in telemetry) > 0
    for interval in telemetry:
        assert interval.queue_depth_total >= interval.queue_depth_max >= 0
        assert 0.0 <= interval.rejection_rate <= 1.0
        assert interval.throughput_queries_per_layer >= 0.0
        if interval.mean_fidelity is not None:
            # Functional fidelities are |<ideal|actual>|^2 and may carry
            # float noise a hair above 1.
            assert 0.0 <= interval.mean_fidelity <= 1.0 + 1e-9
    assert any(i.mean_fidelity is not None for i in telemetry)


def test_telemetry_off_by_default(service, trace):
    assert ServiceEngine(service).run(TraceSource(trace)).telemetry == []


def test_telemetry_with_closed_loop():
    source = closed_loop_source(
        CAPACITY, num_clients=3, queries_per_client=5, think_layers=20.0,
        num_shards=2, seed=9,
    )
    service = QRAMService(CAPACITY, num_shards=2, functional=False)
    report = ServiceEngine(
        service, retention="sampled", sample_size=6, telemetry_interval=50.0
    ).run(source)
    assert report.stats.total_queries == 15
    assert sum(i.served for i in report.telemetry) == 15
    assert len(report.served) == 6


# ----------------------------------------------- lazy traces / streaming source
def test_streaming_trace_source_matches_trace_source(service, trace):
    batch = ServiceEngine(service).run(TraceSource(trace))
    stream = ServiceEngine(service).run(StreamingTraceSource(iter(trace)))
    assert stream.stats == batch.stats
    assert stream.served == batch.served
    assert stream.windows == batch.windows


def test_streaming_trace_source_requires_sorted_times(service):
    out_of_order = [
        QueryRequest(query_id=0, address_amplitudes={0: 1.0}, request_time=10.0),
        QueryRequest(query_id=1, address_amplitudes={1: 1.0}, request_time=5.0),
    ]
    with pytest.raises(ValueError, match="sorted"):
        ServiceEngine(service).run(StreamingTraceSource(iter(out_of_order)))


def test_streaming_trace_source_requires_requests(service):
    with pytest.raises(ValueError):
        ServiceEngine(service).run(StreamingTraceSource(iter([])))


def test_streaming_negative_first_time_is_a_negative_time_error(service):
    """A negative first arrival is reported as what it is, not as an
    ordering violation against the clock origin."""
    bad = QueryRequest(query_id=0, address_amplitudes={0: 1.0}, request_time=-2.0)
    with pytest.raises(ValueError, match="negative request_time -2.0"):
        ServiceEngine(service).run(StreamingTraceSource(iter([bad])))


def test_trace_source_rejects_empty_iterator():
    """An exhausted generator is truthy; emptiness is checked after
    materializing, so a lazy trace that yields nothing still fails."""
    with pytest.raises(ValueError, match="at least one request"):
        TraceSource(iter([]))
    with pytest.raises(ValueError, match="at least one request"):
        TraceSource(request for request in ())


# ------------------------------------------------------------------ satellites
def test_negative_request_time_rejected(service):
    bad = QueryRequest(
        query_id=0, address_amplitudes={0: 1.0}, request_time=-5.0
    )
    with pytest.raises(ValueError, match="negative request_time"):
        ServiceEngine(service).run(TraceSource([bad]))
    # The refusal happens when the source starts, before it schedules
    # anything: a trace streams its most negative arrival first.
    engine = ServiceEngine(service)
    source = TraceSource([bad])
    engine._reset(source)
    with pytest.raises(ValueError, match="negative request_time"):
        source.start(engine)
    assert not engine._heap


@pytest.mark.parametrize("source_type", [StreamingTraceSource, TraceSource])
def test_finished_engine_is_freed_without_cyclic_gc(service, source_type):
    """Sources receive the engine on every hook and never store it, so a
    finished engine (and every record it retains) is freed by reference
    counting alone as soon as the caller drops it."""
    trace = iter_poisson_trace(CAPACITY, **_poisson_kwargs(num_queries=50))
    gc.collect()
    gc.disable()
    try:
        source = source_type(trace)
        engine = ServiceEngine(service, workers=0)
        report = engine.run(source)
        assert report.stats.total_queries == 50
        alive = weakref.ref(engine)
        del engine, source, report
        assert alive() is None
    finally:
        gc.enable()


def test_engine_run_is_reusable(service, trace):
    """A second run() on the same engine is independent of the first."""
    engine = ServiceEngine(service)
    first = engine.run(TraceSource(trace))
    second = engine.run(TraceSource(trace))
    assert second.stats == first.stats
    assert second.served == first.served


def test_engine_run_reusable_after_autoscale():
    trace = list(iter_poisson_trace(
        CAPACITY, **_poisson_kwargs(mean_interarrival=4.0, num_shards=1)
    ))
    service = QRAMService(
        CAPACITY, num_shards=1, functional=False, placement="shortest-queue"
    )
    engine = ServiceEngine(
        service,
        autoscaler=AutoscalerConfig(period=60.0, high_watermark=4, max_shards=3),
    )
    first = engine.run(TraceSource(trace))
    assert first.scale_events  # the fleet actually scaled
    second = engine.run(TraceSource(trace))
    assert second.stats == first.stats
    assert second.scale_events == first.scale_events


def test_fidelity_prediction_memoized(service, trace):
    # workers=0: the engine hot path under test runs on this instance,
    # which a REPRO_WORKERS-partitioned run would never drive directly.
    # The memo itself lives on the backend (instance memo + the shared
    # registry vectors), so repeated engine lookups return the one tuple.
    engine = ServiceEngine(service, workers=0)
    engine.run(TraceSource(trace))
    first = engine._predicted_fidelities(0, 2)
    assert engine._predicted_fidelities(0, 2) is first
    assert first == service.shards[0].predicted_window_fidelities(2)


def test_fidelity_predictions_correct_after_scale_up():
    trace = list(iter_poisson_trace(
        CAPACITY,
        **_poisson_kwargs(mean_interarrival=4.0, num_shards=1, min_fidelity=0.5),
    ))
    service = QRAMService(
        CAPACITY, num_shards=1, functional=False, placement="shortest-queue"
    )
    engine = ServiceEngine(
        service,
        autoscaler=AutoscalerConfig(period=60.0, high_watermark=4, max_shards=3),
    )
    report = engine.run(TraceSource(trace))
    assert any(event.action == "up" for event in report.scale_events)
    # Engine lookups delegate to the live backends, so every shard added
    # by the autoscaler answers with its own (correct, registry-shared)
    # vectors — there is no engine-level cache left to go stale.
    for shard in range(len(engine._backends)):
        for occupancy in (1, 2):
            assert engine._predicted_fidelities(shard, occupancy) == (
                engine._backends[shard].predicted_window_fidelities(occupancy)
            )


def test_duplicate_ids_detected_after_watermark_compaction(service):
    requests = [
        QueryRequest(query_id=i, address_amplitudes={i % 2: 1.0}, request_time=float(i))
        for i in range(6)
    ]
    requests.append(
        QueryRequest(query_id=2, address_amplitudes={0: 1.0}, request_time=9.0)
    )
    with pytest.raises(ValueError, match="duplicate query_id"):
        ServiceEngine(service).run(TraceSource(requests))

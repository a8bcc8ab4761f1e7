"""Partitioned parallel serving: bit-identity, fallbacks, shared caches.

The contract under test (module docstring of :mod:`repro.engine.parallel`):
``ServiceEngine(workers=N)`` produces a report *equal* to ``workers=1``
for every partitionable configuration and equal to the single-process
oracle (``workers=0``) under full retention — same served records, same
windows, same rejections, same stats, byte for byte.  Around that core:

* every unpartitionable configuration falls back to the oracle with an
  observable ``fallback_reason`` (never silently);
* :class:`PartitionedTraceSource` lets workers regenerate only their
  partition of a lazy trace, under a strictly-increasing-id contract;
* the process-wide :class:`ScheduleCacheRegistry` stays coherent across
  the serve/write/serve cycle (write invalidation, warm re-prewarm);
* sanitizer mode extends across the worker boundary (per-partition
  conservation, nondecreasing merged streams).
"""

from __future__ import annotations

import inspect
import itertools

import pytest

import repro.perf.profiler as profiler_module
from repro.core.query import QueryRequest
from repro.engine import (
    AutoscalerConfig,
    ClosedLoopSource,
    ParallelRunInfo,
    PartitionedTraceSource,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
    WORKERS_ENV,
    check_nondecreasing,
    partition_shards,
    partition_unsupported_reason,
)
from repro.engine.events import SanitizerViolation
from repro.engine.parallel import _child_engine
from repro.metrics.sinks import ListSink
from repro.schedule_cache import default_registry
from repro.service import QRAMService
from repro.workloads import (
    closed_loop_source,
    iter_poisson_trace,
    random_data,
)

CAPACITY = 16
NUM_SHARDS = 4


def _service(**overrides):
    kwargs = dict(num_shards=NUM_SHARDS, data=random_data(CAPACITY, seed=3))
    kwargs.update(overrides)
    return QRAMService(CAPACITY, **kwargs)


def _trace_kwargs(**overrides):
    kwargs = dict(
        num_queries=48,
        mean_interarrival=6.0,
        num_tenants=3,
        num_shards=NUM_SHARDS,
        seed=11,
    )
    kwargs.update(overrides)
    return kwargs


def _trace(**overrides):
    return list(iter_poisson_trace(CAPACITY, **_trace_kwargs(**overrides)))


def _serve(service, requests, workers, **engine_kwargs):
    engine = ServiceEngine(service, workers=workers, **engine_kwargs)
    return engine.run(TraceSource(requests))


# ------------------------------------------------------------- bit-identity
def test_workers_bit_identical_to_oracle_full_retention():
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0)
    for workers in (1, 2, 4, 8):
        report = _serve(_service(), requests, workers=workers)
        assert report == oracle, f"workers={workers} diverged from oracle"
        assert report.parallel is not None
        assert report.parallel.fallback_reason is None
        assert report.parallel.workers == min(workers, NUM_SHARDS)
    assert oracle.parallel is None


def test_workers_bit_identical_with_backpressure_and_deadlines():
    requests = _trace(mean_interarrival=1.0, deadline_layers=600.0)
    kwargs = dict(max_queue_depth=2, shed_expired=True)
    oracle = _serve(_service(), requests, workers=0, **kwargs)
    assert oracle.stats.rejected_queries + oracle.stats.shed_queries > 0
    for workers in (1, 3):
        report = _serve(_service(), requests, workers=workers, **kwargs)
        assert report == oracle


@pytest.mark.parametrize("interval", [50.0, 137.0, 500.0])
@pytest.mark.parametrize("backpressure", [False, True], ids=["open", "bounded"])
def test_telemetry_bit_identical_to_oracle(monkeypatch, interval, backpressure):
    """Both paths derive intervals from raw per-shard totals, so the full
    report — telemetry included — matches the oracle at any tick grid, and
    ``REPRO_WORKERS`` parallelizes telemetry runs."""
    if backpressure:
        requests = _trace(
            num_queries=400, mean_interarrival=2.0, deadline_layers=600.0
        )
        kwargs = dict(max_queue_depth=2, shed_expired=True)
    else:
        requests = _trace(num_queries=160)
        kwargs = {}
    oracle = _serve(
        _service(), requests, workers=0, telemetry_interval=interval, **kwargs
    )
    assert len(oracle.telemetry) > 1
    if backpressure:
        assert any(interval.rejected for interval in oracle.telemetry)
    for workers in (1, 2, 4):
        report = _serve(
            _service(),
            requests,
            workers=workers,
            telemetry_interval=interval,
            **kwargs,
        )
        assert report == oracle, f"workers={workers} diverged from oracle"
        assert report.parallel.fallback_reason is None
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = _serve(
        _service(), requests, workers=None, telemetry_interval=interval, **kwargs
    )
    assert report == oracle
    assert report.parallel is not None and report.parallel.workers == 2


def test_streaming_retention_worker_count_invariant():
    requests = _trace(num_queries=64)
    reports = [
        _serve(
            _service(),
            requests,
            workers=workers,
            retention="none",
            telemetry_interval=500.0,
        )
        for workers in (1, 3)
    ]
    assert reports[0] == reports[1]
    assert reports[0].telemetry, "telemetry intervals must survive the merge"
    assert reports[0].stats.total_queries == len(requests)


@pytest.mark.parametrize("retention", ["none", "sampled"])
def test_streaming_percentiles_equal_oracle(retention):
    """Sketch merges add bucket counts, so a partitioned streaming run
    reports exactly the oracle's latency percentiles."""
    requests = _trace()
    oracle, split = (
        _serve(_service(), requests, workers=workers, retention=retention)
        for workers in (0, 2)
    )
    for name in ("p50_latency_layers", "p95_latency_layers", "p99_latency_layers"):
        assert getattr(split.stats, name) == getattr(oracle.stats, name)
    assert split.stats.per_tenant.keys() == oracle.stats.per_tenant.keys()
    for tenant, stats in oracle.stats.per_tenant.items():
        assert (
            split.stats.per_tenant[tenant].p95_latency_layers
            == stats.p95_latency_layers
        )


def test_sampled_retention_worker_count_invariant():
    requests = _trace(num_queries=64)
    one, two = (
        _serve(
            _service(),
            requests,
            workers=workers,
            retention="sampled",
            sample_size=16,
        )
        for workers in (1, 2)
    )
    assert one == two


def test_repeated_runs_are_seed_stable():
    requests = _trace()
    first = _serve(_service(), requests, workers=4)
    second = _serve(_service(), requests, workers=4)
    assert first == second


def test_partitioned_trace_source_matches_materialized_trace():
    def factory(shards):
        return iter_poisson_trace(
            CAPACITY, **_trace_kwargs(), shards=shards
        )

    oracle = _serve(_service(), list(factory(None)), workers=0)
    for workers in (1, 2, 4):
        engine = ServiceEngine(_service(), workers=workers)
        report = engine.run(PartitionedTraceSource(factory))
        assert report == oracle, f"workers={workers} diverged from oracle"
        assert report.parallel.fallback_reason is None


def test_error_messages_identical_across_worker_counts():
    requests = _trace(num_queries=12)
    duplicated = requests + [requests[-1]]
    messages = []
    for workers in (0, 1, 4):
        with pytest.raises(ValueError) as excinfo:
            _serve(_service(), duplicated, workers=workers)
        messages.append(str(excinfo.value))
    assert len(set(messages)) == 1
    assert "duplicate query_id" in messages[0]


def test_child_engine_inherits_parent_knobs():
    """Every __init__ knob reaches the per-shard child engine unchanged,
    except the ones partitioning must override."""
    parent = ServiceEngine(
        _service(),
        max_queue_depth=3,
        shed_expired=True,
        max_distillation_copies=2,
        retention="sampled",
        sample_size=7,
        sample_seed=9,
        telemetry_interval=50.0,
        sink=ListSink(),
        sanitize=True,
        workers=3,
        profile=True,
    )
    child = _child_engine(parent, shard=2)
    overrides = dict(autoscaler=None, sink=None, workers=0, sample_seed=9 + 4 * 2)
    parameters = list(inspect.signature(ServiceEngine.__init__).parameters)[2:]
    assert set(overrides) <= set(parameters)
    for name in parameters:
        expected = overrides.get(name, getattr(parent, name))
        assert getattr(child, name) == expected, name
    assert child.fleet is parent.fleet
    assert parent._dedupe and not child._dedupe


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_seconds_come_from_the_injected_host_clock(monkeypatch, workers):
    requests = _trace()
    report = _serve(_service(), requests, workers=workers)
    assert report.parallel.worker_seconds == (0.0,) * workers
    ticks = itertools.count()
    monkeypatch.setattr(profiler_module, "host_clock", lambda: float(next(ticks)))
    report = _serve(_service(), requests, workers=workers)
    assert len(report.parallel.worker_seconds) == workers
    assert all(seconds > 0 for seconds in report.parallel.worker_seconds)


# ------------------------------------------------------------ env / explicit
def test_workers_zero_is_the_plain_oracle():
    report = _serve(_service(), _trace(), workers=0)
    assert report.parallel is None


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        ServiceEngine(_service(), workers=-1)


def test_env_workers_auto_parallelizes_full_retention(monkeypatch):
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0)
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = ServiceEngine(_service()).run(TraceSource(requests))
    assert report == oracle
    assert report.parallel is not None and report.parallel.workers == 2


def test_env_workers_leaves_non_oracle_configs_alone(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = ServiceEngine(_service(), retention="sampled").run(
        TraceSource(_trace())
    )
    # Env-driven parallelism only engages where the merged report is
    # provably byte-equal to the oracle; sampled retention is invariant
    # across worker counts but not across the oracle boundary.
    assert report.parallel is None


def test_env_workers_rejects_non_integer(monkeypatch):
    requests = _trace()
    monkeypatch.setenv(WORKERS_ENV, "four")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        ServiceEngine(_service()).run(TraceSource(requests))
    # Unset and 0 keep their meaning: the single-process oracle.
    monkeypatch.setenv(WORKERS_ENV, "0")
    assert ServiceEngine(_service()).run(TraceSource(requests)).parallel is None
    monkeypatch.delenv(WORKERS_ENV)
    assert ServiceEngine(_service()).run(TraceSource(requests)).parallel is None


# ----------------------------------------------------------------- fallbacks
@pytest.mark.parametrize(
    "build, fragment",
    [
        (
            lambda: (
                ServiceEngine(
                    _service(placement="shortest-queue"),
                    autoscaler=AutoscalerConfig(
                        period=500.0, high_watermark=3, max_shards=4
                    ),
                ),
                TraceSource(_trace()),
            ),
            "any replica",
        ),
        (
            lambda: (
                ServiceEngine(_service(), sink=ListSink()),
                TraceSource(_trace()),
            ),
            "external record sink",
        ),
        (
            lambda: (
                ServiceEngine(
                    QRAMService(
                        CAPACITY,
                        num_shards=1,
                        data=random_data(CAPACITY, seed=3),
                    )
                ),
                TraceSource(_trace(num_shards=1)),
            ),
            "single-shard fleet",
        ),
        (
            lambda: (
                ServiceEngine(_service(policy="random")),
                TraceSource(_trace()),
            ),
            "shared random state",
        ),
        (
            lambda: (
                ServiceEngine(_service()),
                StreamingTraceSource(iter(_trace())),
            ),
            "PartitionedTraceSource",
        ),
        (
            lambda: (
                ServiceEngine(_service()),
                closed_loop_source(
                    CAPACITY,
                    num_clients=3,
                    queries_per_client=4,
                    think_layers=50.0,
                    num_shards=NUM_SHARDS,
                    seed=5,
                ),
            ),
            "completion feedback",
        ),
    ],
    ids=[
        "autoscaler",
        "sink",
        "single-shard",
        "random-policy",
        "plain-streaming",
        "closed-loop",
    ],
)
def test_unpartitionable_configs_fall_back_with_reason(build, fragment):
    engine, source = build()
    reason = partition_unsupported_reason(engine, source)
    assert reason is not None and fragment in reason
    engine.workers = 4
    report = engine.run(source)
    assert report.parallel == ParallelRunInfo(
        workers=0, partitions=0, fallback_reason=reason, worker_seconds=()
    )


def test_autoscaled_run_still_serves_under_requested_workers():
    engine = ServiceEngine(
        _service(placement="shortest-queue"),
        autoscaler=AutoscalerConfig(
            period=200.0, high_watermark=2, max_shards=4
        ),
        workers=4,
    )
    report = engine.run(TraceSource(_trace(mean_interarrival=2.0)))
    assert report.stats.total_queries == 48
    assert report.parallel.workers == 0
    assert "any replica" in report.parallel.fallback_reason


# ------------------------------------------------- partitioned trace source
def test_partitioned_source_requires_increasing_ids():
    def factory(shards):
        yield QueryRequest(
            query_id=5, address_amplitudes={0: 1.0}, request_time=0.0
        )
        yield QueryRequest(
            query_id=3, address_amplitudes={1: 1.0}, request_time=1.0
        )

    source = PartitionedTraceSource(factory)
    with pytest.raises(ValueError, match="strictly increasing"):
        list(source.shard_requests((0,)))


def test_worker_failure_reraises_the_original_error():
    """A failing partition surfaces the oracle's exception, in-process
    (workers=1) and from a forked worker alike."""

    def factory(shards):
        if shards is None or 0 in shards:
            for query_id, address in ((5, 0), (3, 4)):  # both on shard 0
                yield QueryRequest(
                    query_id=query_id,
                    address_amplitudes={address: 1.0},
                    request_time=float(query_id),
                )

    messages = set()
    for workers in (0, 1, 2):
        engine = ServiceEngine(_service(), workers=workers)
        with pytest.raises(ValueError, match="strictly increasing") as excinfo:
            engine.run(PartitionedTraceSource(factory))
        messages.add(str(excinfo.value))
    assert len(messages) == 1


def test_partition_shards_round_robin_drops_empty_groups():
    assert partition_shards(5, 2) == [[0, 2, 4], [1, 3]]
    assert partition_shards(2, 8) == [[0], [1]]
    assert partition_shards(3, 1) == [[0, 1, 2]]


def test_shard_filtered_generation_matches_unfiltered():
    full = list(iter_poisson_trace(CAPACITY, **_trace_kwargs()))
    service = _service()
    regenerated = []
    for shard in range(NUM_SHARDS):
        regenerated.extend(
            iter_poisson_trace(CAPACITY, **_trace_kwargs(), shards=(shard,))
        )
    regenerated.sort(key=lambda request: request.query_id)
    assert regenerated == full
    # and every filtered request really is owned by the claimed shard
    owned = set()
    for request in iter_poisson_trace(
        CAPACITY, **_trace_kwargs(), shards=(1,)
    ):
        owned.add(service.shard_map.route(request.address_amplitudes)[0])
    assert owned == {1}


# --------------------------------------------------------------- shared cache
def test_registry_shares_executors_and_invalidates_on_write():
    registry = default_registry()
    registry.clear()
    service = _service()
    first = registry.stats()
    assert first.entries > 0, "fleet build must prewarm the registry"
    assert first.misses > 0 and first.hits == 0

    # A second fleet holding the identical memory images resolves every
    # shard to the already-shared executors: all hits, no new entries.
    _service()
    warmed = registry.stats()
    assert warmed.hits >= first.misses
    assert warmed.misses == first.misses
    assert warmed.entries == first.entries

    requests = _trace(num_queries=24)
    report = _serve(service, requests, workers=1)
    assert report.stats.total_queries == 24

    invalidations = registry.stats().invalidations
    service.write_memory(1, 1)
    assert registry.stats().invalidations > invalidations, (
        "write_memory must fan the invalidation out to the registry"
    )
    rerun = _serve(service, requests, workers=1)
    assert rerun.stats.total_queries == 24


def test_forked_workers_match_with_cold_parent_cache():
    # Even a cleared registry must not change results — only speed.
    requests = _trace()
    registry = default_registry()
    service = _service()
    oracle = _serve(service, requests, workers=0)
    registry.clear()
    report = _serve(service, requests, workers=4)
    assert report == oracle


# ----------------------------------------------------------------- sanitizer
def test_sanitizer_clean_across_worker_boundary():
    requests = _trace()
    oracle = _serve(_service(), requests, workers=0, sanitize=True)
    for workers in (1, 4):
        report = _serve(_service(), requests, workers=workers, sanitize=True)
        assert report == oracle


def test_check_nondecreasing_flags_out_of_order_stream():
    with pytest.raises(SanitizerViolation, match="stream 1 is not nondecreasing"):
        check_nondecreasing([[1, 2, 3], [5, 4]], key=lambda item: item)
    check_nondecreasing([[1, 3], [2, 2, 4]], key=lambda item: item)


# ----------------------------------------------------------- aggregator merge
def test_merge_service_aggregators_matches_single_aggregator():
    requests = _trace(num_queries=64)
    full = ServiceEngine(_service(), retention="none").run(
        TraceSource(requests)
    )
    split = ServiceEngine(_service(), retention="none", workers=2).run(
        TraceSource(requests)
    )
    assert split.stats.total_queries == full.stats.total_queries
    assert split.stats.mean_latency_layers == pytest.approx(
        full.stats.mean_latency_layers
    )
    for tenant, stats in full.stats.per_tenant.items():
        merged = split.stats.per_tenant[tenant]
        assert merged.queries == stats.queries
        assert merged.mean_latency_layers == pytest.approx(
            stats.mean_latency_layers
        )

"""QRAM serving layer: sharding, batched windows, policies, tenant stats."""

import pytest

from repro import QRAMService, ServiceEngine, TraceSource
from repro.core.query import QueryRequest
from repro.service.sharding import InterleavedShardMap
from repro.workloads import (
    iter_poisson_trace,
    random_data,
    shard_aligned_superposition,
)


# ------------------------------------------------------------------ sharding
def test_shard_map_round_trip():
    shard_map = InterleavedShardMap(32, 4)
    assert shard_map.shard_capacity == 8
    for address in range(32):
        shard, local = shard_map.route({address: 1.0})
        assert [shard_map.global_address(shard, a) for a in local] == [address]
    # Interleaving: consecutive addresses land on consecutive shards.
    assert [shard_map.route({a: 1.0})[0] for a in range(4)] == [0, 1, 2, 3]


def test_shard_map_routes_aligned_superpositions():
    shard_map = InterleavedShardMap(16, 2)
    amps = shard_aligned_superposition(16, 2, shard=1, num_addresses=3, seed=0)
    assert all(a % 2 == 1 for a in amps)
    shard, local = shard_map.route(amps)
    assert shard == 1
    assert set(local) == {a // 2 for a in amps}


def test_shard_map_rejects_spanning_superpositions():
    shard_map = InterleavedShardMap(16, 2)
    with pytest.raises(
        ValueError,
        match=r"^address superposition spans shards \[0, 1\]; "
        "queries must target a single shard$",
    ):
        shard_map.route({0: 0.7, 1: 0.7})
    with pytest.raises(ValueError):
        shard_map.route({})
    # Every address is range-checked first, even where the superposition
    # also spans shards.
    for amps in ({0: 0.7, 16: 0.7}, {1: 0.7, 16: 0.7}, {16: 0.7, 1: 0.7}):
        with pytest.raises(ValueError, match=r"^address 16 out of range$"):
            shard_map.route(amps)


def test_shard_map_validates_configuration():
    with pytest.raises(ValueError):
        InterleavedShardMap(16, 3)        # not a power of two
    with pytest.raises(ValueError):
        InterleavedShardMap(8, 8)         # shards of capacity 1
    with pytest.raises(ValueError):
        InterleavedShardMap(16, 2).route({16: 1.0})


def test_shard_data_slices_interleaved_memory():
    shard_map = InterleavedShardMap(8, 2)
    data = [0, 1, 2, 3, 4, 5, 6, 7]
    assert shard_map.shard_data(data, 0) == [0, 2, 4, 6]
    assert shard_map.shard_data(data, 1) == [1, 3, 5, 7]


# ------------------------------------------------------------------- serving
def test_service_serves_poisson_trace_functionally():
    capacity = 16
    data = random_data(capacity, seed=3)
    service = QRAMService(capacity, num_shards=2, data=data)
    trace = list(iter_poisson_trace(
        capacity, 24, mean_interarrival=10.0, num_tenants=3, num_shards=2, seed=5
    ))
    report = ServiceEngine(service).run(TraceSource(trace))

    assert report.stats.total_queries == 24
    assert len(report.outputs) == 24
    for record in report.served:
        assert record.fidelity == pytest.approx(1.0)
        assert record.finish_layer > record.start_layer > record.admit_layer
        assert record.admit_layer >= record.request_time
    # Functional check against the classical memory: every output address
    # carries data[address] XOR'd into the bus.
    for request in trace:
        for (address, bus), _amp in report.outputs[request.query_id].items():
            assert bus == data[address]


def _bursts(capacity, bursts, size):
    """``size`` simultaneous requests at each burst time, alternating
    between the two shards of a 2-shard interleaved fleet."""
    return [
        QueryRequest(
            query_id=i,
            address_amplitudes=shard_aligned_superposition(
                capacity, 2, i % 2, 2, seed=i
            ),
            request_time=time,
        )
        for i, time in enumerate(t for t in bursts for _ in range(size))
    ]


def test_service_batches_into_pipeline_windows():
    capacity = 16        # 2 shards of capacity 8 -> window of up to 3 queries
    service = QRAMService(capacity, num_shards=2, data=random_data(capacity))
    # Two simultaneous bursts of 12 that fill each shard's windows.
    trace = _bursts(capacity, bursts=(0.0, 400.0), size=12)
    report = ServiceEngine(service).run(TraceSource(trace))
    parallelism = service.shards[0].query_parallelism
    assert any(w.batch_size > 1 for w in report.windows)
    assert all(w.batch_size <= parallelism for w in report.windows)
    # Inside a window, admissions are spaced by the shard's cached interval.
    interval = service.shards[0].model.cached_executor().minimum_feasible_interval()
    for window in report.windows:
        assert window.interval == interval
        batch = [s for s in report.served
                 if s.shard == window.shard and s.admit_layer == window.admit_layer]
        starts = sorted(s.start_layer for s in batch)
        assert all(b - a == interval for a, b in zip(starts, starts[1:]))


def test_service_fifo_preserves_arrival_order_per_shard():
    capacity = 16
    service = QRAMService(capacity, num_shards=2, functional=False)
    trace = iter_poisson_trace(
        capacity, 30, mean_interarrival=3.0, num_shards=2, seed=9
    )
    report = ServiceEngine(service).run(TraceSource(trace))
    by_shard = {}
    for record in sorted(report.served, key=lambda s: s.start_layer):
        by_shard.setdefault(record.shard, []).append(record.request_time)
    for times in by_shard.values():
        assert times == sorted(times)


def test_service_policies_differ_under_backlog():
    capacity = 16
    trace = _bursts(capacity, bursts=(0.0,), size=12)
    latencies = {}
    for policy in ("fifo", "lifo"):
        service = QRAMService(capacity, num_shards=2, policy=policy, functional=False)
        report = ServiceEngine(service).run(TraceSource(trace))
        latencies[policy] = report.stats.mean_latency_layers
        assert report.stats.total_queries == 12
    # FIFO minimises total latency (Sec. A.2); with a simultaneous burst the
    # two policies reorder admissions but the mean latency of FIFO is never
    # worse.
    assert latencies["fifo"] <= latencies["lifo"] + 1e-9


def test_service_per_tenant_and_per_shard_stats():
    capacity = 16
    service = QRAMService(capacity, num_shards=2, functional=False)
    trace = list(iter_poisson_trace(
        capacity, 40, mean_interarrival=5.0, num_tenants=4, num_shards=2, seed=11
    ))
    report = ServiceEngine(service).run(TraceSource(trace))
    stats = report.stats
    assert sorted(stats.per_tenant) == [0, 1, 2, 3]
    assert sum(t.queries for t in stats.per_tenant.values()) == 40
    assert sum(s.queries for s in stats.per_shard.values()) == 40
    for tenant in stats.per_tenant.values():
        assert tenant.mean_latency_layers >= tenant.mean_queue_delay_layers
        assert tenant.throughput_queries_per_sec > 0
    for shard in stats.per_shard.values():
        assert 0.0 < shard.utilization <= 1.0
        assert shard.max_queue_depth >= 1
        assert shard.windows >= 1
    assert stats.bandwidth_queries_per_sec == pytest.approx(
        40 / stats.makespan_layers * 1.0e6
    )


def test_service_timing_matches_functional():
    """Timing-only serving reproduces the functional schedule exactly."""
    capacity = 16
    data = random_data(capacity, seed=6)
    trace = list(iter_poisson_trace(
        capacity, 10, mean_interarrival=20.0, num_shards=2, seed=6
    ))
    functional = ServiceEngine(
        QRAMService(capacity, num_shards=2, data=data)
    ).run(TraceSource(trace))
    timing = ServiceEngine(
        QRAMService(capacity, num_shards=2, data=data, functional=False)
    ).run(TraceSource(trace))
    for f, t in zip(functional.served, timing.served):
        assert (f.query_id, f.shard, f.start_layer, f.finish_layer) == (
            t.query_id, t.shard, t.start_layer, t.finish_layer
        )
    assert timing.outputs == {}


def test_service_memory_image_routes_to_shard():
    capacity = 8
    data = [0] * capacity
    data[5] = 1                           # shard 1, local address 2
    service = QRAMService(capacity, num_shards=2, data=data)
    assert service.shards[1].data[2] == 1
    assert service.shards[0].data == [0, 0, 0, 0]
    request = QueryRequest(0, {5: 1.0}, request_time=0.0)
    report = ServiceEngine(service).run(TraceSource([request]))
    assert report.outputs[0] == {(5, 1): pytest.approx(1.0)}


def test_service_rejects_bad_input():
    engine = ServiceEngine(QRAMService(16, num_shards=2))
    with pytest.raises(ValueError):
        TraceSource([])
    with pytest.raises(ValueError):
        engine.run(TraceSource([QueryRequest(0)]))          # no amplitudes
    with pytest.raises(ValueError, match="spans shards"):
        engine.run(TraceSource([QueryRequest(0, {0: 0.7, 1: 0.7})]))
    with pytest.raises(ValueError, match="duplicate query_id"):
        engine.run(
            TraceSource([QueryRequest(0, {0: 1.0}), QueryRequest(0, {2: 1.0})])
        )
    with pytest.raises(ValueError):
        QRAMService(16, num_shards=2, window_size=0)
    # Oversized windows are capped at the architectural parallelism.
    assert QRAMService(16, num_shards=2, window_size=99).window_size == 3


def test_service_parallelism_and_report_lookup():
    service = QRAMService(32, num_shards=4)
    assert [shard.query_parallelism for shard in service.shards] == [3] * 4
    trace = iter_poisson_trace(32, 5, mean_interarrival=50.0, num_shards=4, seed=1)
    report = ServiceEngine(service).run(TraceSource(trace))
    assert report.result_for(3).query_id == 3
    with pytest.raises(KeyError):
        report.result_for(99)

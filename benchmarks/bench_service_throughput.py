"""Serving-layer throughput, the schedule-cache speedups, and the backend axis.

Measurements:

* the Fat-Tree window-program hit: a warm window at a fixed capacity and
  occupancy reuses the cached executor's minimum feasible interval and
  compiled window program, where a cold window (fresh
  ``FatTreeExecutor``) searches the interval and compiles the program —
  the warm path must be at least 5x faster;
* the BB window-program hit: the serving path's cached ``BBExecutor``
  reuses its compiled one-slot program, where a cold query (fresh
  ``BBExecutor``) builds the schedule and lowers it — the same program,
  and the same >= 5x guarantee;
* end-to-end service throughput: a multi-shard :class:`QRAMService`
  draining a Poisson trace, reported as queries/second of simulated
  hardware time and wall-clock serving rate;
* the backend axis: the same trace drained by every registered
  architecture (Fat-Tree, BB, Virtual, D-Fat-Tree, D-BB), comparing
  makespans and bandwidths across the fleet choices;
* the offered-load saturation axis: the same fleet under light to
  saturating Poisson load with SLO deadlines, bounded queues and expired-
  deadline shedding — the discrete-event engine's p95 latency, deadline-
  miss-rate and reject/shed accounting as the load crosses capacity;
* the fidelity axis: the same trace drained by a bare fleet, a mixed
  bare + ``distance=3`` encoded fleet, and the mixed fleet under a
  per-request fidelity SLO — comparing predicted mean/min fidelity,
  fidelity-reject counts and the throughput cost of quality;
* the workers axis: one partitioned Poisson trace served at
  ``workers`` = 1 / 2 / 4 — the merged report must compare equal at every
  worker count (the parallel core's bit-identity contract) while each
  worker regenerates only its own shards' requests;
* the scenario axis: every named adversarial scenario of
  :mod:`repro.scenarios.library` (flash crowd, misbehaving tenant,
  deadline-impossible) drained end to end from its declarative
  :class:`~repro.scenarios.ScenarioSpec`, comparing how
  each stress pattern trades served counts, rejections and tail latency;
* the retention axis: one 5,000-query streaming trace served under
  ``retention="full"`` vs ``retention="none"`` — identical counts and
  means, sketched percentiles within a few percent, and an
  order-of-magnitude drop in peak traced memory (the bounded-memory
  observation path of ``bench_service_scale.py`` at benchmark scale).
"""

import time
import tracemalloc

import pytest
from conftest import print_rows

from repro.baselines.registry import backend_names
from repro.bucket_brigade.executor import BBExecutor
from repro.bucket_brigade.qram import BucketBrigadeQRAM
from repro.core.executor import FatTreeExecutor
from repro.core.qram import FatTreeQRAM
from repro.engine import (
    PartitionedTraceSource,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
)
from repro.hardware.parameters import TABLE3_PARAMETERS
from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
    library_names,
    library_scenario,
)
from repro.service import QRAMService
from repro.workloads import iter_poisson_trace, random_data

CAPACITY = 32
BATCH = 4
REPEATS = 10


def _window_program_cold() -> int:
    """A cold window: a fresh executor searches the feasible interval and
    compiles the window's program before its first gate."""
    executor = FatTreeExecutor(CAPACITY, [0] * CAPACITY)
    interval = executor.minimum_feasible_interval(BATCH)
    return len(executor.window_program(BATCH, interval).gates)


def _window_program_warm(qram: FatTreeQRAM) -> int:
    """A warm window: the cached executor's interval and compiled program."""
    executor = qram.cached_executor()
    interval = executor.minimum_feasible_interval(BATCH)
    return len(executor.window_program(BATCH, interval).gates)


def test_schedule_cache_speedup(benchmark):
    qram = FatTreeQRAM(CAPACITY, [0] * CAPACITY)
    _window_program_warm(qram)            # compile the program once

    start = time.perf_counter()
    for _ in range(REPEATS):
        _window_program_cold()
    cold_seconds = (time.perf_counter() - start) / REPEATS

    start = time.perf_counter()
    for _ in range(REPEATS * 100):
        _window_program_warm(qram)
    warm_seconds = (time.perf_counter() - start) / (REPEATS * 100)

    speedup = cold_seconds / warm_seconds
    benchmark(_window_program_warm, qram)
    print_rows(
        f"Fat-Tree window programs — capacity {CAPACITY}, {BATCH}-query windows",
        {
            "cold_ms_per_window": cold_seconds * 1e3,
            "warm_ms_per_window": warm_seconds * 1e3,
            "speedup": speedup,
        },
    )
    # Both paths must compile the same program.
    assert _window_program_cold() == _window_program_warm(qram)
    assert speedup >= 5.0


def _bb_program_cold() -> tuple:
    """A cold BB query: a fresh executor builds the schedule and lowers
    it into its one-slot program."""
    program = BBExecutor(CAPACITY, [0] * CAPACITY).window_program()
    return program.layout.qubits, program.registers, program.gates


def _bb_program_warm(qram: BucketBrigadeQRAM) -> tuple:
    """A warm BB query: the cached executor's compiled program."""
    program = qram.cached_executor().window_program()
    return program.layout.qubits, program.registers, program.gates


def test_bb_schedule_cache_speedup(benchmark):
    """The BB window-program cache matches the Fat-Tree guarantee."""
    qram = BucketBrigadeQRAM(CAPACITY, [0] * CAPACITY)
    _bb_program_warm(qram)                # compile the program once

    start = time.perf_counter()
    for _ in range(REPEATS):
        _bb_program_cold()
    cold_seconds = (time.perf_counter() - start) / REPEATS

    start = time.perf_counter()
    for _ in range(REPEATS * 100):
        _bb_program_warm(qram)
    warm_seconds = (time.perf_counter() - start) / (REPEATS * 100)

    speedup = cold_seconds / warm_seconds
    benchmark(_bb_program_warm, qram)
    print_rows(
        f"BB window programs — capacity {CAPACITY}, one-query windows",
        {
            "cold_ms_per_query": cold_seconds * 1e3,
            "warm_ms_per_query": warm_seconds * 1e3,
            "speedup": speedup,
        },
    )
    # Both paths must compile the same program.
    assert _bb_program_cold() == _bb_program_warm(qram)
    assert speedup >= 5.0


def test_service_throughput_poisson(benchmark):
    capacity = 16
    data = random_data(capacity, seed=1)
    trace = list(iter_poisson_trace(
        capacity, 60, mean_interarrival=8.0, num_tenants=3, num_shards=2, seed=7
    ))

    def serve():
        service = QRAMService(capacity, num_shards=2, data=data)
        return ServiceEngine(service).run(TraceSource(trace))

    start = time.perf_counter()
    report = serve()
    wall_seconds = time.perf_counter() - start
    benchmark(lambda: report)
    stats = report.stats
    print_rows(
        "Service throughput — 2 shards, 60-query Poisson trace, capacity 16",
        {
            "queries": stats.total_queries,
            "makespan_layers": stats.makespan_layers,
            "bandwidth_queries_per_sec": stats.bandwidth_queries_per_sec,
            "mean_latency_layers": stats.mean_latency_layers,
            "mean_queue_delay_layers": stats.mean_queue_delay_layers,
            "wall_clock_queries_per_sec": stats.total_queries / wall_seconds,
            "shard_utilization": {
                shard: round(s.utilization, 3) for shard, s in stats.per_shard.items()
            },
        },
    )
    assert stats.total_queries == 60
    assert all(r.fidelity is not None and abs(r.fidelity - 1.0) < 1e-6
               for r in report.served)


def test_service_throughput_backend_axis(benchmark):
    """The same trace drained by every registered architecture."""
    capacity = 16
    data = random_data(capacity, seed=2)
    trace = list(iter_poisson_trace(
        capacity, 40, mean_interarrival=6.0, num_tenants=2, num_shards=2, seed=3
    ))

    def serve_all():
        results = {}
        for name in backend_names():
            service = QRAMService(
                capacity, num_shards=2, data=data, architecture=name,
                functional=False,
            )
            results[name] = ServiceEngine(service).run(TraceSource(trace)).stats
        return results

    results = serve_all()
    benchmark(serve_all)
    rows = {}
    for name, stats in results.items():
        rows[name] = {
            "makespan_layers": round(stats.makespan_layers, 1),
            "bandwidth_q_per_s": round(stats.bandwidth_queries_per_sec),
            "mean_latency_layers": round(stats.mean_latency_layers, 1),
        }
    print_rows(
        "Backend axis — 40-query Poisson trace, 2 shards, capacity 16",
        rows,
    )
    assert set(results) == set(backend_names())
    for name, stats in results.items():
        assert stats.total_queries == 40, name
        assert name in stats.per_backend


def _saturation_scenario(mean_interarrival: float) -> ScenarioSpec:
    """One point on the offered-load axis as a declarative scenario."""
    return ScenarioSpec(
        name=f"saturation-{mean_interarrival:g}",
        fleet=FleetSpec(
            capacity=16, shards=("Fat-Tree", "Fat-Tree"), functional=False,
        ),
        workload=WorkloadSpec(
            kind="poisson", num_queries=48,
            mean_interarrival=mean_interarrival, num_tenants=3, seed=13,
            deadline_layers=150.0,
        ),
        policy=PolicySpec(max_queue_depth=8, shed_expired=True),
    )


def test_service_saturation_axis(benchmark):
    """Offered load from light to saturating, under SLO-aware serving.

    The same 2-shard fleet drains Poisson traces whose mean interarrival
    shrinks past the fleet's service rate, with per-request deadlines,
    bounded queues and expired-deadline shedding.  Under light load
    nothing is rejected; under saturation the engine sheds / rejects and
    the deadline-miss-rate climbs — the accounting a serving system is
    sized by.  Each load point is one :class:`ScenarioSpec`.
    """
    num_queries = 48
    loads = {"light": 120.0, "moderate": 30.0, "saturated": 2.0}

    def sweep():
        return {
            label: _saturation_scenario(mean_interarrival).execute().stats
            for label, mean_interarrival in loads.items()
        }

    results = sweep()
    benchmark(sweep)
    rows = {}
    for label, stats in results.items():
        rows[label] = {
            "offered": stats.offered_queries,
            "served": stats.total_queries,
            "rejected": stats.rejected_queries,
            "shed": stats.shed_queries,
            "p95_latency_layers": round(stats.p95_latency_layers, 1),
            "deadline_miss_rate": round(stats.deadline_miss_rate, 3),
            "bandwidth_q_per_s": round(stats.bandwidth_queries_per_sec),
        }
    print_rows(
        "Saturation axis — 2 shards, capacity 16, 48-query Poisson traces",
        rows,
    )
    for stats in results.values():
        assert stats.offered_queries == num_queries
    light, saturated = results["light"], results["saturated"]
    assert light.rejected_queries == 0 and light.shed_queries == 0
    assert light.deadline_miss_rate == 0.0
    assert saturated.rejected_queries + saturated.shed_queries > 0
    assert saturated.deadline_miss_rate > light.deadline_miss_rate
    assert saturated.p95_latency_layers >= light.p95_latency_layers


def _fidelity_scenario(
    architectures: tuple[str, ...], min_fidelity: float | None
) -> ScenarioSpec:
    """One fleet choice on the quality axis as a declarative scenario."""
    return ScenarioSpec(
        name="fidelity-axis",
        fleet=FleetSpec(
            capacity=16, shards=architectures, placement="shortest-queue",
            functional=False, parameters=TABLE3_PARAMETERS[1e-4],
        ),
        workload=WorkloadSpec(
            kind="poisson", num_queries=32, mean_interarrival=30.0,
            num_tenants=2, seed=11, min_fidelity=min_fidelity,
        ),
    )


def test_service_fidelity_axis(benchmark):
    """Quality-of-result as a serving axis: bare vs mixed-encoded fleets.

    The same Poisson trace is drained by an all-bare Fat-Tree fleet, a
    mixed bare + ``distance=3`` encoded fleet, and the mixed fleet again
    with every request carrying a ``min_fidelity`` SLO only the encoded
    replica can meet.  The encoded replica lifts mean/min fidelity, and
    the SLO pins all traffic onto it — quality bought with makespan.
    Each fleet choice is one :class:`ScenarioSpec` (eps0 = 1e-4 is below
    the code threshold, where d=3 helps).
    """
    num_queries = 32
    fleets = {
        "bare": (("Fat-Tree", "Fat-Tree"), None),
        "mixed": (("Fat-Tree", "Fat-Tree@d3"), None),
        "mixed+slo": (("Fat-Tree", "Fat-Tree@d3"), 0.995),
    }

    def sweep():
        return {
            label: _fidelity_scenario(arch, slo).execute().stats
            for label, (arch, slo) in fleets.items()
        }

    results = sweep()
    benchmark(sweep)
    rows = {}
    for label, stats in results.items():
        rows[label] = {
            "served": stats.total_queries,
            "fidelity_rejected": stats.fidelity_rejected_queries,
            "mean_fidelity": round(stats.mean_fidelity, 5),
            "min_fidelity": round(stats.min_fidelity, 5),
            "slo_miss_rate": round(stats.fidelity_slo_miss_rate, 3),
            "makespan_layers": round(stats.makespan_layers, 1),
            "per_backend_mean": {
                name: round(b.mean_fidelity, 5)
                for name, b in stats.per_backend.items()
            },
        }
    print_rows(
        "Fidelity axis — 2 shards, capacity 16, 32-query Poisson trace",
        rows,
    )
    bare, mixed, slo = results["bare"], results["mixed"], results["mixed+slo"]
    for stats in results.values():
        assert stats.total_queries == num_queries
        assert stats.mean_fidelity is not None
    # The encoded replica lifts the fleet's fidelity aggregates.
    assert mixed.mean_fidelity > bare.mean_fidelity
    assert mixed.per_backend["Fat-Tree@d3"].mean_fidelity > (
        mixed.per_backend["Fat-Tree"].mean_fidelity
    )
    # Under the SLO every query serves on the encoded replica and meets it.
    assert slo.fidelity_slo_misses == 0
    assert slo.min_fidelity >= 0.995
    assert set(slo.per_backend) == {"Fat-Tree@d3"}
    # Quality costs time: one encoded replica absorbs the whole trace.
    assert slo.makespan_layers > mixed.makespan_layers


def test_service_retention_axis(benchmark):
    """Record retention vs memory: the streaming observation path.

    The same lazily generated 5,000-query Poisson trace is served twice —
    once retaining every record (the historical behaviour) and once with
    ``retention="none"`` (streaming aggregates only).  The two reports
    must agree on every count and mean; the record-free run's peak traced
    memory must be far below the full-retention run's, which grows with
    the trace.
    """
    capacity = 8
    num_queries = 5_000

    def serve(retention):
        trace = iter_poisson_trace(
            capacity, num_queries, mean_interarrival=14.0,
            addresses_per_query=1, num_tenants=4, num_shards=2, seed=5,
        )
        service = QRAMService(capacity, num_shards=2, functional=False)
        return ServiceEngine(
            service, retention=retention, telemetry_interval=10_000.0
        ).run(StreamingTraceSource(trace))

    serve("none")                          # warm schedule caches
    results = {}
    for retention in ("full", "none"):
        tracemalloc.start()
        start = time.perf_counter()
        report = serve(retention)
        wall = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        results[retention] = (report, wall, peak)

    benchmark(lambda: results)
    rows = {}
    for retention, (report, wall, peak) in results.items():
        rows[retention] = {
            "served": report.stats.total_queries,
            "records_retained": len(report.served),
            "wall_seconds": round(wall, 2),
            "traced_peak_kb": round(peak / 1024, 1),
            "p95_latency_layers": round(report.stats.p95_latency_layers, 1),
            "telemetry_intervals": len(report.telemetry),
        }
    print_rows(
        "Retention axis — 5,000-query streaming Poisson trace, 2 shards",
        rows,
    )
    full_report, _, full_peak = results["full"]
    none_report, _, none_peak = results["none"]
    assert full_report.stats.total_queries == num_queries
    assert none_report.stats.total_queries == num_queries
    assert none_report.served == []
    assert none_report.stats.mean_latency_layers == pytest.approx(
        full_report.stats.mean_latency_layers
    )
    assert none_report.stats.p95_latency_layers == pytest.approx(
        full_report.stats.p95_latency_layers, rel=0.1
    )
    # The record-free observation path is the memory win the scale
    # benchmark builds on.
    assert none_peak < full_peak / 4


def test_service_workers_axis(benchmark):
    """The partitioned-parallel serving axis: equal reports, one trace."""
    capacity = 16
    num_shards = 4
    num_queries = 400

    def factory(shards):
        return iter_poisson_trace(
            capacity,
            num_queries,
            mean_interarrival=6.0,
            num_tenants=3,
            num_shards=num_shards,
            seed=9,
            shards=shards,
        )

    results = {}
    for workers in (1, 2, 4):
        service = QRAMService(capacity, num_shards=num_shards, functional=False)
        start = time.perf_counter()
        report = ServiceEngine(service, workers=workers).run(
            PartitionedTraceSource(factory)
        )
        results[workers] = (report, time.perf_counter() - start)

    benchmark(lambda: results)
    baseline = results[1][0]
    rows = {}
    for workers, (report, wall) in results.items():
        assert report == baseline, f"workers={workers} diverged"
        info = report.parallel
        assert info is not None and info.fallback_reason is None
        rows[f"workers={workers}"] = {
            "wall_seconds": round(wall, 3),
            "speedup_vs_1": round(results[1][1] / wall, 2),
            "partitions": info.partitions,
        }
    print_rows(
        "Workers axis — 4 shards, 400-query partitioned Poisson trace",
        rows,
    )
    assert baseline.stats.total_queries == num_queries


def test_service_scenario_axis(benchmark):
    """The adversarial-scenario axis: every library scenario, end to end.

    Each named scenario of :mod:`repro.scenarios.library` stresses one
    failure mode (a flash crowd on a bounded queue, a flooding tenant,
    impossible deadlines under EDF + shedding); draining them from their declarative specs compares
    how the engine's accounting — served/rejected/shed splits, tail
    latency, per-shard utilization — responds to each stress pattern.
    """

    def sweep():
        return {
            name: library_scenario(name).execute().stats
            for name in library_names()
        }

    results = sweep()
    benchmark(sweep)
    rows = {}
    for name, stats in results.items():
        rows[name] = {
            "offered": stats.offered_queries,
            "served": stats.total_queries,
            "rejected": stats.rejected_queries,
            "shed": stats.shed_queries,
            "p95_latency_layers": round(stats.p95_latency_layers, 1),
            "max_shard_depth": max(
                s.max_queue_depth for s in stats.per_shard.values()
            ),
        }
    print_rows("Scenario axis — the adversarial workload library", rows)
    for name, stats in results.items():
        assert stats.offered_queries == (
            stats.total_queries + stats.rejected_queries + stats.shed_queries
        ), name
    # Each stress pattern leaves its signature in the accounting.
    assert results["flash-crowd"].rejected_queries > 0
    assert results["misbehaving-tenant"].rejected_queries > 0
    assert results["deadline-impossible"].shed_queries > 0

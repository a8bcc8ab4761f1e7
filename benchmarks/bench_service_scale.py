"""Million-query open-loop serving in bounded memory (BENCH_service_scale).

The scale proof for the serving core, in two measurements:

* **Bounded memory** — a >= 1,000,000-request open-loop Poisson trace is
  generated lazily (``iter_poisson_trace``), fed through a
  :class:`~repro.engine.StreamingTraceSource` and served with
  ``retention="none"`` — no per-request records, no materialized trace,
  no arrival backlog in the event heap; peak traced memory is *asserted*
  independent of request count.
* **Workers axis** — the same lazy trace, wrapped in a
  :class:`~repro.engine.PartitionedTraceSource` over an 8-shard fleet and
  served at ``workers`` = 1 / 2 / 4 / 8: every worker regenerates only
  its partition, the merged reports must compare equal across worker
  counts, and the wall-clock speedup against ``workers=1`` is recorded
  per worker count.

The run *appends* one entry to the ``"runs"`` trajectory in
``BENCH_service_scale.json`` (requests/sec, wall time, peak RSS, host CPU
count, the workers axis) so every subsequent performance PR has a recorded
trajectory to compare against — entries are never rewritten.

Run the full benchmark (a few minutes):

    PYTHONPATH=src python benchmarks/bench_service_scale.py

Environment knobs:

* ``QRAM_SCALE_REQUESTS`` — request count of the headline run
  (default 1,000,000; CI uses a reduced size).
* ``QRAM_SCALE_PARALLEL_REQUESTS`` — request count of the workers axis
  (default: headline count capped at 50,000).
* ``QRAM_SCALE_MAX_RSS_MIB`` — when set (> 0), fail if the process's peak
  RSS after the headline run exceeds this many MiB (the CI memory gate).
* ``QRAM_SCALE_MIN_RPS`` — when set (> 0), fail if the headline run's
  requests/sec falls below this bound (the CI throughput-regression
  gate; set it from the trajectory's recorded floor).
* ``QRAM_SCALE_MIN_SPEEDUP`` — required 8-worker speedup over 1 worker
  (default 5.0); *only enforced when the host has >= 8 CPUs* — a
  single-core host records the honest (flat) numbers and skips the gate.
* ``REPRO_PROFILE`` — profile the headline run's engine stages and print
  the stage-time table (the CI profiling smoke test); the row records
  ``"profiled": true`` since profiling slows serving by a few µs/request.

The pytest entry point (``pytest benchmarks/bench_service_scale.py``) runs
reduced versions of the same measurements so the harness stays cheap.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc

import repro.perf.profiler
from repro.engine import (
    PartitionedTraceSource,
    ServiceEngine,
    StreamingTraceSource,
)
from repro.schedule_cache import default_registry
from repro.service import QRAMService
from repro.workloads import iter_poisson_trace
from trajectory import SCALE

CAPACITY = 8
NUM_SHARDS = 2
NUM_TENANTS = 4
#: Feasible offered load: the 2-shard capacity-8 Fat-Tree fleet serves one
#: query every ~12.2 raw layers, so a 14-layer mean interarrival keeps the
#: service stable (~87% utilization) and queues — and therefore memory —
#: bounded at any trace length.
MEAN_INTERARRIVAL = 14.0
SEED = 5

#: The workers axis runs a wider fleet so there is real work to partition.
PARALLEL_CAPACITY = 16
PARALLEL_SHARDS = 8
WORKER_COUNTS = (1, 2, 4, 8)

REQUESTS = int(os.environ.get("QRAM_SCALE_REQUESTS", "1000000"))
PARALLEL_REQUESTS = int(
    os.environ.get("QRAM_SCALE_PARALLEL_REQUESTS", str(min(REQUESTS, 50_000)))
)
MAX_RSS_MIB = float(os.environ.get("QRAM_SCALE_MAX_RSS_MIB", "0"))
MIN_RPS = float(os.environ.get("QRAM_SCALE_MIN_RPS", "0"))
MIN_SPEEDUP = float(os.environ.get("QRAM_SCALE_MIN_SPEEDUP", "5.0"))

# Simulation code never reads host wall time; measurement harnesses opt in
# through the one injection point, so ParallelRunInfo.worker_seconds
# reports real per-worker elapsed times and (under REPRO_PROFILE=1) the
# stage profiler attributes real seconds.
repro.perf.profiler.host_clock = time.perf_counter

def _serve(num_requests: int, telemetry_interval: float | None = None):
    """One bounded-memory open-loop run: lazy trace, no record retention."""
    trace = iter_poisson_trace(
        CAPACITY,
        num_requests,
        mean_interarrival=MEAN_INTERARRIVAL,
        addresses_per_query=1,
        num_tenants=NUM_TENANTS,
        num_shards=NUM_SHARDS,
        seed=SEED,
    )
    service = QRAMService(CAPACITY, num_shards=NUM_SHARDS, functional=False)
    return ServiceEngine(
        service, retention="none", telemetry_interval=telemetry_interval
    ).run(StreamingTraceSource(trace))


def _traced_peak_bytes(num_requests: int) -> int:
    """Peak traced allocation of one run (tracemalloc; ~2x slowdown)."""
    tracemalloc.start()
    try:
        _serve(num_requests)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_bounded_memory(small: int, large: int) -> tuple[int, int]:
    """Assert peak memory does not scale with the request count.

    Serves ``small`` and ``large`` (>= 5x larger) requests under
    tracemalloc and requires the larger run's peak to stay within a small
    constant factor — the defining property of the streaming observation
    path (a list-retention engine fails this immediately: its peak grows
    linearly with the trace).
    """
    peak_small = _traced_peak_bytes(small)
    peak_large = _traced_peak_bytes(large)
    budget = 1.5 * peak_small + 256 * 1024
    assert peak_large <= budget, (
        f"peak traced memory grew with request count: {small} requests -> "
        f"{peak_small / 1e6:.2f} MB but {large} requests -> "
        f"{peak_large / 1e6:.2f} MB (budget {budget / 1e6:.2f} MB)"
    )
    return peak_small, peak_large


def _parallel_source(num_requests: int) -> PartitionedTraceSource:
    """The workers-axis trace: each worker regenerates only its shards."""

    def factory(shards):
        return iter_poisson_trace(
            PARALLEL_CAPACITY,
            num_requests,
            mean_interarrival=MEAN_INTERARRIVAL,
            addresses_per_query=1,
            num_tenants=NUM_TENANTS,
            num_shards=PARALLEL_SHARDS,
            seed=SEED,
            shards=shards,
        )

    return PartitionedTraceSource(factory)


def _serve_parallel(num_requests: int, workers: int):
    service = QRAMService(
        PARALLEL_CAPACITY, num_shards=PARALLEL_SHARDS, functional=False
    )
    return ServiceEngine(service, retention="none", workers=workers).run(
        _parallel_source(num_requests)
    )


def run_workers_axis(
    num_requests: int, worker_counts=WORKER_COUNTS
) -> list[dict]:
    """Serve the same partitioned trace at each worker count.

    Returns one row per worker count (wall seconds, requests/sec, speedup
    over one worker, per-worker busy seconds) and asserts every merged
    report equals the one-worker report — the bit-identity contract, at
    benchmark scale.
    """
    rows: list[dict] = []
    baseline_report = None
    baseline_seconds = None
    for workers in worker_counts:
        start = time.perf_counter()
        report = _serve_parallel(num_requests, workers)
        wall_seconds = time.perf_counter() - start
        info = report.parallel
        assert info is not None and info.fallback_reason is None
        assert report.stats.total_queries == num_requests
        if baseline_report is None:
            baseline_report, baseline_seconds = report, wall_seconds
        else:
            assert report == baseline_report, (
                f"workers={workers} diverged from workers=1"
            )
        rows.append(
            {
                "workers": info.workers,
                "partitions": info.partitions,
                "wall_seconds": round(wall_seconds, 3),
                "requests_per_sec": round(num_requests / wall_seconds, 1),
                "speedup_vs_1_worker": round(baseline_seconds / wall_seconds, 2),
                "worker_busy_seconds": [
                    round(s, 3) for s in info.worker_seconds
                ],
            }
        )
    return rows


def run_scale(num_requests: int) -> dict:
    """The headline run plus the bounded-memory assertion; returns the
    metrics dict appended to ``BENCH_service_scale.json``."""
    small = max(2_000, num_requests // 50)
    large = max(5 * small, num_requests // 10)
    peak_small, peak_large = check_bounded_memory(small, large)

    telemetry_interval = MEAN_INTERARRIVAL * num_requests / 100.0
    cache_before = default_registry().stats()
    start = time.perf_counter()
    report = _serve(num_requests, telemetry_interval=telemetry_interval)
    wall_seconds = time.perf_counter() - start
    cache_delta = default_registry().stats().delta(cache_before)
    stats = report.stats
    assert stats.total_queries == num_requests
    assert report.served == [] and report.windows == []

    if report.profile is not None:
        print("stage profile (headline run):")
        print(report.profile.table())
        print(cache_delta.summary())

    # ru_maxrss is KiB on Linux but bytes on macOS.
    rss_raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_mib = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    info = report.parallel
    return {
        "label": os.environ.get(
            "QRAM_SCALE_LABEL", f"scale-{num_requests}"
        ),
        "cpu_count": os.cpu_count(),
        "requests": num_requests,
        # Worker processes the headline run used (1 = in-process serial).
        "workers": info.workers if info is not None else 1,
        "wall_seconds": round(wall_seconds, 3),
        "requests_per_sec": round(num_requests / wall_seconds, 1),
        "peak_rss_mib": round(rss_raw / per_mib, 1),
        "retention": "none",
        "makespan_layers": stats.makespan_layers,
        "bandwidth_queries_per_sec": round(stats.bandwidth_queries_per_sec, 1),
        "mean_latency_layers": round(stats.mean_latency_layers, 3),
        "p50_latency_layers": round(stats.p50_latency_layers, 3),
        "p99_latency_layers": round(stats.p99_latency_layers, 3),
        "telemetry_intervals": len(report.telemetry),
        "bounded_memory_check": {
            "small_requests": small,
            "large_requests": large,
            "traced_peak_small_bytes": peak_small,
            "traced_peak_large_bytes": peak_large,
        },
        "profiled": report.profile is not None,
    }


def test_service_scale_bounded_memory(benchmark):
    """Reduced pytest entry: the same memory-independence guarantee."""
    peak_small, peak_large = check_bounded_memory(2_000, 10_000)
    report = _serve(4_000, telemetry_interval=2_000.0)
    benchmark(lambda: report)
    assert report.stats.total_queries == 4_000
    assert report.served == [] and report.rejected == []
    assert len(report.telemetry) > 1
    try:
        from conftest import print_rows
    except ImportError:  # pragma: no cover - direct invocation
        return
    print_rows(
        "Bounded-memory serving — retention='none', streaming Poisson trace",
        {
            "traced_peak_2k_requests_kb": round(peak_small / 1024, 1),
            "traced_peak_10k_requests_kb": round(peak_large / 1024, 1),
            "telemetry_intervals": len(report.telemetry),
        },
    )


def test_service_scale_workers_axis(benchmark):
    """Reduced pytest entry: bit-identity along the workers axis."""
    rows = run_workers_axis(4_000, worker_counts=(1, 2))
    benchmark(lambda: rows)
    assert [row["workers"] for row in rows] == [1, 2]
    assert all(row["partitions"] == PARALLEL_SHARDS for row in rows)
    if (os.cpu_count() or 1) >= 8:
        assert rows[-1]["speedup_vs_1_worker"] > 1.0
    try:
        from conftest import print_rows
    except ImportError:  # pragma: no cover - direct invocation
        return
    print_rows(
        "Partitioned parallel serving — PartitionedTraceSource, 8 shards",
        {
            f"workers_{row['workers']}_wall_seconds": row["wall_seconds"]
            for row in rows
        },
    )


def main() -> None:
    metrics = run_scale(REQUESTS)
    metrics["workers_axis"] = run_workers_axis(PARALLEL_REQUESTS)
    runs = SCALE.append(metrics)
    print(f"wrote {SCALE.path} ({len(runs)} run(s) in the trajectory)")
    for key, value in metrics.items():
        print(f"  {key}: {value}")
    failures = []
    if MAX_RSS_MIB > 0 and metrics["peak_rss_mib"] > MAX_RSS_MIB:
        failures.append(
            f"peak RSS {metrics['peak_rss_mib']} MiB exceeds the "
            f"QRAM_SCALE_MAX_RSS_MIB bound of {MAX_RSS_MIB} MiB"
        )
    if MIN_RPS > 0 and metrics["requests_per_sec"] < MIN_RPS:
        failures.append(
            f"throughput regressed: {metrics['requests_per_sec']} "
            f"requests/sec is below the QRAM_SCALE_MIN_RPS floor of "
            f"{MIN_RPS}"
        )
    cpu_count = os.cpu_count() or 1
    eight = next(
        (row for row in metrics["workers_axis"] if row["workers"] == 8), None
    )
    if cpu_count >= 8 and eight is not None:
        if eight["speedup_vs_1_worker"] < MIN_SPEEDUP:
            failures.append(
                f"8-worker speedup {eight['speedup_vs_1_worker']}x is below "
                f"the QRAM_SCALE_MIN_SPEEDUP bound of {MIN_SPEEDUP}x "
                f"(host has {cpu_count} CPUs)"
            )
    elif eight is not None:
        print(
            f"  (speedup gate skipped: host has {cpu_count} CPU(s); "
            f"8-worker speedup recorded as {eight['speedup_vs_1_worker']}x)"
        )
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()

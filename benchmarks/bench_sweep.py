"""Persistent-pool sweep engine: cross-run cache reuse (BENCH_sweep).

The perf claim of the campaign layer, measured three ways over the same
64-point design-space sweep (admission policy × QEC distance × shard
count × workload intensity over a capacity-64 timing-only fleet):

* **serial-cold** — ``pool_size=1, recycle_after=1``: every point forks
  a fresh worker that rebuilds fleet and schedules from a cold
  :class:`~repro.schedule_cache.ScheduleCacheRegistry`.
  This *is* the fork-per-run execution model the persistent pool
  replaces, kept as the honest baseline.
* **pool-1** — one persistent worker: zero parallelism, so any speedup
  over serial-cold is *pure cross-run cache reuse* (plus amortized
  forks).  Gated at >= 2x regardless of host CPU count.
* **pool-8** — eight persistent workers: reuse plus parallelism.  Gated
  at >= 5x over serial-cold *only on hosts with >= 8 CPUs*; a 1-CPU
  host records its honest (flat) number and skips the gate, exactly
  like ``bench_service_scale``'s workers axis.

All three executions must produce bit-identical row sets (asserted) —
the pool buys speed, never results.  The run *appends* one entry to the
``"runs"`` trajectory in ``BENCH_sweep.json``; entries are never
rewritten.

Run the full benchmark:

    PYTHONPATH=src python benchmarks/bench_sweep.py

Environment knobs:

* ``QRAM_SWEEP_INTENSITIES`` — workload-intensity axis length (default
  8; the sweep has ``2 * 2 * 2 * intensities`` points, so the default
  is the 64-point headline and CI smoke can shrink it).
* ``QRAM_SWEEP_MIN_REUSE_SPEEDUP`` — required pool-1 speedup over
  serial-cold (default 2.0; enforced on every host).
* ``QRAM_SWEEP_MIN_SPEEDUP`` — required pool-8 speedup over serial-cold
  (default 5.0; only enforced when the host has >= 8 CPUs).

The pytest entry point runs a reduced sweep with the same identity and
reuse assertions.
"""

from __future__ import annotations

import os
import sys
import time

from repro.scenarios.spec import FleetSpec, ScenarioSpec, WorkloadSpec
from repro.sweep import SweepSpec, frontier_report, run_sweep
from trajectory import SWEEP

INTENSITY_STEPS = int(os.environ.get("QRAM_SWEEP_INTENSITIES", "8"))
MIN_REUSE_SPEEDUP = float(
    os.environ.get("QRAM_SWEEP_MIN_REUSE_SPEEDUP", "2.0")
)
MIN_SPEEDUP = float(os.environ.get("QRAM_SWEEP_MIN_SPEEDUP", "5.0"))

def headline_sweep(intensity_steps: int = INTENSITY_STEPS) -> SweepSpec:
    """The benchmark campaign: 2 x 2 x 2 x ``intensity_steps`` points.

    Timing-only windows (``functional=False``) keep per-point serving
    cheap, so the measured contrast is exactly what the pool amortizes:
    schedule compilation on fleet build.
    """
    base = ScenarioSpec(
        fleet=FleetSpec(
            capacity=64, shards=("Fat-Tree", "BB"), functional=False
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=40,
            mean_interarrival=3.0,
            seed=11,
        ),
        name="bench",
    )
    intensities = tuple(
        2.0 + 14.0 * step / max(1, intensity_steps - 1)
        for step in range(intensity_steps)
    )
    return SweepSpec(
        base=base,
        axes=(
            ("policy.admission", ("fifo", "priority")),
            ("fleet.qec_distance", (1, 3)),
            ("fleet.shard_count", (2, 4)),
            ("workload.mean_interarrival", intensities),
        ),
        name="bench-sweep",
    )


def run_modes(sweep: SweepSpec) -> dict:
    """Time the three execution modes; assert their rows identical.

    serial-cold runs first: the parent process never executes a spec
    itself, so its registry stays cold and every ``recycle_after=1``
    fork genuinely pays the cold path.
    """
    timings: dict[str, float] = {}
    rows_by_mode = {}
    modes = (
        ("serial_cold", dict(pool_size=1, recycle_after=1)),
        ("pool1", dict(pool_size=1)),
        ("pool8", dict(pool_size=8)),
    )
    cache_stats = None
    for name, kwargs in modes:
        start = time.perf_counter()
        result = run_sweep(sweep, **kwargs)
        timings[name] = time.perf_counter() - start
        rows_by_mode[name] = result.rows
        if name == "pool1":
            cache_stats = result.cache_stats
    baseline = rows_by_mode["serial_cold"]
    for name, rows in rows_by_mode.items():
        assert rows == baseline, f"mode {name} diverged from serial-cold"
    assert cache_stats is not None
    frontier = frontier_report(baseline)
    return {
        "label": f"sweep-{len(baseline)}pt",
        "cpu_count": os.cpu_count(),
        "points": len(baseline),
        "unique_executions": len(
            {row["fingerprint"] for row in baseline}
        ),
        "serial_cold_seconds": round(timings["serial_cold"], 3),
        "pool1_seconds": round(timings["pool1"], 3),
        "pool8_seconds": round(timings["pool8"], 3),
        "speedup_pool1_vs_cold": round(
            timings["serial_cold"] / timings["pool1"], 2
        ),
        "speedup_pool8_vs_cold": round(
            timings["serial_cold"] / timings["pool8"], 2
        ),
        "cache_hits": cache_stats.hits,
        "cache_misses": cache_stats.misses,
        "cache_prewarms": cache_stats.prewarms,
        "cache_hit_rate": round(cache_stats.hit_rate, 4),
        "rows_identical": True,
        "frontier_points": len(frontier["frontier"]),
    }


def test_sweep_modes_identical_and_reuse(benchmark):
    """Reduced entry: cold/persistent rows identical, reuse observable."""
    sweep = headline_sweep(intensity_steps=2)  # 16 points
    metrics = run_modes(sweep)
    benchmark(lambda: metrics)
    SWEEP.check_row(metrics)
    assert metrics["points"] == 16
    assert metrics["unique_executions"] == 16
    assert metrics["rows_identical"] is True
    # Reuse proof: a persistent worker compiles each unique
    # configuration once (prewarms flat at unique configs) and then
    # hits — across 16 runs the hit side must dominate.
    assert metrics["cache_prewarms"] < metrics["cache_hits"]
    assert metrics["cache_hit_rate"] > 0.5
    try:
        from conftest import print_rows
    except ImportError:  # pragma: no cover - direct invocation
        return
    print_rows(
        "Persistent-pool sweep — 16 points, cold fork-per-run vs pool",
        {
            "serial_cold_seconds": metrics["serial_cold_seconds"],
            "pool1_seconds": metrics["pool1_seconds"],
            "speedup_pool1_vs_cold": metrics["speedup_pool1_vs_cold"],
            "cache_hit_rate": metrics["cache_hit_rate"],
        },
    )


def main() -> None:
    metrics = run_modes(headline_sweep())
    runs = SWEEP.append(metrics)
    print(f"wrote {SWEEP.path} ({len(runs)} run(s) in the trajectory)")
    for key, value in metrics.items():
        print(f"  {key}: {value}")
    failures = []
    if metrics["speedup_pool1_vs_cold"] < MIN_REUSE_SPEEDUP:
        failures.append(
            f"pool-1 cache-reuse speedup {metrics['speedup_pool1_vs_cold']}x "
            f"is below the QRAM_SWEEP_MIN_REUSE_SPEEDUP bound of "
            f"{MIN_REUSE_SPEEDUP}x"
        )
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 8:
        if metrics["speedup_pool8_vs_cold"] < MIN_SPEEDUP:
            failures.append(
                f"pool-8 speedup {metrics['speedup_pool8_vs_cold']}x is "
                f"below the QRAM_SWEEP_MIN_SPEEDUP bound of {MIN_SPEEDUP}x "
                f"(host has {cpu_count} CPUs)"
            )
    else:
        print(
            f"  (pool-8 speedup gate skipped: host has {cpu_count} CPU(s); "
            f"recorded as {metrics['speedup_pool8_vs_cold']}x)"
        )
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()

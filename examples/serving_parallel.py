"""Partitioned parallel serving: same report, N worker processes.

An interleaved fleet's shards never interact during a run, so the
discrete-event simulation factors exactly: ``ServiceEngine(workers=N)``
partitions the fleet one child engine per shard, serves the partitions in
up to N forked worker processes and k-way merges the per-shard event
streams back under the oracle's ``(time, PRIORITY, sequence)`` key
discipline.  The merged report is *bit-identical* to ``workers=1`` and to
the single-process oracle (``workers=0``) — this script asserts it, then
shows the two supporting pieces:

1. **PartitionedTraceSource** — workers regenerate only their own shard's
   slice of a lazy trace (no full trace materialised anywhere);
2. **ScheduleCacheRegistry** — compiled schedule executors are shared
   process-wide, prewarmed at fleet build and inherited copy-on-write by
   forked workers, so replicas of one memory image compile once;
3. **observable fallbacks** — configurations the partitioner cannot prove
   oracle-exact (here: a replicated shortest-queue fleet) fall back to
   the oracle with ``report.parallel.fallback_reason`` set, never
   silently.

One :class:`repro.scenarios.ScenarioSpec` describes the whole experiment;
the worker count is just ``RunSpec.workers``, so the sweep is
``dataclasses.replace`` on the ``run`` section and
``WorkloadSpec(delivery="partitioned")`` is the lazy per-shard
regeneration form.

Run with ``python examples/serving_parallel.py``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios import (
    FleetSpec,
    RunSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.schedule_cache import default_registry

CAPACITY = 16
NUM_SHARDS = 4
QUERIES = 48


def parallel_scenario() -> ScenarioSpec:
    """The base run: 4 interleaved shards, oracle workers=0."""
    return ScenarioSpec(
        name="parallel-oracle",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=QUERIES,
            mean_interarrival=6.0,
            num_tenants=3,
            seed=11,
        ),
        run=RunSpec(workers=0),
    )


def lazy_partitioned_scenario() -> ScenarioSpec:
    """The same trace as a lazy per-shard regenerating source."""
    base = parallel_scenario()
    return replace(
        base,
        name="parallel-lazy",
        workload=replace(base.workload, delivery="partitioned"),
        run=RunSpec(workers=2, retention="none"),
    )


def fallback_scenario() -> ScenarioSpec:
    """A replicated shortest-queue fleet: unpartitionable, so it falls back
    to the oracle.  Every replica holds the whole memory and each arrival
    goes to the least-loaded one, so one shard's queue decides where the
    next query runs — the shards are coupled through placement."""
    return ScenarioSpec(
        name="parallel-fallback",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            placement="shortest-queue",
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=12,
            mean_interarrival=2.0,
            seed=7,
        ),
        run=RunSpec(workers=4),
    )


#: Every scenario this example serves, importable by tests and benchmarks.
SCENARIOS: dict[str, ScenarioSpec] = {
    "oracle": parallel_scenario(),
    "lazy-partitioned": lazy_partitioned_scenario(),
    "fallback": fallback_scenario(),
}


def bit_identity() -> None:
    base = SCENARIOS["oracle"]
    oracle = base.execute()
    print(f"oracle (workers=0): served {oracle.stats.total_queries} queries, "
          f"p99 {oracle.stats.p99_latency_layers:.1f} layers")
    for workers in (1, 2, 4):
        report = replace(base, run=replace(base.run, workers=workers)).execute()
        info = report.parallel
        assert report == oracle, f"workers={workers} diverged from the oracle"
        print(f"workers={workers}: {info.partitions} partitions across "
              f"{info.workers} worker(s) — report bit-identical")
    print()


def partitioned_lazy_trace() -> None:
    report = SCENARIOS["lazy-partitioned"].execute()
    print("PartitionedTraceSource: each worker regenerated only its shards' "
          "arrivals")
    print(f"  served {report.stats.total_queries}/{QUERIES} with "
          f"retention='none' (streaming percentile merge), "
          f"p50 {report.stats.p50_latency_layers:.1f} layers")
    print()


def shared_schedule_cache() -> None:
    registry = default_registry()
    registry.clear()
    SCENARIOS["oracle"].build()     # builds + prewarms the registry
    built = registry.stats()
    SCENARIOS["oracle"].build()     # identical memory image: warm hits
    twin = registry.stats()
    print("ScheduleCacheRegistry: one compiled executor per memory image")
    print(f"  first build : {built.misses} misses (prewarm), "
          f"{built.entries} entries")
    print(f"  twin build  : {twin.hits} hits, still {twin.entries} entries "
          f"(hit rate {twin.hit_rate:.0%})")
    print()


def observable_fallback() -> None:
    report = SCENARIOS["fallback"].execute()
    info = report.parallel
    assert info is not None and info.workers == 0
    print("fallback: unpartitionable configs serve on the oracle, loudly")
    print(f"  fallback_reason: {info.fallback_reason}")
    print()


def main() -> None:
    print(f"partitioned parallel serving — capacity {CAPACITY}, "
          f"{NUM_SHARDS} shards\n")
    bit_identity()
    partitioned_lazy_trace()
    shared_schedule_cache()
    observable_fallback()


if __name__ == "__main__":
    main()

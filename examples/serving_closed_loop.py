"""Three serving scenarios on one discrete-event engine.

The same 2-shard Fat-Tree fleet serves:

1. **open loop** — a Poisson trace whose arrivals ignore service latency;
2. **closed loop** — QPU-style clients (Fig. 7) that issue their next
   query only after the previous one completes plus a think time, so
   offered load reacts to latency;
3. **SLO-aware** — deadline-carrying traffic under EDF admission with a
   bounded queue and expired-deadline shedding (saturation surfaces as
   rejects / sheds / deadline misses, not unbounded queues).

Every scenario is the same engine — a heap of typed events on one virtual
clock — and every scenario is one declarative
:class:`repro.scenarios.ScenarioSpec` in ``SCENARIOS``: the fleet, the
workload, the admission policy and the run knobs in one validated,
JSON-round-trippable object (``spec.build()`` assembles the exact objects
the hand-wired path would; bit-identity is pinned in
``tests/test_scenarios.py``).

Run with ``python examples/serving_closed_loop.py``.
"""

from __future__ import annotations

from repro.scenarios import FleetSpec, PolicySpec, ScenarioSpec, WorkloadSpec

CAPACITY = 16
NUM_SHARDS = 2


def open_loop_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="open-loop",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            data="random",
            data_seed=1,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=40,
            mean_interarrival=8.0,
            num_tenants=4,
            seed=7,
        ),
    )


def closed_loop_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="closed-loop",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="closed-loop",
            num_clients=4,
            queries_per_client=8,
            think_layers=60.0,
            seed=3,
        ),
    )


def slo_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="slo-aware",
        fleet=FleetSpec(
            capacity=CAPACITY,
            shards=("Fat-Tree",) * NUM_SHARDS,
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=60,
            mean_interarrival=2.0,
            num_tenants=4,
            seed=5,
            deadline_layers=180.0,
        ),
        policy=PolicySpec(
            admission="edf",
            max_queue_depth=6,
            shed_expired=True,
        ),
    )


#: Every scenario this example serves, importable by tests and benchmarks.
SCENARIOS: dict[str, ScenarioSpec] = {
    "open-loop": open_loop_scenario(),
    "closed-loop": closed_loop_scenario(),
    "slo-aware": slo_scenario(),
}


def _print_stats(label: str, stats) -> None:
    print(f"{label}:")
    print(f"  served {stats.total_queries}/{stats.offered_queries} offered "
          f"in {stats.makespan_layers:.0f} layers "
          f"(rejected {stats.rejected_queries}, shed {stats.shed_queries})")
    print(f"  latency p50/p95/p99 : {stats.p50_latency_layers:.1f} / "
          f"{stats.p95_latency_layers:.1f} / {stats.p99_latency_layers:.1f} layers")
    if stats.deadline_misses or stats.deadline_miss_rate:
        print(f"  deadline miss rate  : {stats.deadline_miss_rate:.1%} "
              f"({stats.deadline_misses} misses)")
    print()


def open_loop() -> None:
    report = SCENARIOS["open-loop"].execute()
    _print_stats("open loop (40-query Poisson trace)", report.stats)


def closed_loop() -> None:
    report = SCENARIOS["closed-loop"].execute()
    stats = report.stats
    _print_stats("closed loop (4 clients x 8 queries, think 60 layers)", stats)
    for tenant, t in stats.per_tenant.items():
        print(f"  client {tenant}: mean latency {t.mean_latency_layers:6.1f} "
              f"layers, p95 {t.p95_latency_layers:6.1f}")
    print()


def slo_aware() -> None:
    report = SCENARIOS["slo-aware"].execute()
    _print_stats("SLO-aware (saturating trace, EDF, deadline 180 layers, "
                 "queue bound 6)", report.stats)


def main() -> None:
    print(f"one engine, three serving scenarios — capacity {CAPACITY}, "
          f"Fat-Tree shards\n")
    open_loop()
    closed_loop()
    slo_aware()


if __name__ == "__main__":
    main()

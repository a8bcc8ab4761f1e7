"""The benchmark's workloads: seeded inputs, one operation each, output checks.

An *operation* is one complete run of a workload on a cold schedule cache:
set-up (``ScenarioSpec.build``, or sweep expansion for the campaign), then
the measured phase (serving, or the campaign plus its frontier report).
The outputs are checked afterwards, outside the timed region.

Every workload is single-process (``workers=0`` and sweep ``pool_size=0``):
the partitioned parallel path (``repro.engine.parallel``) and the fork
pool (``repro.engine.pool``) are deliberately not measured.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.schedule_cache import default_registry
from repro.sweep import SweepSpec
from repro.sweep import engine as sweep_engine
from repro.sweep import pareto

#: Slot fidelity every functional (gate-level) query must reach.
FIDELITY_FLOOR = 1.0 - 1e-9

#: Run knobs shared by every scenario: single process, no sanitizer or
#: profiler (explicit, so environment switches cannot change the run).
_RUN = dict(workers=0, sanitize=False, profile=False)


def poisson_stream(seed: int) -> ScenarioSpec:
    """Streaming Poisson traffic on a timing-only 2-shard Fat-Tree fleet.

    60k single-address queries from 4 tenants, one every 14 layers on
    average (about 87% utilization), served with no record retention and
    about 100 telemetry intervals.
    """
    num_queries, mean_interarrival = 60_000, 14.0
    return ScenarioSpec(
        name="poisson-stream",
        fleet=FleetSpec(
            capacity=8, shards=("Fat-Tree", "Fat-Tree"), functional=False
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=num_queries,
            mean_interarrival=mean_interarrival,
            addresses_per_query=1,
            num_tenants=4,
            seed=seed,
            delivery="streaming",
        ),
        run=RunSpec(
            retention="none",
            telemetry_interval=num_queries * mean_interarrival / 100,
            **_RUN,
        ),
    )


def functional_gate(seed: int) -> ScenarioSpec:
    """Gate-level serving on a functional 2-shard, capacity-16 fleet.

    200 two-address queries arrive every 4 layers on average, so windows
    fill to the shard parallelism of 3; memory is random (data seed 3).
    """
    return ScenarioSpec(
        name="functional-gate",
        fleet=FleetSpec(
            capacity=16,
            shards=("Fat-Tree", "Fat-Tree"),
            functional=True,
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=200,
            mean_interarrival=4.0,
            addresses_per_query=2,
            seed=seed,
        ),
        run=RunSpec(retention="full", **_RUN),
    )


def slo_campaign(seed: int) -> SweepSpec:
    """A 24-point admission x QEC x fleet-size x intensity campaign.

    The base is a flash crowd (2000 queries plus a 500-query crowd, 4
    skewed tenants, 300-layer deadlines) on a timing-only capacity-64
    ("Fat-Tree", "BB") fleet with bounded queues and deadline shedding.
    """
    base = ScenarioSpec(
        name="slo-campaign",
        fleet=FleetSpec(
            capacity=64, shards=("Fat-Tree", "BB"), functional=False
        ),
        workload=WorkloadSpec(
            kind="flash-crowd",
            num_queries=2000,
            mean_interarrival=4.0,
            crowd_time=1000.0,
            crowd_size=500,
            crowd_spacing=0.5,
            num_tenants=4,
            tenant_weights=(0.7, 0.1, 0.1, 0.1),
            deadline_layers=300.0,
            seed=seed,
        ),
        policy=PolicySpec(max_queue_depth=16, shed_expired=True),
        run=RunSpec(retention="full", **_RUN),
    )
    return SweepSpec(
        base=base,
        axes=(
            ("policy.admission", ("fifo", "edf", "priority")),
            ("fleet.qec_distance", (1, 3)),
            ("fleet.shard_count", (2, 4)),
            ("workload.mean_interarrival", (2.0, 6.0)),
        ),
        name="slo-campaign",
    )


@dataclass
class Executed:
    """The raw result of one operation, before any check."""

    setup_s: float
    run_s: float
    payload: Any


@dataclass
class Outcome:
    """One checked operation.

    Attributes:
        setup_s / run_s: host seconds of set-up and of the measured phase.
        disposed: requests served or refused (the throughput numerator).
        attempted / failed: operations (campaign points) tried and failed.
        sim: the simulated end-to-end metrics (``sim_*``).
        digest: content digest of the results; equal inputs must give
            equal digests, traced or not.
        counts: totals the traced ledger is checked against.
        problems: failed output checks, one line each.
    """

    setup_s: float
    run_s: float
    disposed: int
    attempted: int
    failed: int
    sim: dict[str, float]
    digest: str
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _offered_expected(spec: ScenarioSpec) -> int:
    """Requests the workload generator yields for this spec."""
    return spec.workload.num_queries + spec.workload.crowd_size


def _check_stats(label: str, stats: Any, expected: int) -> list[str]:
    """Conservation and percentile-order checks on one ServiceStats."""
    problems = []
    disposed = stats.total_queries + stats.rejected_queries + stats.shed_queries
    if not disposed == stats.offered_queries == expected:
        problems.append(
            f"{label}: served {stats.total_queries} + rejected "
            f"{stats.rejected_queries} + shed {stats.shed_queries} = "
            f"{disposed}, offered {stats.offered_queries}, generated "
            f"{expected}"
        )
    p50, p99 = stats.p50_latency_layers, stats.p99_latency_layers
    if not 1.0 <= p50 <= p99 <= stats.makespan_layers:
        problems.append(
            f"{label}: latency order broken: p50={p50} p99={p99} "
            f"makespan={stats.makespan_layers}"
        )
    return problems


# --------------------------------------------------------------- scenarios
def execute_scenario(spec: ScenarioSpec) -> Executed:
    default_registry().clear()
    start = time.perf_counter()
    built = spec.build()
    built_at = time.perf_counter()
    report = built.run()
    done = time.perf_counter()
    return Executed(built_at - start, done - built_at, report)


def check_scenario(spec: ScenarioSpec, executed: Executed) -> Outcome:
    report = executed.payload
    stats = report.stats
    problems = _check_stats(spec.name, stats, _offered_expected(spec))
    if spec.fleet.functional:
        fidelities = [record.fidelity for record in report.served]
        if len(fidelities) != stats.total_queries or any(
            f is None or f < FIDELITY_FLOOR for f in fidelities
        ):
            problems.append(
                f"{spec.name}: a functional slot fidelity is below "
                f"{FIDELITY_FLOOR} (worst {min(fidelities, default=None)})"
            )
    windows = sum(shard.windows for shard in stats.per_shard.values())
    refused = stats.rejected_queries + stats.shed_queries
    return Outcome(
        setup_s=executed.setup_s,
        run_s=executed.run_s,
        disposed=stats.offered_queries,
        attempted=1,
        failed=1 if problems else 0,
        sim={
            "sim_bandwidth_qps": stats.bandwidth_queries_per_sec,
            "sim_p99_latency_layers": stats.p99_latency_layers,
            "sim_served_frac": stats.total_queries / stats.offered_queries,
            "sim_mean_fidelity": stats.mean_fidelity,
        },
        digest=sweep_engine.report_digest(report),
        counts={
            "offered": stats.offered_queries,
            "windows": windows,
            "records": stats.total_queries + windows + refused,
        },
        problems=problems,
    )


# ---------------------------------------------------------------- campaign
def execute_campaign(sweep: SweepSpec) -> Executed:
    default_registry().clear()
    start = time.perf_counter()
    points = sweep.expand()
    expanded_at = time.perf_counter()
    result = sweep_engine.run_sweep(points, pool_size=0, keep_reports=True)
    frontier = pareto.frontier_report(result.rows)
    done = time.perf_counter()
    return Executed(expanded_at - start, done - expanded_at, (result, frontier))


def check_campaign(sweep: SweepSpec, executed: Executed) -> Outcome:
    result, frontier = executed.payload
    expected = _offered_expected(sweep.base)
    problems: list[str] = []
    failed = 0
    offered = windows = records = served = 0
    per_point: dict[str, list[float]] = {
        "sim_bandwidth_qps": [],
        "sim_p99_latency_layers": [],
        "sim_mean_fidelity": [],
    }
    for row in result.rows:
        label = row["name"]
        if row["status"] != "ok":
            problems.append(f"{label}: status {row['status']}: {row['error']}")
            failed += 1
            continue
        report = result.reports[row["point"]]
        row_problems = _check_stats(label, report.stats, expected)
        if row_problems:
            problems.extend(row_problems)
            failed += 1
        stats = report.stats
        offered += stats.offered_queries
        served += stats.total_queries
        windows += len(report.windows)
        records += len(report.served) + len(report.windows) + len(
            report.rejected
        )
        per_point["sim_bandwidth_qps"].append(stats.bandwidth_queries_per_sec)
        per_point["sim_p99_latency_layers"].append(stats.p99_latency_layers)
        per_point["sim_mean_fidelity"].append(stats.mean_fidelity)
    if not frontier["frontier"]:
        problems.append("slo-campaign: empty Pareto frontier")
    sim = {name: statistics.median(values) if values else 0.0
           for name, values in per_point.items()}
    sim["sim_served_frac"] = served / offered if offered else 0.0
    text = json.dumps(
        [[row["report_digest"] for row in result.rows], frontier],
        sort_keys=True,
    )
    return Outcome(
        setup_s=executed.setup_s,
        run_s=executed.run_s,
        disposed=offered,
        attempted=len(result.rows),
        failed=failed,
        sim=sim,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        counts={"offered": offered, "windows": windows, "records": records},
        problems=problems,
    )


@dataclass(frozen=True)
class Workload:
    """One named workload: its seeded input, operation and checks."""

    name: str
    make: Callable[[int], Any]
    execute: Callable[[Any], Executed]
    check: Callable[[Any, Executed], Outcome]
    #: Operations one failure of ``execute`` stands for.
    points: int = 1


WORKLOADS = {
    "poisson-stream": Workload(
        "poisson-stream", poisson_stream, execute_scenario, check_scenario
    ),
    "functional-gate": Workload(
        "functional-gate", functional_gate, execute_scenario, check_scenario
    ),
    "slo-campaign": Workload(
        "slo-campaign", slo_campaign, execute_campaign, check_campaign,
        points=24,
    ),
}

"""The sweep engine's contracts: determinism, dedup, reuse, frontiers.

The campaign layer extends the repo's oracle-equality discipline from one
run to many: every row is a pure function of its point's spec, so the
whole result set — rows, JSONL bytes, retained reports, the Pareto
frontier — must be identical at pool sizes 0/1/2/4, under shuffled
submission order, and under fork-per-run worker recycling.  Alongside
determinism this file pins the perf machinery's observable semantics
(full-spec dedup, prewarms staying flat while hits climb) and the
frontier algebra (weak dominance, ties kept, merge stability).
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.scenarios.fuzz import draw_spec
from repro.scenarios.spec import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
    axis_paths,
)
from repro.schedule_cache import default_registry
from repro.sweep import (
    DEFAULT_OBJECTIVES,
    Objective,
    SweepSpec,
    dominates,
    frontier_report,
    objective_vector,
    pareto_frontier,
    run_sweep,
)


def small_base(**workload_overrides) -> ScenarioSpec:
    """A fast-to-execute base scenario (capacity 16, tens of queries)."""
    workload = dict(
        kind="poisson", num_queries=24, mean_interarrival=3.0, seed=7
    )
    workload.update(workload_overrides)
    return ScenarioSpec(
        fleet=FleetSpec(capacity=16, shards=("Fat-Tree", "BB")),
        workload=WorkloadSpec(**workload),
        name="base",
    )


def small_sweep() -> SweepSpec:
    return SweepSpec(
        base=small_base(),
        axes=(
            ("policy.admission", ("fifo", "priority")),
            ("workload.mean_interarrival", (2.0, 6.0)),
        ),
        name="small",
    )


# ------------------------------------------------------------ spec hooks
def test_fingerprint_ignores_name_and_tracks_content():
    spec = small_base()
    assert dataclasses.replace(spec, name="other").fingerprint() == (
        spec.fingerprint()
    )
    changed = spec.with_value("policy.admission", "priority")
    assert changed.fingerprint() != spec.fingerprint()
    # Round-tripping through JSON preserves the digest.
    assert ScenarioSpec.from_json(spec.to_json()).fingerprint() == (
        spec.fingerprint()
    )


def test_fleet_fingerprint_equal_iff_fleet_equal():
    spec = small_base()
    assert spec.with_value(
        "workload.mean_interarrival", 9.0
    ).fleet.fingerprint() == spec.fleet.fingerprint()
    assert spec.with_value(
        "fleet.qec_distance", 3
    ).fleet.fingerprint() != spec.fleet.fingerprint()


def test_qec_distance_axis_rewrites_shard_names():
    fleet = FleetSpec(capacity=16, shards=("Fat-Tree", "BB@d3"))
    assert fleet.with_qec_distance(5).shards == ("Fat-Tree@d5", "BB@d5")
    assert fleet.with_qec_distance(1).shards == ("Fat-Tree", "BB")
    with pytest.raises(SpecError):
        fleet.with_qec_distance(0)


def test_shard_count_axis_cycles_the_pattern():
    fleet = FleetSpec(capacity=16, shards=("Fat-Tree", "BB"))
    assert fleet.with_shard_count(4).shards == (
        "Fat-Tree", "BB", "Fat-Tree", "BB",
    )
    assert fleet.with_shard_count(1).shards == ("Fat-Tree",)
    with pytest.raises(SpecError):
        fleet.with_shard_count(0)


def test_with_value_validates_section_and_field():
    spec = small_base()
    with pytest.raises(SpecError):
        spec.with_value("nope.field", 1)
    with pytest.raises(SpecError):
        spec.with_value("fleet.nonexistent", 1)
    with pytest.raises(SpecError):
        spec.with_value("fleet.capacity", 63)  # revalidated on replace
    with pytest.raises(SpecError):
        # Cross-section check re-runs: autoscaler needs shortest-queue.
        spec.with_value(
            "policy.autoscaler",
            {
                "min_shards": 1,
                "max_shards": 4,
                "high_watermark": 8,
                "low_watermark": 1,
                "period": 50.0,
            },
        )


def test_axis_paths_cover_sections_and_virtual_axes():
    paths = axis_paths()
    assert "fleet.qec_distance" in paths
    assert "fleet.shard_count" in paths
    assert "policy.admission" in paths
    assert "workload.mean_interarrival" in paths
    assert "run.retention" in paths
    assert "fleet.nonexistent" not in paths


# -------------------------------------------------------------- SweepSpec
def test_sweep_spec_validates_axes():
    base = small_base()
    with pytest.raises(SpecError):
        SweepSpec(base=base, axes=(("bogus.path", (1,)),))
    with pytest.raises(SpecError):
        SweepSpec(
            base=base,
            axes=(
                ("policy.admission", ("fifo",)),
                ("policy.admission", ("priority",)),
            ),
        )
    with pytest.raises(SpecError):
        SweepSpec(base=base, axes=(("policy.admission", ()),))


def test_sweep_spec_expansion_order_and_round_trip():
    sweep = small_sweep()
    assert sweep.num_points == 4
    points = sweep.expand()
    assert [p.index for p in points] == [0, 1, 2, 3]
    # Last axis varies fastest.
    assert [dict(p.coords)["workload.mean_interarrival"] for p in points] == [
        2.0, 6.0, 2.0, 6.0,
    ]
    assert [dict(p.coords)["policy.admission"] for p in points] == [
        "fifo", "fifo", "priority", "priority",
    ]
    rebuilt = SweepSpec.from_json(sweep.to_json())
    assert rebuilt.to_dict() == sweep.to_dict()
    assert [p.spec.fingerprint() for p in rebuilt.expand()] == [
        p.spec.fingerprint() for p in points
    ]


def test_sweep_spec_rejects_unknown_keys():
    with pytest.raises(SpecError):
        SweepSpec.from_dict({"base": small_base().to_dict(), "bogus": 1})
    with pytest.raises(SpecError):
        SweepSpec.from_dict({})


def test_expand_names_invalid_point():
    # placement axis alone: the autoscaler-less base is fine, but an
    # interleaved 2-shard fleet over capacity 16 sweeping shard_count to
    # a non-divisor must fail *naming the point*.
    sweep = SweepSpec(
        base=small_base(), axes=(("fleet.shard_count", (2, 3)),)
    )
    with pytest.raises(SpecError, match="sweep point 1"):
        sweep.expand()


# ----------------------------------------------------------- determinism
def test_rows_identical_across_pool_sizes_and_orders():
    sweep = small_sweep()
    baseline = run_sweep(sweep, pool_size=0)
    assert [row["point"] for row in baseline.rows] == [0, 1, 2, 3]
    assert all(row["status"] == "ok" for row in baseline.rows)

    points = list(sweep.expand())
    random.Random(13).shuffle(points)
    for pool_size in (1, 2, 4):
        result = run_sweep(points, pool_size=pool_size)
        assert result.rows == baseline.rows, f"pool {pool_size} diverged"
    shuffled_inline = run_sweep(points, pool_size=0)
    assert shuffled_inline.rows == baseline.rows


def test_reports_identical_across_pool_sizes():
    sweep = small_sweep()
    baseline = run_sweep(sweep, pool_size=0, keep_reports=True)
    assert baseline.reports is not None
    assert sorted(baseline.reports) == [0, 1, 2, 3]
    for pool_size in (1, 2):
        result = run_sweep(sweep, pool_size=pool_size, keep_reports=True)
        assert result.reports is not None
        for index, report in baseline.reports.items():
            assert result.reports[index] == report, (
                f"point {index} report diverged at pool {pool_size}"
            )


def test_jsonl_bytes_identical_across_pool_sizes(tmp_path):
    sweep = small_sweep()
    paths = []
    for pool_size in (0, 2):
        path = tmp_path / f"rows_p{pool_size}.jsonl"
        run_sweep(sweep, pool_size=pool_size, jsonl_path=str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = [
        json.loads(line)
        for line in paths[0].read_text().splitlines()
    ]
    assert [row["point"] for row in rows] == [0, 1, 2, 3]
    # Every row's spec is replayable JSON.
    replayed = ScenarioSpec.from_dict(rows[0]["spec"])
    assert replayed.fingerprint() == rows[0]["fingerprint"]


def test_recycled_workers_match_persistent_pool():
    sweep = small_sweep()
    persistent = run_sweep(sweep, pool_size=2)
    recycled = run_sweep(sweep, pool_size=2, recycle_after=1)
    assert recycled.rows == persistent.rows


def test_error_rows_are_deterministic_data():
    # A replay pointing at a missing file fails at build time; the
    # failure must become a row, not an abort, and stay identical
    # across pool sizes.
    base = small_base()
    bad = dataclasses.replace(
        base,
        workload=WorkloadSpec(kind="replay", path="/nonexistent/rows.jsonl"),
    )
    sweep = SweepSpec(
        base=bad, axes=(("policy.admission", ("fifo", "priority")),)
    )
    inline = run_sweep(sweep, pool_size=0)
    pooled = run_sweep(sweep, pool_size=2)
    assert pooled.rows == inline.rows
    for row in inline.rows:
        assert row["status"] == "error"
        assert row["metrics"] is None and row["report_digest"] is None
        assert "FileNotFoundError" in row["error"]


def test_fuzz_drawn_sweep_reruns_identically():
    rng = random.Random(2026)
    specs = []
    seen = set()
    while len(specs) < 8:
        spec = draw_spec(rng)
        # Keep the fuzz corpus fast: capacity-16 timing-only draws.
        if spec.fleet.capacity != 16 or spec.fleet.functional:
            continue
        if spec.fingerprint() in seen:
            continue
        seen.add(spec.fingerprint())
        specs.append(spec)
    sweep_points = SweepSpec(base=specs[0]).expand()  # smoke the API
    assert len(sweep_points) == 1
    from repro.sweep.spec import SweepPoint

    points = tuple(
        SweepPoint(
            index=i, name=f"fuzz#{i}", coords=(), spec=spec
        )
        for i, spec in enumerate(specs)
    )
    first = run_sweep(points, pool_size=0)
    second = run_sweep(points, pool_size=2)
    assert second.rows == first.rows


# -------------------------------------------------------- dedup and reuse
def test_equal_specs_execute_once():
    base = small_base()
    from repro.sweep.spec import SweepPoint

    points = tuple(
        SweepPoint(
            index=i,
            name=f"dup#{i}",
            coords=(),
            spec=dataclasses.replace(base, name=f"dup#{i}"),
        )
        for i in range(5)
    )
    result = run_sweep(points, pool_size=0, keep_reports=True)
    assert result.executions == 1
    assert len(result.rows) == 5
    digests = {row["report_digest"] for row in result.rows}
    assert len(digests) == 1
    assert result.reports is not None and sorted(result.reports) == list(
        range(5)
    )


def test_cache_reuse_hits_climb_prewarms_stay_flat():
    registry = default_registry()
    registry.clear()
    # Eight points over ONE fleet: the fleet compiles once (prewarms
    # counts builds, not fleet builds), then every later point hits.
    sweep = SweepSpec(
        base=small_base(),
        axes=(
            ("policy.admission", ("fifo", "priority")),
            ("workload.mean_interarrival", (2.0, 4.0, 6.0, 8.0)),
        ),
    )
    result = run_sweep(sweep, pool_size=0)
    assert result.executions == 8
    stats = result.cache_stats
    # Two shard architectures -> two compiled executors, ever.
    assert stats.misses == 2
    assert stats.prewarms == 2
    assert stats.entries == 2
    # Seven warm fleet builds x two shards of pure hits (plus run-time
    # lookups): reuse dominates.
    assert stats.hits >= 14
    assert stats.hit_rate > 0.8
    assert stats.fidelity_hits > stats.fidelity_misses


def test_sweep_cache_stats_count_only_the_sweep():
    """Forked workers inherit the parent's counters; the sweep's totals
    must still count only its own executions, whatever the pool size."""
    registry = default_registry()
    registry.clear()
    for _ in range(5):
        small_base(seed=99).execute()
    sweep = SweepSpec(
        base=small_base(),
        axes=(
            ("fleet.qec_distance", (1, 3, 5)),
            ("workload.mean_interarrival", (2.0, 4.0)),
        ),
    )
    # Inline execution (pool 0) warms this process, so it runs last: every
    # pool size then starts from the same parent registry.
    totals = [run_sweep(sweep, pool_size=size).cache_stats for size in (1, 2, 0)]
    assert totals[0] == totals[1] == totals[2]
    # The warm parent already compiled both architectures: the sweep
    # compiles nothing and only hits.
    stats = totals[0]
    assert stats.misses == 0 and stats.prewarms == 0 and stats.entries == 0
    assert stats.hits == 12


# ----------------------------------------------------------------- pareto
def row(point, **metrics):
    return {
        "point": point,
        "name": f"p{point}",
        "coords": {},
        "spec": {"stub": point},
        "status": "ok",
        "error": None,
        "metrics": metrics,
        "report_digest": "x",
    }


OBJS = (Objective("cost", "min"), Objective("latency", "min"))


def test_dominates_is_weak():
    assert dominates((1.0, 1.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert not dominates((1.0, 1.0), (1.0, 1.0))
    assert not dominates((1.0, 3.0), (2.0, 1.0))


def test_objective_vector_normalizes_and_rejects_unranked():
    objectives = (Objective("fid", "max"),)
    assert objective_vector(row(0, fid=0.75), objectives) == (-0.75,)
    assert objective_vector(row(0, fid=None), objectives) is None
    errored = row(1, fid=0.5)
    errored["status"] = "error"
    assert objective_vector(errored, objectives) is None
    with pytest.raises(ValueError):
        Objective("fid", "sideways")


def test_frontier_keeps_ties_and_drops_dominated():
    rows = [
        row(0, cost=1.0, latency=5.0),
        row(1, cost=3.0, latency=3.0),
        row(2, cost=5.0, latency=1.0),
        row(3, cost=3.0, latency=3.0),  # tie with 1: both kept
        row(4, cost=4.0, latency=4.0),  # dominated by 1/3
    ]
    frontier = pareto_frontier(rows, OBJS)
    assert [r["point"] for r in frontier] == [0, 1, 3, 2]


def test_frontier_is_order_independent_and_merge_stable():
    rng = random.Random(5)
    rows = [
        row(i, cost=float(rng.randrange(10)), latency=float(rng.randrange(10)))
        for i in range(30)
    ]
    baseline = pareto_frontier(rows, OBJS)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert pareto_frontier(shuffled, OBJS) == baseline
    # Merge property: frontier(A u B) == frontier(frontier(A) u frontier(B)).
    merged = pareto_frontier(
        pareto_frontier(rows[:15], OBJS) + pareto_frontier(rows[15:], OBJS),
        OBJS,
    )
    assert merged == baseline


def test_frontier_report_shape_and_default_objectives():
    sweep = small_sweep()
    result = run_sweep(sweep, pool_size=0)
    report = frontier_report(result.rows)
    assert [o["key"] for o in report["objectives"]] == [
        o.key for o in DEFAULT_OBJECTIVES
    ]
    assert report["candidates"] >= len(report["frontier"]) >= 1
    entry = report["frontier"][0]
    replay = ScenarioSpec.from_dict(entry["spec"])
    assert replay.fingerprint() == result.rows[entry["point"]]["fingerprint"]
    assert set(entry["objectives"]) == {o.key for o in DEFAULT_OBJECTIVES}

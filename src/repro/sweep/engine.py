"""Batch scenario execution on a persistent fork-start worker pool.

Running a design-space campaign point by point pays the whole cold path
per point: fleet build, schedule compilation, fidelity-vector derivation
— and under fork-per-run parallelism each run's workers start from a
cold copy of everything.  This engine amortizes all of it:

* **Persistent workers.**  Points execute on a long-lived
  :class:`~repro.engine.pool.ForkWorkerPool`; each worker's process-wide
  :class:`~repro.schedule_cache.ScheduleCacheRegistry` accumulates warm
  compiled schedules, interval tables and fidelity vectors *across runs*
  instead of being rebuilt by a fresh fork every time.
* **Dedup + cache affinity.**  Points are grouped by full-spec
  fingerprint (equal specs execute once; every point still gets its own
  result row), and each unique spec routes to the worker picked by its
  *fleet* fingerprint — scenarios sharing a fleet land on the worker
  that already holds their compiled schedules.
* **Reuse is proven, not assumed.**  Each execution carries the
  :class:`~repro.schedule_cache.CacheStats` delta of its own build and
  run; the sweep sums them, so ``hits`` climbing while
  ``prewarms`` stays flat at (unique fleet configurations) is an
  assertable property (CI's sweep-smoke job does).

Determinism is the same discipline the serving engine pins run-level,
lifted to campaign level: a point's row is a pure function of its spec
(virtual-clock execution, canonical-JSON report digests), rows are
ordered by point index, and the cache side-channel never enters a row —
so the JSONL produced at pool size 8 is byte-identical to pool size 1,
to inline execution (``pool_size=0``), and to any submission order.

Worker failures are data, not aborts: a point whose execution raises
produces a ``status="error"`` row carrying ``ExcType: message`` — itself
deterministic — so one infeasible corner of a 1000-point campaign cannot
destroy the rest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.core import ServiceReport
from repro.engine.pool import ForkWorkerPool, fork_available
from repro.scenarios.spec import ScenarioSpec
from repro.schedule_cache import CacheStats, default_registry
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = [
    "SweepResult",
    "fleet_cost_qubits",
    "report_digest",
    "run_sweep",
    "write_rows_jsonl",
]

#: :class:`~repro.metrics.service_stats.ServiceStats` scalars copied into
#: each row's ``metrics`` object (plus the engine-computed
#: ``cost_qubits``).
METRIC_FIELDS = (
    "total_queries",
    "makespan_layers",
    "mean_latency_layers",
    "p50_latency_layers",
    "p95_latency_layers",
    "p99_latency_layers",
    "mean_queue_delay_layers",
    "bandwidth_queries_per_sec",
    "offered_queries",
    "rejected_queries",
    "shed_queries",
    "fidelity_rejected_queries",
    "deadline_misses",
    "deadline_miss_rate",
    "mean_fidelity",
    "min_fidelity",
    "fidelity_slo_misses",
    "fidelity_slo_miss_rate",
)


def _canonical(value: Any) -> Any:
    """JSON-serializable canonical form of report content.

    Dataclasses flatten via ``asdict`` upstream; here tuples become
    lists, complex amplitudes become ``[real, imag]`` pairs, and dicts
    with non-string keys (per-tenant/per-shard tables, output
    amplitudes) become key-sorted pair lists so the canonical JSON is
    unique.  Floats rely on JSON's exact ``repr`` round-trip: equal
    reports canonicalize to equal bytes.
    """
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {key: _canonical(item) for key, item in value.items()}
        return [
            [_canonical(key), _canonical(item)]
            for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def report_digest(report: ServiceReport) -> str:
    """SHA-256 over the canonical JSON of a report's *result* content.

    Covers everything two equal runs must agree on — stats, retained
    records, outputs, telemetry — and excludes the observational fields
    (``parallel``, ``profile``) exactly as report equality does.  Two
    reports share a digest iff they compare equal, which is how sweep rows
    pin per-point bit-identity across pool sizes without shipping whole
    reports around.
    """
    payload = {
        "served": [dataclasses.asdict(r) for r in report.served],
        "windows": [dataclasses.asdict(r) for r in report.windows],
        "stats": dataclasses.asdict(report.stats),
        "outputs": report.outputs,
        "rejected": [dataclasses.asdict(r) for r in report.rejected],
        "scale_events": [dataclasses.asdict(r) for r in report.scale_events],
        "telemetry": [dataclasses.asdict(r) for r in report.telemetry],
        "retention": report.retention,
    }
    text = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fleet_cost_qubits(service: Any) -> int:
    """Hardware cost of a built fleet: total physical qubits across shards.

    Encoded shards count their full physical footprint (distance² per
    logical qubit), so the cost axis prices QEC distance honestly.
    """
    return sum(int(backend.qubit_count) for backend in service.shards)


def _execute(spec: ScenarioSpec, keep_report: bool) -> dict[str, Any]:
    """Worker-side body: run one spec, return its execution fragment.

    The fragment splits into row content (``status`` / ``error`` /
    ``metrics`` / ``report_digest`` — pure functions of the spec) and
    side-channel observability (``cache_stats`` — the registry counters'
    movement over this execution's build and run, stripped before rows
    are built so rows stay pool-size-independent).
    """
    before = default_registry().stats()
    fragment: dict[str, Any]
    try:
        built = spec.build()
        cost = fleet_cost_qubits(built.service)
        report = built.run()
    except Exception as exc:  # noqa: BLE001 - failures become rows
        fragment = {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "metrics": None,
            "report_digest": None,
            "report": None,
        }
    else:
        metrics: dict[str, Any] = {
            name: getattr(report.stats, name) for name in METRIC_FIELDS
        }
        metrics["cost_qubits"] = cost
        fragment = {
            "status": "ok",
            "error": None,
            "metrics": metrics,
            "report_digest": report_digest(report),
            "report": report if keep_report else None,
        }
    fragment["cache_stats"] = default_registry().stats().delta(before)
    return fragment


def _sum_stats(deltas: Iterable[CacheStats]) -> CacheStats:
    """Aggregate per-execution registry deltas by summing every field."""
    totals = {f.name: 0 for f in dataclasses.fields(CacheStats)}
    for delta in deltas:
        for name in totals:
            totals[name] += getattr(delta, name)
    return CacheStats(**totals)


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep execution produced.

    Attributes:
        rows: one result row per point, ordered by point index.  A row
            is a plain JSON-ready dict (``point``, ``name``, ``coords``,
            ``spec``, ``fingerprint``, ``fleet_fingerprint``,
            ``status``, ``error``, ``metrics``, ``report_digest``) and
            is bit-identical across pool sizes and submission orders.
        reports: per-point :class:`ServiceReport` objects when the sweep
            ran with ``keep_reports=True`` (``None`` otherwise; campaign
            -scale sweeps should not hold every report in memory).
        cache_stats: the registry counters' movement over each unique
            execution's build and run, summed — the cross-run reuse
            evidence.  Counters a worker inherited from the parent at
            fork, or that moved before the sweep, are not counted.
        pool_size: worker processes actually used (0 = inline in this
            process, also the fork-unavailable fallback).
        executions: unique specs executed after dedup (<= len(rows)).
    """

    rows: tuple[dict[str, Any], ...]
    reports: dict[int, ServiceReport] | None
    cache_stats: CacheStats
    pool_size: int
    executions: int


def run_sweep(
    sweep: SweepSpec | Sequence[SweepPoint],
    *,
    pool_size: int = 0,
    recycle_after: int | None = None,
    keep_reports: bool = False,
    jsonl_path: str | None = None,
) -> SweepResult:
    """Execute every point of a sweep; return rows (and prove cache reuse).

    Args:
        sweep: a :class:`SweepSpec` (expanded here) or pre-expanded
            points (any order; rows always come back in point order).
        pool_size: persistent fork workers to execute on.  ``0`` runs
            inline in this process — the serial baseline, and the
            automatic fallback on platforms without ``fork``.
        recycle_after: retire each worker after this many executions
            (``1`` reproduces fork-per-run execution, the cold model the
            persistent pool replaces — kept for honest benchmarking).
        keep_reports: ship every unique execution's full
            :class:`ServiceReport` back and attach one per point
            (memory-heavy; meant for tests and small sweeps).
        jsonl_path: when given, stream the rows to this file, one
            canonical-JSON row per line in point order.

    Returns:
        A :class:`SweepResult`; ``rows`` (and the JSONL file) are
        byte-identical for every ``pool_size`` and submission order.
    """
    if pool_size < 0:
        raise ValueError("pool_size must be >= 0")
    points = sweep.expand() if isinstance(sweep, SweepSpec) else tuple(sweep)

    # Deduplicate: equal specs (fingerprints ignore the name) execute
    # once; every point still yields its own row below.
    order: list[str] = []
    groups: dict[str, list[SweepPoint]] = {}
    for point in points:
        fingerprint = point.spec.fingerprint()
        if fingerprint not in groups:
            groups[fingerprint] = []
            order.append(fingerprint)
        groups[fingerprint].append(point)

    handler = functools.partial(_execute, keep_report=keep_reports)
    effective_pool = pool_size if fork_available() else 0
    fragments: dict[str, dict[str, Any]] = {}
    if effective_pool == 0:
        for fingerprint in order:
            fragments[fingerprint] = handler(groups[fingerprint][0].spec)
    else:
        # Cache affinity: a spec's worker is a pure function of its
        # fleet fingerprint, so every spec sharing a fleet lands on the
        # worker already holding that fleet's compiled schedules.
        tasks = [
            (
                task_id,
                groups[fingerprint][0].spec,
                int(groups[fingerprint][0].spec.fleet.fingerprint()[:16], 16),
            )
            for task_id, fingerprint in enumerate(order)
        ]
        with ForkWorkerPool(
            handler,
            workers=effective_pool,
            recycle_after=recycle_after,
        ) as pool:
            outcomes = pool.run(tasks)
        for outcome in outcomes:
            if outcome.error is not None:
                # Only infrastructure failures surface here (a worker
                # death); scenario failures are rows.  Raise the lowest
                # task's error — deterministic under any completion order.
                raise outcome.error
            fragments[order[outcome.task_id]] = outcome.result

    cache_stats = _sum_stats(
        fragments[fingerprint]["cache_stats"] for fingerprint in order
    )

    rows: list[dict[str, Any]] = []
    reports: dict[int, ServiceReport] | None = {} if keep_reports else None
    for point in sorted(points, key=lambda p: p.index):
        fingerprint = point.spec.fingerprint()
        fragment = fragments[fingerprint]
        rows.append(
            {
                "point": point.index,
                "name": point.name,
                "coords": {path: value for path, value in point.coords},
                "spec": point.spec.to_dict(),
                "fingerprint": fingerprint,
                "fleet_fingerprint": point.spec.fleet.fingerprint(),
                "status": fragment["status"],
                "error": fragment["error"],
                "metrics": fragment["metrics"],
                "report_digest": fragment["report_digest"],
            }
        )
        if reports is not None and fragment["report"] is not None:
            reports[point.index] = fragment["report"]

    if jsonl_path is not None:
        write_rows_jsonl(rows, jsonl_path)
    return SweepResult(
        rows=tuple(rows),
        reports=reports,
        cache_stats=cache_stats,
        pool_size=effective_pool,
        executions=len(order),
    )


def write_rows_jsonl(
    rows: Iterable[dict[str, Any]], path: str
) -> None:
    """Write rows as canonical JSONL (one sorted-key object per line).

    Canonical serialization makes the determinism contract checkable
    with ``cmp``: two sweeps of the same spec produce byte-identical
    files whatever their pool sizes.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(
                json.dumps(_canonical(row), sort_keys=True,
                           separators=(",", ":"))
                + "\n"
            )

"""Property-based fuzzing of the serving engine over random scenarios.

Random :class:`~repro.scenarios.spec.ScenarioSpec` draws (seeded —
``draw_spec(random.Random(seed))`` is fully reproducible) are executed and
checked against the engine's cross-cutting invariants:

* **conservation** — every offered request is accounted exactly once:
  ``offered == served + rejected + shed``, both in the streaming stats and
  (under ``retention="full"``) in the record lists.
* **slo-admission** — no served record violates its admitted SLO: its
  predicted fidelity meets ``min_fidelity``, and under deadline shedding
  its deadline lay strictly beyond its admission layer.
* **determinism** — executing the same spec twice yields equal reports
  (replay determinism: one seed, one report).
* **streaming-parity** — a materialized trace and its lazy streaming
  delivery produce equal full-retention reports.
* **crash** — the engine raises anything but its all-rejected refusal.
* **parallel-identity** — ``workers=2`` equals the single-process oracle
  under full retention (exact where :mod:`repro.engine.partition` proves
  partitionability, trivially via fallback elsewhere).  Under
  ``retention="none"`` its counts and latency percentiles (log-bucket
  sketches merge exactly) must equal the oracle's, and the whole report —
  whose merged means differ from the oracle's in their last bits — must
  equal ``workers=1``.

A failing draw is greedily shrunk (:func:`shrink_spec`) toward the
smallest spec that still violates the same invariant — fewer requests,
fewer shards, smaller capacity, knobs back to defaults — and dumped as a
JSON reproducer anyone can replay with
``ScenarioSpec.from_json(...).execute()`` (the checked-in corpus under
``tests/reproducers/`` is replayed by tier-1).

``python -m repro.scenarios --draws 500 --seed 0 --seed 1 --seed 2
--seed 3`` is the CI campaign; ``mutate`` hooks let tests inject report
corruptions and assert the harness catches and shrinks them.
"""

from __future__ import annotations

import argparse
import json
import random
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.engine.core import ServiceReport
from repro.metrics.service_stats import ServiceStats
from repro.scenarios.spec import (
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
)

__all__ = [
    "FuzzReport",
    "Violation",
    "check_spec",
    "draw_spec",
    "offered_requests",
    "run_fuzz",
    "shrink_spec",
]

#: Report transformation hook for mutation testing: receives the base run's
#: report and returns the (possibly corrupted) report to check.
Mutator = Callable[[ServiceReport], ServiceReport]

#: Tolerance for float SLO boundary comparisons.
_EPS = 1e-9

#: Open-loop generator kinds (streaming/partitioned deliveries exist).
_OPEN_LOOP_KINDS = ("poisson", "flash-crowd")

#: Latency-percentile fields of the stats tables.
_PERCENTILES = ("p50_latency_layers", "p95_latency_layers", "p99_latency_layers")


@dataclass(frozen=True)
class Violation:
    """One invariant failure on one spec."""

    invariant: str
    detail: str
    spec: ScenarioSpec
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "seed": self.seed,
            "spec": self.spec.to_dict(),
        }


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    draws: int
    checked: int
    vacuous: int
    violation: Violation | None = None
    shrunk: ScenarioSpec | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def offered_requests(spec: ScenarioSpec) -> int:
    """How many requests the spec's workload offers."""
    workload = spec.workload
    if workload.kind == "poisson":
        return workload.num_queries
    if workload.kind == "flash-crowd":
        return workload.num_queries + workload.crowd_size
    return workload.num_clients * workload.queries_per_client


def _execute(spec: ScenarioSpec) -> ServiceReport | None:
    """Run a spec; ``None`` for the engine's all-rejected vacuous case."""
    try:
        return spec.execute()
    except ValueError as exc:
        if "no queries were served" in str(exc):
            return None
        raise


def _check_conservation(
    spec: ScenarioSpec, report: ServiceReport
) -> str | None:
    stats = report.stats
    accounted = (
        stats.total_queries + stats.rejected_queries + stats.shed_queries
    )
    if stats.offered_queries != accounted:
        return (
            f"stats.offered_queries={stats.offered_queries} != served "
            f"{stats.total_queries} + rejected {stats.rejected_queries} "
            f"+ shed {stats.shed_queries}"
        )
    expected = offered_requests(spec)
    if stats.offered_queries != expected:
        return (
            f"workload offered {expected} requests but the report "
            f"accounts {stats.offered_queries}"
        )
    if spec.run.retention == "full":
        if len(report.served) != stats.total_queries:
            return (
                f"retention='full' kept {len(report.served)} served "
                f"records for {stats.total_queries} served queries"
            )
        if len(report.rejected) != stats.rejected_queries + stats.shed_queries:
            return (
                f"retention='full' kept {len(report.rejected)} rejection "
                f"records for {stats.rejected_queries + stats.shed_queries} "
                f"refused requests"
            )
    return None


def _check_slo_admission(
    spec: ScenarioSpec, report: ServiceReport
) -> str | None:
    if spec.run.retention != "full":
        return None
    for record in report.served:
        if record.min_fidelity is not None and (
            record.predicted_fidelity is not None
            and record.predicted_fidelity < record.min_fidelity - _EPS
        ):
            return (
                f"served query {record.query_id} predicts fidelity "
                f"{record.predicted_fidelity} below its SLO "
                f"{record.min_fidelity}"
            )
        if (
            spec.policy.shed_expired
            and record.deadline is not None
            and record.deadline <= record.admit_layer - _EPS
        ):
            return (
                f"served query {record.query_id} was admitted at layer "
                f"{record.admit_layer}, past its deadline {record.deadline} "
                f"(shed_expired should have dropped it)"
            )
    return None


def check_spec(
    spec: ScenarioSpec, mutate: Mutator | None = None
) -> Violation | None:
    """Execute one spec and check every applicable invariant.

    Returns the first :class:`Violation`, or ``None`` when all pass (a
    run the engine refuses because every request was rejected counts as a
    vacuous pass; any other exception is a ``crash`` violation).  With ``mutate`` the base report is transformed before
    the report-level checks (conservation, slo-admission) and the
    multi-run invariants are skipped — the mutation-testing mode proving
    the harness catches an injected bug.
    """
    return _check(spec, mutate)[1]


def _check(
    spec: ScenarioSpec, mutate: Mutator | None = None
) -> tuple[bool, Violation | None]:
    """``(vacuous, first violation)`` of one spec.

    Any exception other than the vacuous refusal is itself a violation
    (``crash``), so it is shrunk and dumped like a failed invariant.
    """
    try:
        report = _execute(spec)
        if report is None:
            return True, None
        return False, _check_with_report(spec, report, mutate)
    except Exception as exc:  # every crash is a finding
        return False, Violation("crash", f"{type(exc).__name__}: {exc}", spec)


def _check_with_report(
    spec: ScenarioSpec, report: ServiceReport, mutate: Mutator | None = None
) -> Violation | None:
    """The invariant battery, given the spec's already-computed report."""
    if mutate is not None:
        report = mutate(report)

    detail = _check_conservation(spec, report)
    if detail is not None:
        return Violation("conservation", detail, spec)
    detail = _check_slo_admission(spec, report)
    if detail is not None:
        return Violation("slo-admission", detail, spec)
    if mutate is not None:
        return None

    rerun = _execute(spec)
    if rerun != report:
        return Violation(
            "determinism", "same spec, same seed, different report", spec
        )

    if (
        spec.workload.kind in _OPEN_LOOP_KINDS
        and spec.run.retention == "full"
    ):
        other = "streaming" if spec.workload.delivery == "trace" else "trace"
        variant = replace(spec, workload=replace(spec.workload, delivery=other))
        if _execute(variant) != report:
            return Violation(
                "streaming-parity",
                f"delivery {spec.workload.delivery!r} and {other!r} "
                f"disagree under retention='full'",
                spec,
            )

    # The engine's determinism contract: under full retention workers=N is
    # bit-identical to the single-process oracle (workers=0).  Under
    # retention="none" the merged means depend on the shard-order
    # summation in their last bits, so the whole report is compared with
    # workers=1 (same merge path), and the counts and latency percentiles
    # — exact under the merge — with the oracle.
    parallel = _execute(replace(spec, run=replace(spec.run, workers=2)))
    if spec.run.retention == "full":
        baseline, against = report, "the single-process oracle"
    else:
        baseline = _execute(replace(spec, run=replace(spec.run, workers=1)))
        against = "workers=1"
        if parallel is not None:
            merged = _merge_exact_fields(parallel.stats)
            oracle = _merge_exact_fields(report.stats)
            if merged != oracle:
                field = min(
                    key for key in merged.keys() | oracle.keys()
                    if merged.get(key) != oracle.get(key)
                )
                return Violation(
                    "parallel-identity",
                    f"workers=2 {field} differs from the oracle's",
                    spec,
                )
    if parallel != baseline:
        return Violation(
            "parallel-identity",
            f"workers=2 differs from {against}",
            spec,
        )
    return None


def _merge_exact_fields(stats: ServiceStats) -> dict[str, Any]:
    """The stats fields a parallel merge reproduces exactly: every count
    and every latency percentile, keyed by their path in ``stats``."""
    fields: dict[str, Any] = {}

    def walk(path: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}" if path else str(key), item)
        elif isinstance(value, int) or path.rsplit(".", 1)[-1] in _PERCENTILES:
            fields[path] = value

    walk("", asdict(stats))
    return fields


# ------------------------------------------------------------------ drawing
def draw_spec(rng: random.Random) -> ScenarioSpec:
    """One random, always-valid scenario.

    Small on purpose (a draw serves tens of requests, not thousands) and
    biased toward the configurations where the invariants bite:
    interleaved multi-shard fleets, partitioned delivery, bounded queues,
    deadlines and fidelity SLOs.  Every choice comes from ``rng``, so a
    campaign is one seed.
    """
    placement = rng.choice(
        ["interleaved", "interleaved", "interleaved", "shortest-queue"]
    )
    num_shards = rng.choice([1, 2, 2, 2, 4])
    capacity = rng.choice([16, 32])
    pool = ["Fat-Tree", "Fat-Tree", "Fat-Tree", "BB", "Virtual", "Fat-Tree@d3"]
    shards = tuple(rng.choice(pool) for _ in range(num_shards))
    fleet = FleetSpec(
        capacity=capacity,
        shards=shards,
        placement=placement,
        window_size=rng.choice([None, None, 1, 2]),
        functional=rng.random() < 0.4,
        data=rng.choice(["zeros", "random", "parity"]),
        data_seed=rng.randrange(4),
    )

    kind = rng.choice(list(_OPEN_LOOP_KINDS) + ["closed-loop"])
    num_tenants = rng.choice([1, 2, 3, 4])
    deadline = rng.choice([None, None, 80.0, 200.0, 1000.0])
    min_fidelity = rng.choice([None, None, None, 0.5, 0.9])
    tenant_weights = (
        tuple(1.0 + rng.randrange(8) for _ in range(num_tenants))
        if num_tenants > 1 and rng.random() < 0.3
        else None
    )
    shared: dict[str, Any] = {
        "seed": rng.randrange(1000),
        "deadline_layers": deadline,
        "min_fidelity": min_fidelity,
        "addresses_per_query": rng.choice([1, 1, 2]),
    }
    if kind == "closed-loop":
        workload = WorkloadSpec(
            kind="closed-loop",
            num_clients=rng.randrange(1, 5),
            queries_per_client=rng.randrange(1, 6),
            think_layers=rng.choice([0.0, 20.0, 100.0]),
            **shared,
        )
    else:
        delivery = rng.choice(["trace", "streaming", "partitioned"])
        open_loop: dict[str, Any] = {
            "delivery": delivery,
            "num_tenants": num_tenants,
            "tenant_weights": tenant_weights,
            **shared,
        }
        if kind == "poisson":
            workload = WorkloadSpec(
                kind="poisson",
                num_queries=rng.randrange(4, 25),
                mean_interarrival=rng.choice([2.0, 6.0, 20.0]),
                **open_loop,
            )
        else:
            workload = WorkloadSpec(
                kind="flash-crowd",
                num_queries=rng.randrange(4, 17),
                mean_interarrival=rng.choice([4.0, 12.0]),
                crowd_time=rng.choice([0.0, 50.0, 200.0]),
                crowd_size=rng.randrange(2, 11),
                crowd_spacing=rng.choice([0.0, 1.0]),
                **open_loop,
            )

    policy = PolicySpec(
        admission=rng.choice(
            ["fifo", "fifo", "lifo", "random", "priority", "edf"]
        ),
        admission_seed=rng.randrange(16),
        max_queue_depth=rng.choice([None, None, 2, 4, 8]),
        shed_expired=(deadline is not None and rng.random() < 0.6),
    )
    run = RunSpec(
        retention=rng.choice(["full", "full", "full", "none"]),
        telemetry_interval=rng.choice([None, None, 250.0]),
        max_distillation_copies=rng.choice([1, 1, 1, 2]),
        workers=0,
        sanitize=True,
    )
    return ScenarioSpec(
        fleet=fleet, workload=workload, policy=policy, run=run, name="fuzz"
    )


# ---------------------------------------------------------------- shrinking
#: One shrink step: per-section field changes to try applying together.
_Edit = dict[str, dict[str, Any]]


def _shrink_edits(spec: ScenarioSpec) -> Iterator[_Edit]:
    """Strictly-simplifying edits of a spec, most aggressive first.

    Edits are *descriptions* ({section: {field: new_value}}); the caller
    applies them under validation, so combinations a kind or fleet shape
    forbids are simply skipped.
    """
    workload = spec.workload
    fleet = spec.fleet

    # Fewer requests first: halve, then floor at one.
    for name in (
        "num_queries", "crowd_size",
        "num_clients", "queries_per_client",
    ):
        value = getattr(workload, name)
        if value > 1:
            yield {"workload": {name: max(1, value // 2)}}
            yield {"workload": {name: 1}}

    # Fewer shards.
    if fleet.num_shards > 1:
        for count in (1, fleet.num_shards // 2):
            if 1 <= count < fleet.num_shards:
                yield {"fleet": {"shards": fleet.shards[:count]}}

    # Smaller memory.
    if fleet.capacity > 4:
        yield {"fleet": {"capacity": fleet.capacity // 2}}

    # Simpler fleet knobs.
    if fleet.shards != ("Fat-Tree",) * fleet.num_shards:
        yield {"fleet": {"shards": ("Fat-Tree",) * fleet.num_shards}}
    for name, default in (
        ("functional", False), ("data", "zeros"), ("window_size", None),
        ("parameters", None), ("data_seed", 0),
    ):
        if getattr(fleet, name) != default:
            yield {"fleet": {name: default}}

    # Simpler workload knobs (defaults match the dataclass, so edits are
    # no-ops — and skipped — for kinds the field does not apply to).
    for name, default in (
        ("deadline_layers", None), ("min_fidelity", None),
        ("tenant_weights", None), ("delivery", "trace"),
        ("addresses_per_query", 1), ("think_layers", 0.0),
        ("crowd_spacing", 0.0), ("crowd_time", 0.0), ("seed", 0),
    ):
        if getattr(workload, name) != default:
            yield {"workload": {name: default}}
    if workload.num_tenants != 1:
        yield {"workload": {"num_tenants": 1, "tenant_weights": None}}

    # Simpler policy / run knobs.
    policy = spec.policy
    for name, default in (
        ("max_queue_depth", None), ("shed_expired", False),
        ("admission", "fifo"), ("admission_seed", 0),
    ):
        if getattr(policy, name) != default:
            yield {"policy": {name: default}}
    run = spec.run
    for name, default in (
        ("retention", "full"), ("telemetry_interval", None),
        ("max_distillation_copies", 1), ("workers", 0),
    ):
        if getattr(run, name) != default:
            yield {"run": {name: default}}


def _apply_edit(spec: ScenarioSpec, edit: _Edit) -> ScenarioSpec | None:
    """Apply one edit; ``None`` when the result fails spec validation."""
    try:
        sections = {
            section: replace(getattr(spec, section), **changes)
            for section, changes in edit.items()
        }
        return replace(spec, **sections)
    except SpecError:
        return None


def shrink_spec(
    spec: ScenarioSpec,
    check: Callable[[ScenarioSpec], Violation | None],
    invariant: str | None = None,
    max_rounds: int = 50,
) -> ScenarioSpec:
    """Greedily minimize a failing spec.

    Repeatedly tries the candidates of :func:`_shrink_candidates`,
    accepting any that still fails ``check`` with the same invariant
    (first-improvement hill descent), until a full round accepts nothing
    or ``max_rounds`` is hit.  The result still violates; every field the
    bug does not need has been folded back to its default.
    """
    current = spec
    for _ in range(max_rounds):
        improved = False
        for edit in _shrink_edits(current):
            candidate = _apply_edit(current, edit)
            if candidate is None or candidate == current:
                continue
            violation = check(candidate)
            if violation is not None and (
                invariant is None or violation.invariant == invariant
            ):
                current = candidate
                improved = True
                break
        if not improved:
            break
    return current


# ---------------------------------------------------------------- campaigns
def run_fuzz(
    draws: int = 200,
    seed: int = 0,
    mutate: Mutator | None = None,
    reproducer_path: str | None = None,
) -> FuzzReport:
    """One seeded campaign: draw, check, and on failure shrink + dump.

    Stops at the first violation; ``reproducer_path`` (when given)
    receives the shrunk spec and violation details as JSON.  Vacuous
    draws (every request rejected, nothing served) are counted but not
    failed.
    """
    rng = random.Random(seed)
    checker: Callable[[ScenarioSpec], Violation | None] = (
        lambda s: check_spec(s, mutate=mutate)
    )
    vacuous = 0
    for index in range(draws):
        spec = draw_spec(rng)
        is_vacuous, violation = _check(spec, mutate)
        vacuous += is_vacuous
        if violation is None:
            continue
        violation = Violation(
            violation.invariant, violation.detail, violation.spec, seed
        )
        shrunk = shrink_spec(spec, checker, invariant=violation.invariant)
        if reproducer_path is not None:
            payload = violation.to_dict()
            payload["shrunk_spec"] = shrunk.to_dict()
            with open(reproducer_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        return FuzzReport(
            draws=draws,
            checked=index + 1,
            vacuous=vacuous,
            violation=violation,
            shrunk=shrunk,
        )
    return FuzzReport(draws=draws, checked=draws, vacuous=vacuous)


def main(argv: list[str] | None = None) -> int:
    """CLI for the CI fuzz smoke: seeded draws, fail on any violation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.fuzz",
        description="Property-based serving-engine fuzz smoke.",
    )
    parser.add_argument(
        "--draws", type=int, default=200, help="scenario draws per seed"
    )
    parser.add_argument(
        "--seed",
        type=int,
        action="append",
        dest="seeds",
        help="campaign seed (repeatable; default 0)",
    )
    parser.add_argument(
        "--reproducer",
        default="fuzz_reproducer.json",
        help="where to dump the shrunk reproducer on failure",
    )
    args = parser.parse_args(argv)
    seeds = args.seeds if args.seeds else [0]
    for seed in seeds:
        report = run_fuzz(
            draws=args.draws, seed=seed, reproducer_path=args.reproducer
        )
        print(
            f"seed {seed}: {report.checked}/{report.draws} draws checked, "
            f"{report.vacuous} vacuous"
        )
        if report.violation is not None:
            print(
                f"VIOLATION [{report.violation.invariant}] "
                f"{report.violation.detail}"
            )
            print(f"reproducer written to {args.reproducer}")
            return 1
    print("all invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

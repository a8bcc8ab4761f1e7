"""The declarative scenario layer: validation, round-trips, bit-identity.

Four pillars:

* **field-precise validation** — every bad field raises a
  :class:`~repro.scenarios.SpecError` naming ``Class.field``, and fields
  a workload kind ignores cannot carry non-default values;
* **JSON round-trips** — ``to_dict``/``from_dict`` and
  ``to_json``/``from_json`` reproduce every spec exactly, and unknown
  keys are rejected at every section;
* **bit-identity** — for every ported example scenario, the spec-built
  run produces the *identical* ``ServiceReport`` the original
  hand-wired construction produces (the tentpole contract: the
  declarative layer adds vocabulary, never behaviour);
* **characterization** — each adversarial library scenario
  deterministically reproduces its pinned accounting signature;
* **stats digests** — the full-retention ``ServiceStats`` of every
  library scenario and every fidelity-SLO example scenario hashes to a
  pinned SHA-256, so any drift in the statistics path — not just in the
  accounting counters — fails loudly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro import (
    QRAMService,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
    backend_names,
)
from repro.engine import PartitionedTraceSource
from repro.hardware.parameters import TABLE3_PARAMETERS
from repro.metrics import ServiceStats
from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
    library_names,
    library_scenario,
)
from repro.sweep.engine import _canonical
from repro.workloads import (
    closed_loop_source,
    iter_poisson_trace,
    random_data,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example(name: str):
    """Load one ``examples/`` module by file path (they are not a package)."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stats_digest(stats: ServiceStats) -> str:
    """SHA-256 of the stats' canonical JSON (``report_digest``'s encoding)."""
    text = json.dumps(
        _canonical(dataclasses.asdict(stats)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ validation
class TestFleetSpecValidation:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(SpecError, match="FleetSpec.capacity"):
            FleetSpec(capacity=24)
        with pytest.raises(SpecError, match="FleetSpec.capacity"):
            FleetSpec(capacity=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="FleetSpec.shards"):
            FleetSpec(capacity=16, shards=("Fat-Tree", "NoSuchTree"))

    def test_unencodable_distance_rejected(self):
        with pytest.raises(SpecError, match="FleetSpec.shards"):
            FleetSpec(capacity=16, shards=("Fat-Tree@dX",))

    def test_interleaved_divisibility(self):
        with pytest.raises(SpecError, match="interleaved"):
            FleetSpec(capacity=16, shards=("Fat-Tree",) * 3)
        # The same shard count is fine replicated.
        FleetSpec(
            capacity=16, shards=("Fat-Tree",) * 3, placement="shortest-queue"
        )

    def test_bad_placement(self):
        with pytest.raises(SpecError, match="FleetSpec.placement"):
            FleetSpec(capacity=16, placement="round-robin")

    def test_bad_data_pattern(self):
        with pytest.raises(SpecError, match="FleetSpec.data "):
            FleetSpec(capacity=16, data="striped")

    def test_bad_window_size(self):
        with pytest.raises(SpecError, match="FleetSpec.window_size"):
            FleetSpec(capacity=16, window_size=0)


class TestWorkloadSpecValidation:
    def test_unknown_kind(self):
        # "bursty" and "diurnal" were kinds once; specs naming them fail.
        for kind in ("tsunami", "bursty", "diurnal"):
            with pytest.raises(SpecError, match="WorkloadSpec.kind"):
                WorkloadSpec(kind=kind)

    def test_inapplicable_field_rejected(self):
        with pytest.raises(SpecError, match="WorkloadSpec.crowd_size"):
            WorkloadSpec(
                kind="poisson", num_queries=10, mean_interarrival=5.0,
                crowd_size=3,
            )
        with pytest.raises(SpecError, match="WorkloadSpec.think_layers"):
            WorkloadSpec(
                kind="flash-crowd", num_queries=10, mean_interarrival=5.0,
                crowd_size=4, think_layers=5.0,
            )

    def test_kind_positivity(self):
        with pytest.raises(SpecError, match="WorkloadSpec.num_queries"):
            WorkloadSpec(kind="poisson", num_queries=0, mean_interarrival=5.0)
        with pytest.raises(SpecError, match="WorkloadSpec.mean_interarrival"):
            WorkloadSpec(kind="poisson", num_queries=10, mean_interarrival=0.0)
        with pytest.raises(SpecError, match="WorkloadSpec.crowd_size"):
            WorkloadSpec(
                kind="flash-crowd", num_queries=10, mean_interarrival=5.0,
                crowd_size=0,
            )

    def test_closed_loop_requires_trace_delivery(self):
        with pytest.raises(SpecError, match="WorkloadSpec.delivery"):
            WorkloadSpec(
                kind="closed-loop", num_clients=2, queries_per_client=3,
                delivery="streaming",
            )

    def test_tenant_weights_length(self):
        with pytest.raises(SpecError, match="WorkloadSpec.tenant_weights"):
            WorkloadSpec(
                kind="poisson", num_queries=10, mean_interarrival=5.0,
                num_tenants=3, tenant_weights=(0.5, 0.5),
            )

    def test_min_fidelity_range(self):
        with pytest.raises(SpecError, match="WorkloadSpec.min_fidelity"):
            WorkloadSpec(
                kind="poisson", num_queries=10, mean_interarrival=5.0,
                min_fidelity=1.5,
            )

    def test_deadline_positive(self):
        with pytest.raises(SpecError, match="WorkloadSpec.deadline_layers"):
            WorkloadSpec(
                kind="poisson", num_queries=10, mean_interarrival=5.0,
                deadline_layers=0.0,
            )


class TestPolicyRunValidation:
    def test_unknown_admission(self):
        with pytest.raises(SpecError, match="PolicySpec.admission"):
            PolicySpec(admission="fair-share")

    def test_bad_queue_depth(self):
        with pytest.raises(SpecError, match="PolicySpec.max_queue_depth"):
            PolicySpec(max_queue_depth=0)

    def test_bad_retention(self):
        with pytest.raises(SpecError, match="RunSpec.retention"):
            RunSpec(retention="some")

    def test_bad_clops_workers_telemetry(self):
        with pytest.raises(SpecError, match="RunSpec.clops"):
            RunSpec(clops=0.0)
        with pytest.raises(SpecError, match="RunSpec.workers"):
            RunSpec(workers=-1)
        with pytest.raises(SpecError, match="RunSpec.telemetry_interval"):
            RunSpec(telemetry_interval=0.0)


# ----------------------------------------------------------------- round-trip
def _scenario_corpus() -> dict[str, ScenarioSpec]:
    corpus = {name: library_scenario(name) for name in library_names()}
    corpus["maximal"] = ScenarioSpec(
        name="maximal",
        fleet=FleetSpec(
            capacity=32,
            shards=("Fat-Tree", "Fat-Tree@d3", "BB"),
            placement="shortest-queue",
            window_size=2,
            functional=False,
            data="random",
            data_seed=9,
            parameters=TABLE3_PARAMETERS[1e-4],
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=7,
            mean_interarrival=11.0,
            num_tenants=2,
            seed=42,
            deadline_layers=500.0,
            min_fidelity=0.5,
            tenant_weights=(0.75, 0.25),
            delivery="streaming",
        ),
        policy=PolicySpec(
            admission="random",
            admission_seed=13,
            max_queue_depth=5,
            shed_expired=True,
        ),
        run=RunSpec(
            retention="none",
            telemetry_interval=250.0,
            max_distillation_copies=2,
            workers=0,
            sanitize=True,
            clops=2.0e6,
        ),
    )
    return corpus


@pytest.mark.parametrize("name", [*library_names(), "maximal"])
def test_round_trip(name):
    spec = _scenario_corpus()[name]
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "section, key",
    [
        *(
            pytest.param(section, f"{section}_extra", id=section)
            for section in ("top", "fleet", "workload", "policy", "run")
        ),
        # A spec saved with a deleted option fails loudly instead of
        # silently serving without it: the elastic fleet, the bursty and
        # diurnal kinds' fields, closed-loop stagger and shard weights.
        *(
            pytest.param(section, key, id=f"{section}-{key}")
            for section, key in (
                ("policy", "autoscaler"),
                ("workload", "num_bursts"),
                ("workload", "burst_size"),
                ("workload", "burst_spacing"),
                ("workload", "period"),
                ("workload", "amplitude"),
                ("workload", "stagger"),
                ("workload", "shard_weights"),
            )
        ),
    ],
)
def test_unknown_keys_rejected(section, key):
    payload = library_scenario("flash-crowd").to_dict()
    if section == "top":
        payload[key] = 1
        expected = "ScenarioSpec"
    else:
        payload[section][key] = None
        expected = {
            "fleet": "FleetSpec", "workload": "WorkloadSpec",
            "policy": "PolicySpec", "run": "RunSpec",
        }[section]
    match = rf"unknown {expected} key\(s\) \['{key}'\]"
    with pytest.raises(SpecError, match=match):
        ScenarioSpec.from_dict(payload)


def test_nested_config_unknown_keys_rejected():
    payload = ScenarioSpec(
        fleet=FleetSpec(capacity=16, parameters=TABLE3_PARAMETERS[1e-4]),
        workload=WorkloadSpec(
            kind="poisson", num_queries=4, mean_interarrival=5.0
        ),
    ).to_dict()
    payload["fleet"]["parameters"]["epsilon_zero"] = 1.0
    with pytest.raises(SpecError, match="FleetSpec.parameters"):
        ScenarioSpec.from_dict(payload)


def test_missing_required_sections():
    with pytest.raises(SpecError, match="'fleet' and 'workload'"):
        ScenarioSpec.from_dict({"name": "empty"})


def test_clops_converts_layers_to_seconds():
    """``RunSpec.clops`` only rescales the per-second rates (Table 2's
    1 MHz CLOPS clock): the simulated layers stay as they were."""
    spec = library_scenario("flash-crowd")
    slow = spec.execute().stats
    run = dataclasses.replace(spec.run, clops=2.0 * spec.run.clops)
    fast = dataclasses.replace(spec, run=run).execute().stats
    assert fast.makespan_layers == slow.makespan_layers
    assert fast.p99_latency_layers == slow.p99_latency_layers
    assert fast.bandwidth_queries_per_sec == pytest.approx(
        2.0 * slow.bandwidth_queries_per_sec
    )


# --------------------------------------------------- example bit-identity
def test_serving_traffic_bit_identity():
    spec = _example("serving_traffic").SCENARIOS["traffic"]
    service = QRAMService(16, num_shards=2, data=random_data(16, seed=1))
    trace = list(iter_poisson_trace(
        16, 100, mean_interarrival=8.0, num_tenants=3, num_shards=2, seed=7
    ))
    assert spec.execute() == ServiceEngine(service).run(TraceSource(trace))


def test_serving_closed_loop_bit_identity():
    scenarios = _example("serving_closed_loop").SCENARIOS

    service = QRAMService(16, num_shards=2, data=random_data(16, seed=1))
    trace = list(iter_poisson_trace(
        16, 40, mean_interarrival=8.0, num_tenants=4, num_shards=2, seed=7
    ))
    expected = ServiceEngine(service).run(TraceSource(trace))
    assert scenarios["open-loop"].execute() == expected

    service = QRAMService(16, num_shards=2, functional=False)
    source = closed_loop_source(
        16, num_clients=4, queries_per_client=8, think_layers=60.0,
        num_shards=2, seed=3,
    )
    assert scenarios["closed-loop"].execute() == ServiceEngine(service).run(source)

    service = QRAMService(16, num_shards=2, functional=False, policy="edf")
    trace = list(iter_poisson_trace(
        16, 60, mean_interarrival=2.0, num_tenants=4, num_shards=2, seed=5,
        deadline_layers=180.0,
    ))
    expected = ServiceEngine(
        service, max_queue_depth=6, shed_expired=True
    ).run(TraceSource(trace))
    assert scenarios["slo-aware"].execute() == expected
    assert sorted(scenarios) == ["closed-loop", "open-loop", "slo-aware"]


def test_serving_mixed_backends_bit_identity():
    scenarios = _example("serving_mixed_backends").SCENARIOS

    data = random_data(32, seed=1)
    service = QRAMService(
        32, num_shards=4, data=data,
        architectures=["Fat-Tree", "Fat-Tree", "BB", "Virtual"],
    )
    trace = list(iter_poisson_trace(
        32, 60, mean_interarrival=6.0, num_tenants=3, num_shards=4, seed=7
    ))
    expected = ServiceEngine(service).run(TraceSource(trace))
    assert scenarios["interleaved"].execute() == expected

    fleet = backend_names()
    service = QRAMService(
        32, num_shards=len(fleet), data=data, architectures=fleet,
        placement="shortest-queue", functional=False,
    )
    trace = list(iter_poisson_trace(
        32, 60, mean_interarrival=3.0, num_tenants=3, num_shards=1, seed=11
    ))
    expected = ServiceEngine(service).run(TraceSource(trace))
    assert scenarios["replicated"].execute() == expected


def test_serving_fidelity_slo_bit_identity():
    scenarios = _example("serving_fidelity_slo").SCENARIOS
    params = TABLE3_PARAMETERS[1e-4]

    service = QRAMService(
        16, num_shards=2, functional=False, parameters=params
    )
    trace = list(iter_poisson_trace(
        16, 24, mean_interarrival=10.0, num_tenants=3, num_shards=2, seed=7
    ))
    expected = ServiceEngine(service).run(TraceSource(trace))
    assert scenarios["predicted-fidelity"].execute() == expected

    service = QRAMService(
        16, num_shards=2, functional=False,
        architectures=["Fat-Tree", "Fat-Tree@d3"],
        placement="shortest-queue", parameters=params,
    )
    trace = list(iter_poisson_trace(
        16, 24, mean_interarrival=40.0, num_tenants=3, seed=5,
        min_fidelity=0.995,
    ))
    expected = ServiceEngine(service).run(TraceSource(trace))
    assert scenarios["mixed-encoded"].execute() == expected

    service = QRAMService(
        16, num_shards=1, functional=False, parameters=params
    )
    solo = service.shards[0].predicted_query_fidelity()
    target = 1.0 - (1.0 - solo) ** 2 * 2.0
    trace = list(iter_poisson_trace(
        16, 12, mean_interarrival=120.0, seed=3, min_fidelity=target
    ))
    report = ServiceEngine(service, max_distillation_copies=4).run(
        TraceSource(trace)
    )
    assert scenarios["distillation-retry"].execute() == report
    assert all(r.distillation_copies == 2 for r in report.served)


def test_serving_parallel_bit_identity():
    scenarios = _example("serving_parallel").SCENARIOS

    service = QRAMService(16, num_shards=4, data=random_data(16, seed=3))
    requests = list(iter_poisson_trace(
        16, 48, mean_interarrival=6.0, num_tenants=3, num_shards=4, seed=11
    ))
    oracle = ServiceEngine(service, workers=0).run(TraceSource(requests))
    assert scenarios["oracle"].execute() == oracle

    def factory(shards=None):
        return iter_poisson_trace(
            16, 48, mean_interarrival=6.0, num_tenants=3, num_shards=4,
            seed=11, shards=shards,
        )

    service = QRAMService(16, num_shards=4, data=random_data(16, seed=3))
    lazy = ServiceEngine(service, workers=2, retention="none").run(
        PartitionedTraceSource(factory)
    )
    assert scenarios["lazy-partitioned"].execute() == lazy

    fallback = scenarios["fallback"].execute()
    assert fallback.parallel is not None
    assert fallback.parallel.workers == 0
    assert fallback.parallel.fallback_reason is not None


def test_serving_scale_telemetry_bit_identity():
    spec = _example("serving_scale_telemetry").SCENARIOS["telemetry"]
    trace = iter_poisson_trace(
        16, 20_000, mean_interarrival=16.0, addresses_per_query=1,
        num_tenants=4, num_shards=2, seed=5,
    )
    service = QRAMService(16, num_shards=2, functional=False)
    report = ServiceEngine(
        service, retention="none", telemetry_interval=10_000.0
    ).run(StreamingTraceSource(trace))
    assert spec.execute() == report
    assert report.served == [] and len(report.telemetry) >= 12


# ------------------------------------------------------------ library pins
#: The deterministic accounting signature of each adversarial scenario,
#: plus the digest of its full-retention stats (:func:`_stats_digest`).
_LIBRARY_PINS = {
    "flash-crowd": dict(
        offered=120, served=76, rejected=44, shed=0,
        stats_sha256="788e9e27a8d14456c1a7380d6888fcf7d6fc6d577a5bb202ef35901aaa056c98",
    ),
    "misbehaving-tenant": dict(
        offered=150, served=53, rejected=97, shed=0,
        stats_sha256="468ae865c62e8a31c5e56e1f60cc5fee5f03cd91e62dff3b9038963ef2777a64",
    ),
    "deadline-impossible": dict(
        offered=80, served=24, rejected=0, shed=56,
        stats_sha256="9f9f11bb9be0f6ade01966a691c416fc3e2ac271c33eae5cb180176b74f1ecd5",
    ),
}


@pytest.mark.parametrize("name", sorted(_LIBRARY_PINS))
def test_library_characterization(name):
    pins = _LIBRARY_PINS[name]
    report = library_scenario(name).execute()
    stats = report.stats
    assert stats.offered_queries == pins["offered"]
    assert stats.total_queries == pins["served"]
    assert stats.rejected_queries == pins["rejected"]
    assert stats.shed_queries == pins["shed"]
    assert report.retention == "full"
    assert _stats_digest(stats) == pins["stats_sha256"]


#: Full-retention stats digests of the ``serving_fidelity_slo`` examples.
_FIDELITY_SLO_STATS_PINS = {
    "predicted-fidelity": "23135de40b6b66cdb0823f3bf04261b869b1d9994786efb1a940a7a8f361d909",
    "mixed-encoded": "091a7125318faa8483652145c3f59b9899b6a63b357b7baa9037ed5793b570ee",
    "distillation-retry": "92472fb779056b2ce58284dfa092f1e07f2cf25393487af7acc1a126ceb85b95",
}


@pytest.mark.parametrize("name", sorted(_FIDELITY_SLO_STATS_PINS))
def test_fidelity_slo_stats_digest(name):
    report = _example("serving_fidelity_slo").SCENARIOS[name].execute()
    assert report.retention == "full"
    assert _stats_digest(report.stats) == _FIDELITY_SLO_STATS_PINS[name]


def test_library_signatures():
    """Each scenario stresses what its name says."""
    tenants = library_scenario("misbehaving-tenant").execute().stats.per_tenant
    flooder = tenants[0]
    assert flooder.queries > sum(
        t.queries for tenant, t in tenants.items() if tenant != 0
    )

    impossible = library_scenario("deadline-impossible").execute().stats
    assert impossible.deadline_misses >= impossible.shed_queries
    assert impossible.total_queries > 0

    with pytest.raises(KeyError, match="unknown library scenario"):
        library_scenario("unknown-name")

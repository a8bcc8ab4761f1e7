"""Named adversarial serving scenarios, as :class:`ScenarioSpec` factories.

Each entry stresses one failure mode a production QRAM service must
survive, as a small deterministic spec usable from tests (characterization
pins in ``tests/test_scenarios.py``), benchmarks (the scenario axis of
``benchmarks/bench_service_throughput.py``) and examples:

* ``flash-crowd`` — a simultaneous arrival spike on a bounded queue:
  backpressure rejects the overflow instead of collapsing latency.
* ``misbehaving-tenant`` — one tenant floods a shared bounded queue past
  its fair share and every tenant eats the rejections.
* ``deadline-impossible`` — offered load far beyond capacity with tight
  deadlines under EDF + shedding: most of the backlog is shed at the
  admission edge, yet everything that *is* served was admitted before its
  deadline.

``library_scenario(name)`` builds one by name; :data:`LIBRARY` maps every
name to its factory.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.scenarios.spec import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)

__all__ = ["LIBRARY", "library_names", "library_scenario"]


def flash_crowd() -> ScenarioSpec:
    """A 40-request spike on a bounded queue mid-run (backpressure)."""
    return ScenarioSpec(
        name="flash-crowd",
        fleet=FleetSpec(
            capacity=32,
            shards=("Fat-Tree", "Fat-Tree"),
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="flash-crowd",
            num_queries=80,
            mean_interarrival=12.0,
            crowd_time=300.0,
            crowd_size=40,
            num_tenants=3,
            seed=5,
        ),
        policy=PolicySpec(max_queue_depth=8),
    )


def misbehaving_tenant() -> ScenarioSpec:
    """Tenant 0 floods a bounded queue far past its fair share."""
    return ScenarioSpec(
        name="misbehaving-tenant",
        fleet=FleetSpec(
            capacity=32,
            shards=("Fat-Tree", "Fat-Tree"),
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=150,
            mean_interarrival=3.0,
            num_tenants=4,
            seed=3,
            tenant_weights=(0.76, 0.08, 0.08, 0.08),
        ),
        policy=PolicySpec(max_queue_depth=6),
    )


def deadline_impossible() -> ScenarioSpec:
    """Overload with deadlines most requests cannot meet (EDF + shed)."""
    return ScenarioSpec(
        name="deadline-impossible",
        fleet=FleetSpec(
            capacity=32,
            shards=("Fat-Tree", "Fat-Tree"),
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=80,
            mean_interarrival=2.0,
            num_tenants=2,
            seed=9,
            deadline_layers=120.0,
        ),
        policy=PolicySpec(admission="edf", shed_expired=True),
    )


#: Every library scenario, keyed by its spec ``name``.
LIBRARY: dict[str, Callable[[], ScenarioSpec]] = {
    "flash-crowd": flash_crowd,
    "misbehaving-tenant": misbehaving_tenant,
    "deadline-impossible": deadline_impossible,
}


def library_names() -> tuple[str, ...]:
    """The adversarial scenario names, in presentation order."""
    return tuple(LIBRARY)


def library_scenario(name: str) -> ScenarioSpec:
    """Build one library scenario by name."""
    try:
        factory = LIBRARY[name]
    except KeyError:
        raise KeyError(
            f"unknown library scenario {name!r}; expected one of "
            f"{sorted(LIBRARY)}"
        ) from None
    return factory()

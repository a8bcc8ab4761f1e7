"""Declarative serving scenarios, the adversarial workload library and the
property-based engine fuzzer.

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and its sections
  (:class:`FleetSpec`, :class:`WorkloadSpec`, :class:`PolicySpec`,
  :class:`RunSpec`): frozen, validated, JSON-round-trippable descriptions
  of complete serving runs, built into the exact
  ``QRAMService``/``ServiceEngine``/workload objects the hand-written
  paths produce.
* :mod:`repro.scenarios.library` — named adversarial scenarios (flash
  crowd, misbehaving tenant, deadline-impossible mix) as spec factories.
* :mod:`repro.scenarios.fuzz` — seeded random spec draws checked against
  the engine's invariants, with greedy shrinking to a minimal JSON
  reproducer (``python -m repro.scenarios.fuzz`` runs the CI smoke).
"""

from repro.scenarios.fuzz import (
    FuzzReport,
    Violation,
    check_spec,
    draw_spec,
    offered_requests,
    run_fuzz,
    shrink_spec,
)
from repro.scenarios.library import LIBRARY, library_scenario, library_names
from repro.scenarios.spec import (
    DATA_PATTERNS,
    DELIVERIES,
    WORKLOAD_KINDS,
    BuiltScenario,
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
)

__all__ = [
    "DATA_PATTERNS",
    "DELIVERIES",
    "WORKLOAD_KINDS",
    "BuiltScenario",
    "FleetSpec",
    "FuzzReport",
    "LIBRARY",
    "PolicySpec",
    "RunSpec",
    "ScenarioSpec",
    "SpecError",
    "Violation",
    "WorkloadSpec",
    "check_spec",
    "draw_spec",
    "library_names",
    "library_scenario",
    "offered_requests",
    "run_fuzz",
    "shrink_spec",
]

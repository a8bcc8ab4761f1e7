"""Declarative serving scenarios: one validated, serializable spec.

Every serving run in this repository is some assembly of the same four
ingredient groups — a fleet (:class:`repro.service.QRAMService`
constructor), a workload (the generators in :mod:`repro.workloads`), an
admission/backpressure policy and the engine's run knobs
(:class:`repro.engine.ServiceEngine`).  Historically each example, test
and benchmark hand-wired those kwargs; this module gives them one frozen,
validated, JSON-round-trippable object instead:

* :class:`FleetSpec` — shard architectures (``"<arch>@d<k>"`` names),
  placement, memory contents, noise parameters.
* :class:`WorkloadSpec` — poisson / flash-crowd / closed-loop traffic,
  with rates, tenants, deadlines, fidelity SLOs and tenant skew.
* :class:`PolicySpec` — admission order, queue bounds, shedding.
* :class:`RunSpec` — retention, telemetry, distillation budget, workers,
  sanitizer, profiling, clock.

composing into a :class:`ScenarioSpec` whose :meth:`ScenarioSpec.build`
yields exactly the ``QRAMService`` / ``ServiceEngine`` / workload-source
objects the hand-written paths produce (pinned bit-identical per example
in ``tests/test_scenarios.py``), and whose ``to_dict``/``from_dict``
round-trip makes any scenario a line of JSON — the randomization /
shrinking / replay surface of :mod:`repro.scenarios.fuzz`.

Validation is eager and field-precise: every bad value raises
:class:`SpecError` naming ``Class.field``, and ``from_dict`` rejects
unknown keys (the forward-compatibility guard).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.engine.core import (
    RETENTIONS,
    ServiceEngine,
    ServiceReport,
)
from repro.engine.partition import PartitionedTraceSource
from repro.engine.workload import (
    StreamingTraceSource,
    TraceSource,
    WorkloadSource,
)
from repro.core.query import QueryRequest
from repro.hardware.parameters import HardwareParameters
from repro.scheduling.policy import policy_names
from repro.service.service import PLACEMENTS, QRAMService

__all__ = [
    "DATA_PATTERNS",
    "DELIVERIES",
    "VIRTUAL_AXES",
    "WORKLOAD_KINDS",
    "BuiltScenario",
    "FleetSpec",
    "PolicySpec",
    "RunSpec",
    "ScenarioSpec",
    "SpecError",
    "WorkloadSpec",
    "axis_paths",
]


class SpecError(ValueError):
    """A scenario spec failed validation (message names ``Class.field``)."""


#: Memory-content patterns a :class:`FleetSpec` can name.
DATA_PATTERNS = (
    "zeros", "random", "parity", "alternating", "threshold", "single",
)

#: Workload kinds a :class:`WorkloadSpec` can name.
WORKLOAD_KINDS = ("poisson", "flash-crowd", "closed-loop")

#: How an open-loop trace reaches the engine.
DELIVERIES = ("trace", "streaming", "partitioned")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _check_keys(
    payload: dict[str, Any], allowed: frozenset[str], section: str
) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SpecError(
            f"unknown {section} key(s) {unknown}; expected a subset of "
            f"{sorted(allowed)}"
        )


def _field_names(cls: type) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(cls))


def _canonical_fingerprint(payload: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a spec section.

    ``sort_keys`` plus JSON's exact ``repr``-based float serialization
    make the digest a pure function of the spec's values, so equal specs
    fingerprint equally across processes and sessions.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _as_optional_float_tuple(
    value: Any, name: str
) -> tuple[float, ...] | None:
    if value is None:
        return None
    try:
        return tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a sequence of numbers") from None


# --------------------------------------------------------------------- fleet
@dataclass(frozen=True)
class FleetSpec:
    """The serving fleet: what :class:`repro.service.QRAMService` builds.

    Attributes:
        capacity: global address-space size ``N`` (power of two).
        shards: one architecture name per shard, ``@d<k>`` QEC suffixes
            accepted (``("Fat-Tree", "Fat-Tree@d3")``).
        placement: ``"interleaved"`` or ``"shortest-queue"``.
        window_size: max queries per pipeline window (``None`` = the
            backend's query parallelism).
        functional: functional (state-evolving) vs timing-only windows.
        data: memory contents — ``"zeros"``, ``"random"`` (seeded by
            ``data_seed``, each bit 1 with probability 1/2) or a
            :func:`repro.workloads.structured_data` pattern name.
        data_seed: RNG seed of ``data="random"``.
        parameters: optional hardware noise model shared by every shard.
    """

    capacity: int
    shards: tuple[str, ...] = ("Fat-Tree", "Fat-Tree")
    placement: str = "interleaved"
    window_size: int | None = None
    functional: bool = True
    data: str = "zeros"
    data_seed: int = 0
    parameters: HardwareParameters | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        _require(
            isinstance(self.capacity, int) and self.capacity >= 2
            and (self.capacity & (self.capacity - 1)) == 0,
            f"FleetSpec.capacity must be a power of two >= 2 "
            f"(got {self.capacity!r})",
        )
        _require(
            len(self.shards) >= 1,
            "FleetSpec.shards must name at least one architecture",
        )
        from repro.backends.encoded import parse_encoded_name
        from repro.baselines.registry import backend_names, resolve_architecture

        for name in self.shards:
            _require(
                isinstance(name, str) and bool(name),
                f"FleetSpec.shards entries must be architecture names "
                f"(got {name!r})",
            )
            try:
                base, _ = parse_encoded_name(name)
                spec = resolve_architecture(base)
            except (ValueError, KeyError) as exc:
                raise SpecError(
                    f"FleetSpec.shards entry {name!r} is not a known "
                    f"backend: {exc}"
                ) from None
            _require(
                spec.backend is not None,
                f"FleetSpec.shards entry {name!r} cannot serve traffic; "
                f"expected one of {backend_names()}",
            )
        _require(
            self.placement in PLACEMENTS,
            f"FleetSpec.placement must be one of {PLACEMENTS} "
            f"(got {self.placement!r})",
        )
        _require(
            self.window_size is None
            or (isinstance(self.window_size, int) and self.window_size >= 1),
            f"FleetSpec.window_size must be None or >= 1 "
            f"(got {self.window_size!r})",
        )
        _require(
            self.data in DATA_PATTERNS,
            f"FleetSpec.data must be one of {DATA_PATTERNS} "
            f"(got {self.data!r})",
        )
        if self.placement == "interleaved":
            _require(
                self.capacity % len(self.shards) == 0,
                f"FleetSpec.shards: interleaved placement needs the shard "
                f"count ({len(self.shards)}) to divide the capacity "
                f"({self.capacity})",
            )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def fingerprint(self) -> str:
        """Content digest of this fleet configuration.

        Equal fleets — same shards, placement, memory contents, noise
        parameters — share a fingerprint, which is exactly the condition
        under which they share warm
        :class:`~repro.schedule_cache.ScheduleCacheRegistry` entries.
        The sweep engine routes every scenario with the same fleet
        fingerprint to the same pool worker (cache affinity).
        """
        return _canonical_fingerprint(self.to_dict())

    def with_qec_distance(self, distance: int) -> "FleetSpec":
        """This fleet with every shard re-encoded at code ``distance``.

        Rewrites each shard name's ``@d<k>`` suffix (``distance=1`` means
        the bare, unencoded architecture) — the sweep axis
        ``fleet.qec_distance``.
        """
        from repro.backends.encoded import parse_encoded_name

        _require(
            isinstance(distance, int) and distance >= 1,
            f"FleetSpec.with_qec_distance needs an int distance >= 1 "
            f"(got {distance!r})",
        )
        shards = []
        for name in self.shards:
            base, _ = parse_encoded_name(name)
            shards.append(base if distance == 1 else f"{base}@d{distance}")
        return dataclasses.replace(self, shards=tuple(shards))

    def with_shard_count(self, count: int) -> "FleetSpec":
        """This fleet widened/narrowed to ``count`` shards.

        Cycles the existing shard pattern out to ``count`` entries (a
        homogeneous fleet stays homogeneous; a mixed pattern repeats) —
        the sweep axis ``fleet.shard_count``.
        """
        _require(
            isinstance(count, int) and count >= 1,
            f"FleetSpec.with_shard_count needs an int count >= 1 "
            f"(got {count!r})",
        )
        shards = tuple(self.shards[i % len(self.shards)] for i in range(count))
        return dataclasses.replace(self, shards=shards)

    def memory(self) -> list[int] | None:
        """The fleet's classical memory contents (``None`` = zeros)."""
        from repro.workloads.generators import random_data, structured_data

        if self.data == "zeros":
            return None
        if self.data == "random":
            return random_data(self.capacity, self.data_seed)
        return structured_data(self.capacity, self.data)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "capacity": self.capacity,
            "shards": list(self.shards),
            "placement": self.placement,
            "window_size": self.window_size,
            "functional": self.functional,
            "data": self.data,
            "data_seed": self.data_seed,
            "parameters": (
                None
                if self.parameters is None
                else dataclasses.asdict(self.parameters)
            ),
        }
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FleetSpec":
        _check_keys(dict(payload), _field_names(cls), "FleetSpec")
        data = dict(payload)
        if "shards" in data and data["shards"] is not None:
            data["shards"] = tuple(data["shards"])
        if data.get("parameters") is not None:
            params = data["parameters"]
            if isinstance(params, dict):
                _check_keys(
                    params,
                    _field_names(HardwareParameters),
                    "FleetSpec.parameters",
                )
                try:
                    data["parameters"] = HardwareParameters(**params)
                except ValueError as exc:
                    raise SpecError(f"FleetSpec.parameters: {exc}") from None
        return cls(**data)


# ------------------------------------------------------------------ workload
#: Fields meaningful for each workload kind, beyond the shared ones.
_KIND_FIELDS: dict[str, frozenset[str]] = {
    "poisson": frozenset({
        "num_queries", "mean_interarrival", "addresses_per_query",
        "num_tenants", "tenant_weights",
    }),
    "flash-crowd": frozenset({
        "num_queries", "mean_interarrival", "crowd_time", "crowd_size",
        "crowd_spacing", "addresses_per_query", "num_tenants",
        "tenant_weights",
    }),
    "closed-loop": frozenset({
        "num_clients", "queries_per_client", "think_layers",
        "addresses_per_query",
    }),
}

#: Fields meaningful for every kind.
_SHARED_FIELDS = frozenset({
    "kind", "seed", "deadline_layers", "min_fidelity", "delivery",
})


@dataclass(frozen=True)
class WorkloadSpec:
    """The traffic: which generator, at what rate, with which SLOs.

    One flat dataclass covers every kind; fields that do not apply to the
    chosen ``kind`` must stay at their defaults (field-precise
    :class:`SpecError` otherwise), so a serialized spec cannot smuggle
    silently-ignored knobs.

    Kinds (see :mod:`repro.workloads`): ``"poisson"`` (the memoryless
    arrivals of Sec. 5.2), ``"flash-crowd"`` (Poisson baseline + spike)
    and ``"closed-loop"`` (the think-time clients of Fig. 7).

    ``delivery`` picks the source type for open-loop kinds: ``"trace"``
    (materialized :class:`~repro.engine.TraceSource`), ``"streaming"``
    (O(1)-memory :class:`~repro.engine.StreamingTraceSource`) or
    ``"partitioned"`` (a restartable
    :class:`~repro.engine.partition.PartitionedTraceSource`, the form
    parallel workers can regenerate per shard).
    """

    kind: str
    # poisson / flash-crowd
    num_queries: int = 0
    mean_interarrival: float = 0.0
    # flash-crowd
    crowd_time: float = 0.0
    crowd_size: int = 0
    crowd_spacing: float = 0.0
    # closed-loop
    num_clients: int = 0
    queries_per_client: int = 0
    think_layers: float = 0.0
    # shared knobs
    addresses_per_query: int = 2
    num_tenants: int = 1
    seed: int = 0
    deadline_layers: float | None = None
    min_fidelity: float | None = None
    tenant_weights: tuple[float, ...] | None = None
    delivery: str = "trace"

    def __post_init__(self) -> None:
        _require(
            self.kind in WORKLOAD_KINDS,
            f"WorkloadSpec.kind must be one of {WORKLOAD_KINDS} "
            f"(got {self.kind!r})",
        )
        object.__setattr__(
            self,
            "tenant_weights",
            _as_optional_float_tuple(
                self.tenant_weights, "WorkloadSpec.tenant_weights"
            ),
        )
        # Reject values smuggled into fields the kind ignores.
        applicable = _SHARED_FIELDS | _KIND_FIELDS[self.kind]
        for spec_field in dataclasses.fields(self):
            if spec_field.name in applicable:
                continue
            if getattr(self, spec_field.name) != spec_field.default:
                raise SpecError(
                    f"WorkloadSpec.{spec_field.name} does not apply to "
                    f"kind {self.kind!r}"
                )
        _require(
            self.delivery in DELIVERIES,
            f"WorkloadSpec.delivery must be one of {DELIVERIES} "
            f"(got {self.delivery!r})",
        )
        if self.kind == "closed-loop":
            _require(
                self.delivery == "trace",
                f"WorkloadSpec.delivery {self.delivery!r} is not available "
                f"for kind {self.kind!r}",
            )
        _require(
            self.addresses_per_query >= 1,
            f"WorkloadSpec.addresses_per_query must be >= 1 "
            f"(got {self.addresses_per_query!r})",
        )
        _require(
            self.num_tenants >= 1,
            f"WorkloadSpec.num_tenants must be >= 1 "
            f"(got {self.num_tenants!r})",
        )
        _require(
            self.deadline_layers is None or self.deadline_layers > 0,
            f"WorkloadSpec.deadline_layers must be None or > 0 "
            f"(got {self.deadline_layers!r})",
        )
        _require(
            self.min_fidelity is None or 0.0 < self.min_fidelity <= 1.0,
            f"WorkloadSpec.min_fidelity must be None or in (0, 1] "
            f"(got {self.min_fidelity!r})",
        )
        if self.tenant_weights is not None:
            _require(
                len(self.tenant_weights) == self.num_tenants,
                f"WorkloadSpec.tenant_weights must have num_tenants="
                f"{self.num_tenants} entries (got {len(self.tenant_weights)})",
            )
        positives: dict[str, bool] = {}
        if self.kind in ("poisson", "flash-crowd"):
            positives["num_queries"] = self.num_queries >= 1
            positives["mean_interarrival"] = self.mean_interarrival > 0
        if self.kind == "flash-crowd":
            positives["crowd_size"] = self.crowd_size >= 1
            _require(
                self.crowd_time >= 0 and self.crowd_spacing >= 0,
                "WorkloadSpec.crowd_time and WorkloadSpec.crowd_spacing "
                "must be >= 0",
            )
        if self.kind == "closed-loop":
            positives["num_clients"] = self.num_clients >= 1
            positives["queries_per_client"] = self.queries_per_client >= 1
            _require(
                self.think_layers >= 0,
                f"WorkloadSpec.think_layers must be >= 0 "
                f"(got {self.think_layers!r})",
            )
        for name, ok in positives.items():
            _require(
                ok,
                f"WorkloadSpec.{name}={getattr(self, name)!r} is not a "
                f"valid value for kind {self.kind!r}",
            )

    # ------------------------------------------------------------- building
    def _trace_num_shards(self, fleet: FleetSpec) -> int:
        """Shard count the trace generators align superpositions to.

        Interleaved fleets pin each query to the shard owning its
        addresses; replicated (shortest-queue) fleets serve the global
        address space from every shard, so traces are built single-shard —
        the rule every hand-written example follows.
        """
        return fleet.num_shards if fleet.placement == "interleaved" else 1

    def _iterator(
        self, fleet: FleetSpec, shards: tuple[int, ...] | None
    ) -> Iterator[QueryRequest]:
        """The lazy request stream of an open-loop generator kind."""
        from repro.workloads import generators as gen

        num_shards = self._trace_num_shards(fleet)
        if self.kind == "poisson":
            return gen.iter_poisson_trace(
                fleet.capacity, self.num_queries, self.mean_interarrival,
                self.addresses_per_query, self.num_tenants, num_shards,
                self.seed, self.deadline_layers, self.min_fidelity, shards,
                self.tenant_weights,
            )
        if self.kind == "flash-crowd":
            return gen.iter_flash_crowd_trace(
                fleet.capacity, self.num_queries, self.mean_interarrival,
                self.crowd_time, self.crowd_size, self.crowd_spacing,
                self.addresses_per_query, self.num_tenants, num_shards,
                self.seed, self.deadline_layers, self.min_fidelity, shards,
                self.tenant_weights,
            )
        raise SpecError(f"kind {self.kind!r} has no open-loop iterator")

    def build(self, fleet: FleetSpec) -> WorkloadSource:
        """The engine-ready workload source for the given fleet."""
        from repro.workloads.generators import closed_loop_source

        if self.kind == "closed-loop":
            return closed_loop_source(
                fleet.capacity, self.num_clients, self.queries_per_client,
                self.think_layers, self.addresses_per_query,
                self._trace_num_shards(fleet), self.seed,
                self.deadline_layers, self.min_fidelity,
            )
        if self.delivery == "trace":
            return TraceSource(list(self._iterator(fleet, None)))
        if self.delivery == "streaming":
            return StreamingTraceSource(self._iterator(fleet, None))
        return PartitionedTraceSource(
            lambda shards: self._iterator(
                fleet, None if shards is None else tuple(shards)
            )
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkloadSpec":
        _check_keys(dict(payload), _field_names(cls), "WorkloadSpec")
        return cls(**payload)


# -------------------------------------------------------------------- policy
@dataclass(frozen=True)
class PolicySpec:
    """Admission order and backpressure.

    Attributes:
        admission: policy name from
            :func:`repro.scheduling.policy.policy_names`.
        admission_seed: RNG seed of the ``"random"`` policy.
        max_queue_depth: bounded per-shard queues (``None`` = unbounded).
        shed_expired: shed queued requests whose deadline passed.
    """

    admission: str = "fifo"
    admission_seed: int = 0
    max_queue_depth: int | None = None
    shed_expired: bool = False

    def __post_init__(self) -> None:
        _require(
            self.admission in policy_names(),
            f"PolicySpec.admission must be one of {policy_names()} "
            f"(got {self.admission!r})",
        )
        _require(
            self.max_queue_depth is None
            or (isinstance(self.max_queue_depth, int)
                and self.max_queue_depth >= 1),
            f"PolicySpec.max_queue_depth must be None or >= 1 "
            f"(got {self.max_queue_depth!r})",
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PolicySpec":
        _check_keys(dict(payload), _field_names(cls), "PolicySpec")
        return cls(**payload)


# ----------------------------------------------------------------------- run
@dataclass(frozen=True)
class RunSpec:
    """Engine run knobs: observation, parallelism, checking, clock.

    Attributes mirror the :class:`repro.engine.ServiceEngine` keyword
    arguments and ``run``'s clock: retention mode (``"full"`` or
    ``"none"``), telemetry cadence, virtual-distillation budget, worker count
    (``None`` defers to ``REPRO_WORKERS``), sanitizer (``None`` defers to
    ``REPRO_SANITIZE``), profiling (``None`` defers to ``REPRO_PROFILE``)
    and the CLOPS clock behind queries-per-second numbers.
    """

    retention: str = "full"
    telemetry_interval: float | None = None
    max_distillation_copies: int = 1
    workers: int | None = None
    sanitize: bool | None = None
    profile: bool | None = None
    clops: float = 1.0e6

    def __post_init__(self) -> None:
        _require(
            self.retention in RETENTIONS,
            f"RunSpec.retention must be one of {RETENTIONS} "
            f"(got {self.retention!r})",
        )
        _require(
            self.telemetry_interval is None or self.telemetry_interval > 0,
            f"RunSpec.telemetry_interval must be None or > 0 "
            f"(got {self.telemetry_interval!r})",
        )
        _require(
            self.max_distillation_copies >= 1,
            f"RunSpec.max_distillation_copies must be >= 1 "
            f"(got {self.max_distillation_copies!r})",
        )
        _require(
            self.workers is None
            or (isinstance(self.workers, int) and self.workers >= 0),
            f"RunSpec.workers must be None or >= 0 (got {self.workers!r})",
        )
        _require(
            self.clops > 0,
            f"RunSpec.clops must be positive (got {self.clops!r})",
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSpec":
        _check_keys(dict(payload), _field_names(cls), "RunSpec")
        return cls(**payload)


# ------------------------------------------------------------------ scenario
@dataclass(frozen=True)
class BuiltScenario:
    """The concrete objects one :class:`ScenarioSpec` assembles."""

    service: QRAMService
    engine: ServiceEngine
    source: WorkloadSource
    clops: float

    def run(self) -> ServiceReport:
        """Serve the workload through the engine (one full run)."""
        return self.engine.run(self.source, clops=self.clops)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete serving scenario: fleet x workload x policy x run.

    ``build()`` assembles exactly the objects the hand-written paths
    construct — ``QRAMService(...)``, ``ServiceEngine(...)`` and the
    workload source — so a spec-driven run is bit-identical to its
    hand-wired equivalent (pinned per example in
    ``tests/test_scenarios.py``).  ``to_dict``/``from_dict`` (and the
    ``to_json``/``from_json`` convenience pair) round-trip every field,
    rejecting unknown keys.
    """

    fleet: FleetSpec
    workload: WorkloadSpec
    policy: PolicySpec = field(default_factory=PolicySpec)
    run: RunSpec = field(default_factory=RunSpec)
    name: str = ""

    # ---------------------------------------------------- fingerprints/axes
    def fingerprint(self) -> str:
        """Content digest of everything that determines this spec's report.

        ``name`` is excluded — it labels the spec but never reaches the
        engine, so two points differing only by name are the *same*
        execution.  The sweep engine deduplicates on this digest: equal
        specs run once and share the resulting report.
        """
        payload = self.to_dict()
        del payload["name"]
        return _canonical_fingerprint(payload)

    def with_value(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one dotted ``"section.field"`` replaced.

        ``path`` names a section (``fleet`` / ``workload`` / ``policy`` /
        ``run``) and a field of that section; the replacement goes through
        :func:`dataclasses.replace`, so section validation and the
        cross-section checks re-run on the copy.  Two virtual fleet axes
        map onto rewrite helpers rather than raw fields:

        * ``"fleet.qec_distance"`` → :meth:`FleetSpec.with_qec_distance`
        * ``"fleet.shard_count"`` → :meth:`FleetSpec.with_shard_count`

        A dict value for the nested ``fleet.parameters`` dataclass is
        converted, so JSON-loaded sweep axes can carry it; list values
        become tuples.
        """
        section_name, _, field_name = path.partition(".")
        sections = ("fleet", "workload", "policy", "run")
        _require(
            section_name in sections and bool(field_name)
            and "." not in field_name,
            f"ScenarioSpec.with_value path must be 'section.field' with "
            f"section in {sections} (got {path!r})",
        )
        if path == "fleet.qec_distance":
            return dataclasses.replace(
                self, fleet=self.fleet.with_qec_distance(value)
            )
        if path == "fleet.shard_count":
            return dataclasses.replace(
                self, fleet=self.fleet.with_shard_count(value)
            )
        section = getattr(self, section_name)
        _require(
            field_name in _field_names(type(section)),
            f"{type(section).__name__} has no field {field_name!r}",
        )
        if path == "fleet.parameters" and isinstance(value, dict):
            _check_keys(value, _field_names(HardwareParameters), path)
            try:
                value = HardwareParameters(**value)
            except ValueError as exc:
                raise SpecError(f"{path}: {exc}") from None
        if isinstance(value, list):
            value = tuple(value)
        replaced = dataclasses.replace(section, **{field_name: value})
        return dataclasses.replace(self, **{section_name: replaced})

    # ------------------------------------------------------------- building
    def build(self, sink: Any = None) -> BuiltScenario:
        """Assemble the service, engine and workload source.

        ``sink`` is a runtime-only tee (an open
        :class:`~repro.metrics.sinks.JsonlSink` has no serialized form),
        passed straight to the engine.
        """
        service = QRAMService(
            self.fleet.capacity,
            num_shards=self.fleet.num_shards,
            data=self.fleet.memory(),
            policy=self.policy.admission,
            window_size=self.fleet.window_size,
            functional=self.fleet.functional,
            seed=self.policy.admission_seed,
            architectures=self.fleet.shards,
            placement=self.fleet.placement,
            parameters=self.fleet.parameters,
        )
        engine = ServiceEngine(
            service,
            max_queue_depth=self.policy.max_queue_depth,
            shed_expired=self.policy.shed_expired,
            max_distillation_copies=self.run.max_distillation_copies,
            retention=self.run.retention,
            telemetry_interval=self.run.telemetry_interval,
            sink=sink,
            sanitize=self.run.sanitize,
            workers=self.run.workers,
            profile=self.run.profile,
        )
        return BuiltScenario(
            service=service,
            engine=engine,
            source=self.workload.build(self.fleet),
            clops=self.run.clops,
        )

    def execute(self, sink: Any = None) -> ServiceReport:
        """Build and run in one step."""
        return self.build(sink=sink).run()

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "fleet": self.fleet.to_dict(),
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "run": self.run.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioSpec":
        _check_keys(
            dict(payload),
            frozenset({"name", "fleet", "workload", "policy", "run"}),
            "ScenarioSpec",
        )
        _require(
            "fleet" in payload and "workload" in payload,
            "ScenarioSpec requires 'fleet' and 'workload' sections",
        )
        return cls(
            fleet=FleetSpec.from_dict(payload["fleet"]),
            workload=WorkloadSpec.from_dict(payload["workload"]),
            policy=(
                PolicySpec.from_dict(payload["policy"])
                if "policy" in payload
                else PolicySpec()
            ),
            run=(
                RunSpec.from_dict(payload["run"])
                if "run" in payload
                else RunSpec()
            ),
            name=str(payload.get("name", "")),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


#: Dotted sweep-axis paths that map onto fleet rewrite helpers instead of
#: raw :class:`FleetSpec` fields (see :meth:`ScenarioSpec.with_value`).
VIRTUAL_AXES = frozenset({"fleet.qec_distance", "fleet.shard_count"})


def axis_paths() -> frozenset[str]:
    """Every dotted ``"section.field"`` path ``with_value`` accepts.

    The sweep layer (:mod:`repro.sweep`) validates axis paths against
    this set eagerly, so a misspelled axis fails at spec construction
    rather than mid-campaign.
    """
    sections: dict[str, type] = {
        "fleet": FleetSpec,
        "workload": WorkloadSpec,
        "policy": PolicySpec,
        "run": RunSpec,
    }
    paths = set(VIRTUAL_AXES)
    for section, cls in sections.items():
        paths.update(
            f"{section}.{spec_field.name}"
            for spec_field in dataclasses.fields(cls)
        )
    return frozenset(paths)

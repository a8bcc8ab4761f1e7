"""Discrete-event serving engine: the one place virtual time advances.

* :mod:`repro.engine.events` — typed events (:class:`ClientThink`,
  :class:`WindowStart`, :class:`WindowDrain`, :class:`ScaleCheck`,
  :class:`TelemetryTick`) and the virtual-time :class:`EventHeap`.
* :mod:`repro.engine.workload` — the :class:`WorkloadSource` interface
  unifying open-loop traces (:class:`StreamingTraceSource`, and the
  materialized :class:`TraceSource` it streams) and closed-loop
  think-time clients (:class:`ClosedLoopSource`); every arrival enters
  the engine as a :class:`ClientThink`.
* :mod:`repro.engine.core` — :class:`ServiceEngine` (SLO-aware admission,
  backpressure, elastic fleets, record retention modes and periodic
  telemetry) and the :class:`ServiceReport` it returns.
* :mod:`repro.engine.partition` / :mod:`repro.engine.parallel` —
  partitioned parallel serving: ``ServiceEngine(workers=N)`` shards the
  fleet across forked worker processes and merges the events back
  deterministically (bit-identical reports across worker counts);
  :class:`PartitionedTraceSource` lets each worker regenerate just its
  partition of a lazy trace.

``ServiceEngine(service, **knobs).run(source)`` is the one way to serve a
:class:`repro.service.QRAMService` fleet; :mod:`repro.scenarios` and
:mod:`repro.sweep` build the same call from declarative specs.
"""

from repro.engine.core import (
    RETENTIONS,
    SANITIZE_ENV,
    WORKERS_ENV,
    AutoscalerConfig,
    ServiceEngine,
    ServiceReport,
)
from repro.engine.events import (
    ClientThink,
    Event,
    EventHeap,
    SanitizerViolation,
    ScaleCheck,
    TelemetryTick,
    WindowDrain,
    WindowStart,
    check_nondecreasing,
)
from repro.engine.partition import (
    ParallelRunInfo,
    PartitionedTraceSource,
    partition_shards,
    partition_unsupported_reason,
)
from repro.engine.workload import (
    ClosedLoopClient,
    ClosedLoopSource,
    StreamingTraceSource,
    TraceSource,
    WorkloadSource,
)

__all__ = [
    "ServiceEngine",
    "ServiceReport",
    "AutoscalerConfig",
    "RETENTIONS",
    "WorkloadSource",
    "TraceSource",
    "StreamingTraceSource",
    "ClosedLoopClient",
    "ClosedLoopSource",
    "EventHeap",
    "Event",
    "ClientThink",
    "WindowStart",
    "WindowDrain",
    "ScaleCheck",
    "TelemetryTick",
    "SanitizerViolation",
    "SANITIZE_ENV",
    "WORKERS_ENV",
    "ParallelRunInfo",
    "PartitionedTraceSource",
    "partition_shards",
    "partition_unsupported_reason",
    "check_nondecreasing",
]

"""Quantitative performance metrics for shared QRAMs (Sec. 6.2, Tables 1-2).

* :mod:`repro.metrics.resources` — qubit counts and router counts (Table 1).
* :mod:`repro.metrics.latency` — closed-form query latencies (Table 1).
* :mod:`repro.metrics.bandwidth` — QRAM bandwidth (Table 2, Fig. 8).
* :mod:`repro.metrics.spacetime` — space-time volume per query and the
  classical-memory-swap time budget (Table 2).
* :mod:`repro.metrics.service_stats` — per-tenant / per-shard serving
  statistics for the traffic-facing service layer (:mod:`repro.service`).
* :mod:`repro.metrics.streaming` — online (bounded-memory) aggregates and
  the mergeable log-bucket latency sketch behind every retention mode's
  statistics, plus the engine's periodic telemetry ticks.
* :mod:`repro.metrics.sinks` — pluggable record destinations (keep / drop /
  JSON-lines tee) for the serving engine's observation path.
"""

from repro.metrics.resources import ResourceEstimate, resource_estimate, table1_rows
from repro.metrics.latency import latency_summary, LatencySummary
from repro.metrics.bandwidth import bandwidth_qubits_per_second, bandwidth_scaling
from repro.metrics.spacetime import (
    classical_memory_swap_budget_us,
    spacetime_volume_per_query,
    table2_rows,
)
from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    REJECT_QUEUE_FULL,
    RejectedQuery,
    ServedQuery,
    ServiceStats,
    ShardStats,
    TenantStats,
    WindowRecord,
    summarize_service,
)
from repro.metrics.sinks import (
    JsonlSink,
    ListSink,
    NullSink,
    RecordSink,
    load_jsonl,
)
from repro.metrics.streaming import (
    IntervalStats,
    LogBucketSketch,
    StreamingServiceAggregator,
    StreamingStat,
)

__all__ = [
    "ResourceEstimate",
    "resource_estimate",
    "table1_rows",
    "LatencySummary",
    "latency_summary",
    "bandwidth_qubits_per_second",
    "bandwidth_scaling",
    "spacetime_volume_per_query",
    "classical_memory_swap_budget_us",
    "table2_rows",
    "REJECT_DEADLINE_EXPIRED",
    "REJECT_FIDELITY",
    "REJECT_QUEUE_FULL",
    "RejectedQuery",
    "ServedQuery",
    "ServiceStats",
    "ShardStats",
    "TenantStats",
    "WindowRecord",
    "summarize_service",
    "RecordSink",
    "ListSink",
    "JsonlSink",
    "NullSink",
    "load_jsonl",
    "StreamingStat",
    "LogBucketSketch",
    "IntervalStats",
    "StreamingServiceAggregator",
]

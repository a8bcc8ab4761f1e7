"""Query scheduling for a shared QRAM (Sec. 5).

* :mod:`repro.scheduling.events` — query arrival streams (online/random
  arrivals, bursts) as :class:`~repro.core.query.QueryRequest` lists.
* :mod:`repro.scheduling.policy` — the pluggable admission-policy objects
  (FIFO / LIFO / random / priority) used by the scheduler and the serving
  layer.
* :mod:`repro.scheduling.fifo` — FIFO scheduling (a schedule is the
  engine's :class:`~repro.metrics.service_stats.ServedQuery` records), plus
  the empirical check of the greedy-exchange optimality proof (Sec. A.2).
* :mod:`repro.scheduling.contention` — the paper's shared-QRAM timing model
  (one admission per pipeline interval, bounded in-flight queries) as a
  :class:`repro.engine.ServiceEngine` backend; QPUs/algorithms sharing one
  QRAM (Figs. 7, 9 and 10) are one closed-loop engine run on it.
* :mod:`repro.scheduling.utilization` — utilization accounting.
"""

from repro.scheduling.events import burst_arrivals, random_arrivals
from repro.scheduling.fifo import (
    schedule_queries,
    total_latency,
    verify_fifo_optimality,
)
from repro.scheduling.policy import (
    AdmissionPolicy,
    EDFPolicy,
    FIFOPolicy,
    LIFOPolicy,
    PriorityPolicy,
    RandomPolicy,
    as_policy,
    policy_names,
)
from repro.scheduling.contention import (
    ClosedLoopSummary,
    QRAMServiceModel,
    serve_closed_loop,
    serve_model,
)
from repro.scheduling.utilization import utilization_from_busy_intervals

__all__ = [
    "random_arrivals",
    "burst_arrivals",
    "AdmissionPolicy",
    "FIFOPolicy",
    "LIFOPolicy",
    "RandomPolicy",
    "PriorityPolicy",
    "EDFPolicy",
    "as_policy",
    "policy_names",
    "schedule_queries",
    "total_latency",
    "verify_fifo_optimality",
    "ClosedLoopSummary",
    "QRAMServiceModel",
    "serve_closed_loop",
    "serve_model",
    "utilization_from_busy_intervals",
]

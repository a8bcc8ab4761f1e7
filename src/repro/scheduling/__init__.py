"""Query scheduling for a shared QRAM (Sec. 5).

* :mod:`repro.scheduling.events` — query arrival streams (periodic workloads
  with processing gaps, online/random arrivals, bursts).
* :mod:`repro.scheduling.policy` — the pluggable admission-policy objects
  (FIFO / LIFO / random / priority) used by the scheduler and the serving
  layer.
* :mod:`repro.scheduling.fifo` — FIFO scheduling, plus the empirical check
  of the greedy-exchange optimality proof (Sec. A.2).
* :mod:`repro.scheduling.contention` — discrete-event simulation of multiple
  QPUs/algorithms sharing one QRAM (the engine behind Fig. 7 and Fig. 10).
* :mod:`repro.scheduling.utilization` — utilization accounting.
"""

from repro.scheduling.events import (
    QueryArrival,
    burst_arrivals,
    periodic_algorithm_arrivals,
    random_arrivals,
)
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
    AlgorithmWorkload,
    QRAMServiceModel,
    SharedQRAMSimulation,
    SimulationReport,
)
from repro.scheduling.utilization import utilization_from_busy_intervals

__all__ = [
    "QueryArrival",
    "periodic_algorithm_arrivals",
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
    "AlgorithmWorkload",
    "QRAMServiceModel",
    "SharedQRAMSimulation",
    "SimulationReport",
    "utilization_from_busy_intervals",
]

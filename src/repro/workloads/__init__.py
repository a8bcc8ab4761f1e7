"""Workload and trace generators used by examples, tests and benchmarks.

* :mod:`repro.workloads.arrivals` — the shared arrival-time cores
  (exponential, burst, flash crowd) behind both the scheduling streams in
  :mod:`repro.scheduling.events` and the serving traces here.
* :mod:`repro.workloads.generators` — memory contents, address
  superpositions, open-loop query traces and the closed-loop client fleet
  builder for the discrete-event engine.
"""

from repro.workloads.arrivals import (
    iter_burst_times,
    iter_exponential_times,
    iter_flash_crowd_times,
)
from repro.workloads.generators import (
    closed_loop_source,
    iter_flash_crowd_trace,
    iter_poisson_trace,
    query_trace,
    random_address_superposition,
    random_data,
    shard_aligned_superposition,
    structured_data,
    uniform_superposition,
)

__all__ = [
    "random_data",
    "structured_data",
    "uniform_superposition",
    "random_address_superposition",
    "shard_aligned_superposition",
    "query_trace",
    "iter_poisson_trace",
    "iter_flash_crowd_trace",
    "closed_loop_source",
    "iter_exponential_times",
    "iter_burst_times",
    "iter_flash_crowd_times",
]

"""Query arrival streams for shared-QRAM scheduling experiments.

Online (exponential) and bursty arrival lists for :func:`schedule_queries`
(Sec. 5.2), built as the engine's own
:class:`~repro.core.query.QueryRequest` records: request ``i`` has id
``i``, reads address 0 (the timing model is address-blind) and arrives at
``request_time`` in weighted circuit layers.
The query/process loop of Fig. 7 is closed-loop and runs on
:class:`repro.engine.ClosedLoopSource`
(:func:`repro.scheduling.contention.serve_closed_loop`).

Arrival *times* are drawn by the shared cores in
:mod:`repro.workloads.arrivals` — the same RNG code path that produces the
serving layer's traces — so scheduling streams and serving traces built
from the same parameters and seed agree exactly.
"""

from __future__ import annotations

from repro.core.query import QueryRequest
from repro.workloads.arrivals import iter_burst_times, iter_exponential_times


def random_arrivals(
    num_queries: int,
    mean_interarrival: float,
    seed: int = 0,
    num_qpus: int = 1,
) -> list[QueryRequest]:
    """Online workload: exponential interarrival times (Sec. 5.2)."""
    times = iter_exponential_times(num_queries, mean_interarrival, seed)
    return [
        QueryRequest(i, {0: 1.0}, t, i % num_qpus) for i, t in enumerate(times)
    ]


def burst_arrivals(
    num_bursts: int,
    burst_size: int,
    burst_spacing: float,
    num_qpus: int = 1,
) -> list[QueryRequest]:
    """Bursty workload: ``burst_size`` simultaneous requests every
    ``burst_spacing`` layers."""
    times = iter_burst_times(num_bursts, burst_size, burst_spacing)
    return [
        QueryRequest(i, {0: 1.0}, t, (i % burst_size) % num_qpus)
        for i, t in enumerate(times)
    ]

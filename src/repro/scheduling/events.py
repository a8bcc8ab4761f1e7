"""Query arrival streams for shared-QRAM scheduling experiments.

Online (exponential) and bursty arrival lists for :func:`schedule_queries`
(Sec. 5.2).  The query/process loop of Fig. 7 is closed-loop and runs on
:class:`repro.engine.ClosedLoopSource`
(:func:`repro.scheduling.contention.serve_closed_loop`).

Arrival *times* are drawn by the shared cores in
:mod:`repro.workloads.arrivals` — the same RNG code path that produces the
serving layer's traces — so scheduling streams and serving traces built
from the same parameters and seed agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.arrivals import iter_burst_times, iter_exponential_times


@dataclass(frozen=True, order=True)
class QueryArrival:
    """A query request arriving at the shared QRAM.

    Attributes:
        request_time: arrival time in weighted circuit layers.
        qpu: identifier of the requesting QPU / algorithm.
        query_id: unique identifier (assigned by the generator).
    """

    request_time: float
    qpu: int
    query_id: int


def random_arrivals(
    num_queries: int,
    mean_interarrival: float,
    seed: int = 0,
    num_qpus: int = 1,
) -> list[QueryArrival]:
    """Online workload: exponential interarrival times (Sec. 5.2)."""
    times = iter_exponential_times(num_queries, mean_interarrival, seed)
    return [
        QueryArrival(t, int(i % num_qpus), int(i)) for i, t in enumerate(times)
    ]


def burst_arrivals(
    num_bursts: int,
    burst_size: int,
    burst_spacing: float,
    num_qpus: int = 1,
) -> list[QueryArrival]:
    """Bursty workload: ``burst_size`` simultaneous requests every
    ``burst_spacing`` layers."""
    times = iter_burst_times(num_bursts, burst_size, burst_spacing)
    return [
        QueryArrival(t, (i % burst_size) % num_qpus, i)
        for i, t in enumerate(times)
    ]

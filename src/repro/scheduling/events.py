"""Query arrival streams for shared-QRAM scheduling experiments.

Arrival *times* are drawn by the shared cores in
:mod:`repro.workloads.arrivals` — the same RNG code path that produces the
serving layer's traces — so scheduling streams and serving traces built
from the same parameters and seed agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.arrivals import (
    iter_burst_times,
    iter_exponential_times,
    periodic_times,
)


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


def periodic_algorithm_arrivals(
    num_algorithms: int,
    queries_per_algorithm: int,
    processing_layers: float,
    weighted_query_latency: float,
    stagger: float = 0.0,
) -> list[QueryArrival]:
    """Arrivals of algorithms that alternate querying and processing (Fig. 7).

    Each algorithm issues a query, waits for it to complete (``weighted_query_latency``
    layers), processes for ``processing_layers`` layers, and repeats.  The
    *requests* generated here assume no queueing (they are the earliest times
    each query could be issued).  The discrete-event engine's
    :class:`repro.engine.ClosedLoopSource` models the same loop with real
    completion feedback instead of a nominal latency, which is how
    :func:`repro.scheduling.contention.serve_closed_loop` runs Figs. 7, 9
    and 10.

    Args:
        num_algorithms: number of concurrent algorithms (QPUs).
        queries_per_algorithm: queries each algorithm issues.
        processing_layers: QPU processing time between queries.
        weighted_query_latency: nominal query service time used for spacing requests.
        stagger: offset between the start times of successive algorithms.
    """
    pairs = periodic_times(
        num_algorithms,
        queries_per_algorithm,
        weighted_query_latency + processing_layers,
        stagger,
    )
    arrivals = [
        QueryArrival(request_time, qpu, query_id)
        for query_id, (request_time, qpu) in enumerate(pairs)
    ]
    arrivals.sort()
    return arrivals


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

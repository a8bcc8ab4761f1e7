"""FIFO query scheduling and its optimality (Sec. 5.2, App. A.2).

The paper proves with a greedy exchange argument that FIFO scheduling
minimises total query latency for both offline and online workloads on a
Fat-Tree QRAM (admissions are separated by a fixed pipeline interval and
every query has the same service time).  This module serves an arrival
trace through the discrete-event engine under FIFO or an alternative
admission policy, and verifies the exchange argument empirically against
an exhaustive fixed-order reference.  A schedule is the engine's own
record: one :class:`~repro.metrics.service_stats.ServedQuery` per request.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.core.query import QueryRequest
from repro.scheduling.contention import QRAMServiceModel, serve_model

if TYPE_CHECKING:
    from repro.metrics.service_stats import ServedQuery


def schedule_queries(
    arrivals: list[QueryRequest],
    service_time: float,
    admission_interval: float,
    parallelism: int,
    policy="fifo",
    seed: int = 0,
) -> list[ServedQuery]:
    """Admit queries into a pipelined shared QRAM.

    The QRAM admits at most one query per ``admission_interval`` and holds at
    most ``parallelism`` queries in flight; every query occupies the pipeline
    for ``service_time`` layers.  (For BB QRAM set ``parallelism = 1`` and
    ``admission_interval = service_time``.)  The trace is served by the
    discrete-event engine on a
    :class:`~repro.scheduling.contention.QRAMServiceModel`, which refuses
    ``parallelism * admission_interval < service_time``.

    Args:
        arrivals: query requests, ``request_time`` in weighted layers
            (:func:`repro.scheduling.events.random_arrivals` /
            :func:`~repro.scheduling.events.burst_arrivals`).
        service_time: per-query service latency in weighted layers.
        admission_interval: minimum spacing between admissions.
        parallelism: maximum queries in flight.
        policy: admission order among queued requests — an
            :class:`repro.scheduling.policy.AdmissionPolicy` or a policy
            name.
        seed: RNG seed for the RANDOM policy.

    Returns:
        The engine's record of each request, in admission order:
        ``start_layer`` is its admission, ``finish_layer`` its completion
        and ``latency_layers`` its request-to-completion latency.
    """
    model = QRAMServiceModel(
        "schedule", service_time, admission_interval, parallelism
    )
    if not arrivals:
        return []
    # Imported here: repro.engine imports repro.scheduling.
    from repro.engine import TraceSource

    # Every query takes the same service time, so completion order is
    # admission order.
    return serve_model(model, TraceSource(arrivals), policy, seed).served


def total_latency(schedule: list[ServedQuery]) -> float:
    """Sum of request-to-completion latencies (the objective of Sec. A.2)."""
    return sum(s.latency_layers for s in schedule)


def verify_fifo_optimality(
    arrivals: list[QueryRequest],
    service_time: float,
    admission_interval: float,
    parallelism: int,
) -> bool:
    """Empirically check that FIFO minimises total latency.

    Enumerates every admission order of at most 6 queries (720 orders) and
    verifies no order beats FIFO, mirroring the greedy exchange proof of
    Sec. A.2.
    """
    if len(arrivals) > 6:
        raise ValueError("exhaustive verification is limited to 6 queries")
    fifo = total_latency(
        schedule_queries(
            arrivals, service_time, admission_interval, parallelism, "fifo",
        )
    )
    ids = [a.query_id for a in sorted(arrivals, key=lambda a: a.request_time)]
    by_id = {a.query_id: a for a in arrivals}
    for permutation in itertools.permutations(ids):
        latency = _latency_of_fixed_order(
            [by_id[q] for q in permutation],
            service_time,
            admission_interval,
            parallelism,
        )
        if latency < fifo - 1e-9:
            return False
    return True


def _latency_of_fixed_order(
    order: list[QueryRequest],
    service_time: float,
    admission_interval: float,
    parallelism: int,
) -> float:
    """Total latency when queries are admitted in exactly the given order."""
    in_flight: list[float] = []
    next_slot = 0.0
    total = 0.0
    for arrival in order:
        start = max(arrival.request_time, next_slot)
        in_flight = [f for f in in_flight if f > start]
        while len(in_flight) >= parallelism:
            earliest = min(in_flight)
            start = max(start, earliest)
            in_flight = [f for f in in_flight if f > start]
        finish = start + service_time
        in_flight.append(finish)
        next_slot = start + admission_interval
        total += finish - arrival.request_time
    return total

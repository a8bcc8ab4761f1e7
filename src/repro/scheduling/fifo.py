"""FIFO query scheduling and its optimality (Sec. 5.2, App. A.2).

The paper proves with a greedy exchange argument that FIFO scheduling
minimises total query latency for both offline and online workloads on a
Fat-Tree QRAM (admissions are separated by a fixed pipeline interval and
every query has the same service time).  This module implements FIFO and a
few alternative policies and provides an empirical verification of the
exchange argument used by the test-suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.scheduling.events import QueryArrival


@dataclass(frozen=True)
class ScheduledQuery:
    """Admission decision for one query.

    Attributes:
        query_id: the request's identifier.
        request_time: when the request arrived.
        start_time: when the QRAM admitted it.
        finish_time: when its result was delivered.
    """

    query_id: int
    request_time: float
    start_time: float
    finish_time: float

    @property
    def latency(self) -> float:
        """Request-to-completion latency."""
        return self.finish_time - self.request_time


def schedule_queries(
    arrivals: list[QueryArrival],
    service_time: float,
    admission_interval: float,
    parallelism: int,
    policy="fifo",
    seed: int = 0,
) -> list[ScheduledQuery]:
    """Admit queries into a pipelined shared QRAM.

    The QRAM admits at most one query per ``admission_interval`` and holds at
    most ``parallelism`` queries in flight; every query occupies the pipeline
    for ``service_time`` layers.  (For BB QRAM set ``parallelism = 1`` and
    ``admission_interval = service_time``.)

    Args:
        arrivals: query requests.
        service_time: per-query service latency in weighted layers.
        admission_interval: minimum spacing between admissions.
        parallelism: maximum queries in flight.
        policy: admission order among queued requests — an
            :class:`repro.scheduling.policy.AdmissionPolicy` or a policy
            name.
        seed: RNG seed for the RANDOM policy.

    Returns:
        One :class:`ScheduledQuery` per request, in admission order.
    """
    from repro.scheduling.policy import as_policy

    if service_time <= 0 or admission_interval <= 0:
        raise ValueError("service_time and admission_interval must be positive")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    admission = as_policy(policy, seed=seed)
    pending = sorted(arrivals, key=lambda a: (a.request_time, a.query_id))
    scheduled: list[ScheduledQuery] = []
    in_flight: list[float] = []  # finish times
    next_admission_slot = 0.0
    queue: list[QueryArrival] = []
    index = 0
    current_time = 0.0

    while index < len(pending) or queue:
        # Move newly arrived requests into the queue.
        while index < len(pending) and pending[index].request_time <= current_time:
            queue.append(pending[index])
            index += 1
        in_flight = [f for f in in_flight if f > current_time]

        can_admit = (
            queue
            and len(in_flight) < parallelism
            and current_time >= next_admission_slot
        )
        if can_admit:
            chosen = admission.select(queue, 1, current_time)[0]
            finish = current_time + service_time
            scheduled.append(
                ScheduledQuery(
                    chosen.query_id, chosen.request_time, current_time, finish
                )
            )
            in_flight.append(finish)
            next_admission_slot = current_time + admission_interval
            continue

        # Advance time to the next event.
        candidates = []
        if index < len(pending):
            candidates.append(pending[index].request_time)
        if queue:
            candidates.append(next_admission_slot)
            if len(in_flight) >= parallelism:
                candidates.append(min(in_flight))
        if not candidates:
            break
        next_time = min(t for t in candidates if t > current_time) if any(
            t > current_time for t in candidates
        ) else current_time
        if next_time <= current_time:
            # All remaining events are at the current time; avoid stalling.
            current_time += min(admission_interval, service_time)
        else:
            current_time = next_time

    return scheduled


def total_latency(schedule: list[ScheduledQuery]) -> float:
    """Sum of request-to-completion latencies (the objective of Sec. A.2)."""
    return sum(s.latency for s in schedule)


def verify_fifo_optimality(
    arrivals: list[QueryArrival],
    service_time: float,
    admission_interval: float,
    parallelism: int,
    max_permutations: int = 120,
) -> bool:
    """Empirically check that FIFO minimises total latency.

    Enumerates admission orders (up to ``max_permutations`` permutations for
    small workloads) and verifies no order beats FIFO, mirroring the greedy
    exchange proof of Sec. A.2.
    """
    fifo = total_latency(
        schedule_queries(
            arrivals, service_time, admission_interval, parallelism, "fifo",
        )
    )
    ids = [a.query_id for a in sorted(arrivals, key=lambda a: a.request_time)]
    if len(ids) > 6:
        raise ValueError("exhaustive verification is limited to 6 queries")
    by_id = {a.query_id: a for a in arrivals}
    count = 0
    for permutation in itertools.permutations(ids):
        count += 1
        if count > max_permutations:
            break
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
    order: list[QueryArrival],
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

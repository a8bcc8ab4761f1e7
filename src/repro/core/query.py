"""Query request / result records shared by the pipeline model, the
scheduler and the gate-level executor."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Mapping


#: Sentinel placement a shard map's ``route`` may return: the request can
#: run on any shard and the serving engine picks one (shortest queue) at
#: arrival time.  Defined on this dependency-free module so both the
#: placement maps (:mod:`repro.service.sharding`) and the engine
#: (:mod:`repro.engine.core`) can name it without importing each other.
ANY_SHARD = -1


class QueryStatus(enum.Enum):
    """Lifecycle of a query in a shared QRAM."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class QueryRequest:
    """A quantum query submitted to a shared QRAM.

    Attributes:
        query_id: unique identifier.
        address_amplitudes: address superposition to query (normalised by the
            executor); ``None`` for purely timing-level simulations.
        request_time: raw circuit layer at which the request arrives (used by
            the scheduler; 0 means "available from the start").
        qpu: identifier of the requesting QPU (for multi-QPU workloads).
        initial_bus: initial bus bit ``b`` (the query XORs data into it).
        priority: admission priority (higher is served first under the
            priority policy; ties fall back to arrival order).
        deadline: absolute raw layer by which the query should finish
            (``None`` for best-effort requests).  Drives the EDF admission
            policy and the deadline-miss / shed accounting of the serving
            engine.
        min_fidelity: lowest acceptable predicted query fidelity in
            ``(0, 1]`` (``None`` for best-effort requests).  The serving
            engine rejects the request when no placement — optionally
            boosted by virtual distillation — can meet the target, and
            counts served slots whose predicted fidelity falls short as
            fidelity-SLO misses.
    """

    query_id: int
    address_amplitudes: Mapping[int, complex] | None = None
    request_time: float = 0.0
    qpu: int = 0
    initial_bus: int = 0
    priority: int = 0
    deadline: float | None = None
    min_fidelity: float | None = None


@dataclass
class QueryResult:
    """Outcome of a query.

    All ``*_layers`` fields are raw circuit layers on the same time base as
    ``start_layer`` / ``finish_layer``; request-to-finish time is reported
    separately so that service latency (a pure layer count) is never mixed
    with the arrival clock of the request.

    Attributes:
        query_id: identifier of the originating request.
        start_layer: raw circuit layer at which the query entered the QRAM.
        finish_layer: raw circuit layer at which it completed.
        latency_layers: raw layers spent inside the QRAM, from admission to
            completion (``finish_layer - start_layer + 1``).
        request_time: arrival time of the originating request, in raw layers
            on the same clock as ``start_layer`` (0 when unknown).
        request_to_finish: raw layers from request arrival to completion,
            i.e. queueing delay plus service time
            (``finish_layer - request_time``).
        weighted_latency: latency in weighted circuit layers (fast layers
            count 1/8).
        amplitudes: output amplitudes over ``(address, bus)`` pairs, when a
            functional execution was performed.
        status: final status.
    """

    query_id: int
    start_layer: float
    finish_layer: float
    latency_layers: float
    request_time: float = 0.0
    request_to_finish: float = 0.0
    weighted_latency: float = 0.0
    amplitudes: dict[tuple[int, int], complex] = field(default_factory=dict)
    status: QueryStatus = QueryStatus.COMPLETED


def ideal_query_output(
    data, address_amplitudes: Mapping[int, complex], initial_bus: int = 0
) -> dict[tuple[int, int], complex]:
    """Ideal normalised output of one query per the unitary of Eq. (1).

    This is the single implementation every executor and backend scores
    against: ``sum_i alpha_i |i>|b> -> sum_i alpha_i |i>|b XOR x_i>``.
    """
    if not address_amplitudes:
        raise ValueError("query carries no address amplitudes")
    norm = sum(abs(a) ** 2 for a in address_amplitudes.values()) ** 0.5
    return {
        (address, initial_bus ^ (int(data[address]) & 1)): amp / norm
        for address, amp in address_amplitudes.items()
    }


def output_fidelity(
    ideal: Mapping[tuple[int, int], complex],
    actual: Mapping[tuple[int, int], complex],
) -> float:
    """``|<ideal|actual>|^2`` between two output registers."""
    overlap = sum(amp.conjugate() * actual.get(key, 0.0) for key, amp in ideal.items())
    return abs(overlap) ** 2

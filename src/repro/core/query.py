"""The query request every layer shares — executors, backends, the
serving engine and the Sec. 5 scheduler — and the Eq. (1) scoring of a
query's output.

Outcomes have one record each: a backend's window is a
:class:`repro.backends.protocol.WindowResult`, and each query the engine
serves is a :class:`repro.metrics.service_stats.ServedQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping


#: Sentinel placement a shard map's ``route`` may return: the request can
#: run on any shard and the serving engine picks one (shortest queue) at
#: arrival time.  Defined on this dependency-free module so both the
#: placement maps (:mod:`repro.service.sharding`) and the engine
#: (:mod:`repro.engine.core`) can name it without importing each other.
ANY_SHARD = -1


@dataclass
class QueryRequest:
    """A quantum query submitted to a shared QRAM.

    Attributes:
        query_id: unique identifier.
        address_amplitudes: address superposition to query (normalised by the
            executor); ``None`` for purely timing-level simulations.
        request_time: layer at which the request arrives, on the serving
            clock: raw layers for the backends, weighted layers for the
            Sec. 5 timing model (0 means "available from the start").
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

"""Workload sources: one interface for open-loop traces and closed-loop clients.

The engine pulls its traffic from a :class:`WorkloadSource`.  Two families
are provided:

* :class:`StreamingTraceSource` — open loop: a *time-ordered iterator* of
  :class:`repro.core.query.QueryRequest` whose arrival times never react
  to service latency (the Poisson / bursty traces of
  :mod:`repro.workloads.generators`), pulled one arrival at a time, so
  million-query traces (the lazy ``iter_poisson_trace`` /
  ``iter_bursty_trace`` generators) are never materialized and the event
  heap holds at most one future arrival.  :class:`TraceSource` is the
  materialized variant: it sorts a finite trace first, then streams it
  the same way.
* :class:`ClosedLoopSource` — closed loop: ``N`` clients that alternate one
  outstanding query with ``think_layers`` of local processing, the QPU
  query/process loop of Fig. 7 (the same behaviour
  :func:`repro.scheduling.events.periodic_algorithm_arrivals` approximates
  open-loop with a nominal query latency).  Each client's next arrival
  depends on its previous completion, so throughput and latency feed back
  into the offered load.  Figs. 7, 9 and 10 are closed-loop runs of this
  source on the paper's timing model
  (:func:`repro.scheduling.contention.serve_closed_loop`).

Both families enter the engine the same way: ``start`` schedules one
:class:`~repro.engine.events.ClientThink` per client (an open-loop trace
is paced on one pseudo client), and when a think event fires the engine
asks ``next_request`` for that client's request.  ``on_completion`` and
``on_rejection`` observe every served and refused query.  Every hook
takes the engine as its first argument, so a source never stores it: a
source and its engine form no reference cycle, and a finished engine is
freed as soon as the caller drops it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.query import QueryRequest

if TYPE_CHECKING:
    from repro.engine.core import ServiceEngine
    from repro.metrics.service_stats import RejectedQuery, ServedQuery

#: Builds the address superposition of one closed-loop request:
#: ``(client, per-client query index) -> {address: amplitude}``.
AddressFactory = Callable[["ClosedLoopClient", int], Mapping[int, complex]]


class WorkloadSource:
    """What the serving engine requires of a traffic source."""

    def start(self, engine: ServiceEngine) -> None:
        """Schedule the source's initial events (arrivals or think ticks)."""
        raise NotImplementedError

    def on_completion(self, engine: ServiceEngine, record: ServedQuery) -> None:
        """Observe one served query (closed-loop sources react here)."""

    def on_rejection(self, engine: ServiceEngine, record: RejectedQuery) -> None:
        """Observe one rejected/shed request (closed-loop sources react here).

        Without this hook a closed-loop client whose request was refused
        would never learn its query finished (badly) and would stall
        forever; sources that pace on completions must also pace on
        rejections.
        """

    def next_request(
        self, engine: ServiceEngine, client_id: int, now: float
    ) -> QueryRequest | None:
        """The next request of one client, issued at ``now`` (or ``None``)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-loop clients"
        )


def check_request_time(request: QueryRequest) -> None:
    """Refuse an arrival before the clock's origin (time 0): a negative
    ``request_time`` would silently inflate every latency and queue-delay
    statistic derived from it."""
    if request.request_time < 0:
        raise ValueError(
            f"request {request.query_id} has negative request_time "
            f"{request.request_time}; arrivals must be at time >= 0"
        )


def check_arrival(request: QueryRequest) -> None:
    """Refuse an arrival the fleet cannot serve: one without address
    amplitudes, or with a fidelity SLO outside ``(0, 1]``."""
    if request.address_amplitudes is None:
        raise ValueError("service requests require address amplitudes")
    if request.min_fidelity is not None and not 0.0 < request.min_fidelity <= 1.0:
        raise ValueError("min_fidelity must be in (0, 1]")


#: Pseudo client id a :class:`StreamingTraceSource` paces its arrivals on.
_STREAM_CLIENT = -1


class StreamingTraceSource(WorkloadSource):
    """Open-loop traffic pulled lazily from a time-ordered request iterator.

    The source holds exactly one pending request: each arrival, once
    delivered, pulls the next from the iterator and schedules it.  Peak
    memory is independent of trace length — the serving mode of the
    million-query scale benchmark.

    Requests must arrive from the iterator in nondecreasing
    ``request_time`` order with nonnegative times (the order
    :class:`TraceSource` sorts them into; lazily generated traces are
    produced that way).  For a time-sorted trace the event sequence — and
    therefore every report — is identical to serving the materialized
    trace through :class:`TraceSource`, which is pinned by test.
    """

    def __init__(self, requests: Iterable[QueryRequest]) -> None:
        self._requests = requests
        self._pending: QueryRequest | None = None
        self._last_time = 0.0

    def start(self, engine: ServiceEngine) -> None:
        self._iterator = iter(self._requests)
        self._pending = next(self._iterator, None)
        self._last_time = 0.0
        if self._pending is None:
            raise ValueError("at least one request is required")
        self._schedule(engine, self._pending)

    def _schedule(self, engine: ServiceEngine, request: QueryRequest) -> None:
        check_request_time(request)
        if request.request_time < self._last_time:
            raise ValueError(
                "streaming traces must be sorted by request_time "
                f"(saw {request.request_time} after {self._last_time})"
            )
        self._last_time = request.request_time
        engine.schedule_think(_STREAM_CLIENT, request.request_time)

    def next_request(
        self, engine: ServiceEngine, client_id: int, now: float
    ) -> QueryRequest | None:
        request = self._pending
        self._pending = next(self._iterator, None)
        if self._pending is not None:
            self._schedule(engine, self._pending)
        return request


class TraceSource(StreamingTraceSource):
    """Open-loop traffic: a finite trace of requests with arrival times.

    The trace is sorted into ``(request_time, query_id)`` order and then
    streamed like any :class:`StreamingTraceSource`, so any ordering of
    the same trace produces the same report, and a negative
    ``request_time`` — which sorts first — is refused before any arrival
    is processed.  ``requests`` may be any iterable — a list or a lazy
    ``iter_*`` generator, which is materialized here; the sorted list is
    kept as ``requests`` for the partitioned parallel path to split.
    """

    def __init__(self, requests: Iterable[QueryRequest]) -> None:
        self.requests = sorted(
            requests, key=lambda r: (r.request_time, r.query_id)
        )
        if not self.requests:
            raise ValueError("at least one request is required")
        super().__init__(self.requests)


@dataclass
class ClosedLoopClient:
    """One closed-loop client: query, wait for the result, think, repeat.

    Attributes:
        client_id: identifier; doubles as the tenant (``qpu``) of every
            request the client issues.
        queries: total queries the client issues before retiring.
        think_layers: local processing time between a query's completion
            and the next request (``d`` in the paper's Fig. 7 loops).
        start_time: when the client issues its first request.
        deadline_layers: per-request relative deadline (absolute deadline =
            issue time + ``deadline_layers``); ``None`` for best-effort.
        min_fidelity: per-request fidelity SLO carried by every query the
            client issues; ``None`` for best-effort.
    """

    client_id: int
    queries: int
    think_layers: float
    start_time: float = 0.0
    deadline_layers: float | None = None
    min_fidelity: float | None = None

    def __post_init__(self) -> None:
        if self.queries < 0:
            raise ValueError("queries must be >= 0")
        if self.think_layers < 0:
            raise ValueError("think_layers must be >= 0")


class ClosedLoopSource(WorkloadSource):
    """Closed-loop traffic from a fleet of think-time clients.

    Each client holds at most one query in flight: its next request is
    issued ``think_layers`` after the previous one completes.  Query ids
    are assigned from one global counter in issue order, which is
    deterministic for a fixed engine seed and fleet.

    Args:
        clients: the client fleet (client ids must be unique).
        address_factory: builds each request's address superposition from
            ``(client, per-client query index)``.  Interleaved services
            need shard-aligned superpositions; see
            :func:`repro.workloads.generators.closed_loop_source` for a
            ready-made seeded factory.
    """

    def __init__(
        self,
        clients: Sequence[ClosedLoopClient],
        address_factory: AddressFactory,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        self.clients = {client.client_id: client for client in clients}
        if len(self.clients) != len(clients):
            raise ValueError("client ids must be unique")
        self.address_factory = address_factory
        self._issued = {client.client_id: 0 for client in clients}
        self._next_query_id = 0

    @property
    def total_queries(self) -> int:
        """Queries the fleet issues over a full run."""
        return sum(client.queries for client in self.clients.values())

    def start(self, engine: ServiceEngine) -> None:
        self._issued = {client_id: 0 for client_id in self.clients}
        self._next_query_id = 0
        for client_id in sorted(self.clients):
            client = self.clients[client_id]
            if client.queries > 0:
                engine.schedule_think(client_id, client.start_time)

    def next_request(
        self, engine: ServiceEngine, client_id: int, now: float
    ) -> QueryRequest | None:
        client = self.clients[client_id]
        index = self._issued[client_id]
        if index >= client.queries:
            return None
        self._issued[client_id] = index + 1
        query_id = self._next_query_id
        self._next_query_id += 1
        deadline = (
            None
            if client.deadline_layers is None
            else now + client.deadline_layers
        )
        return QueryRequest(
            query_id=query_id,
            address_amplitudes=dict(self.address_factory(client, index)),
            request_time=now,
            qpu=client_id,
            deadline=deadline,
            min_fidelity=client.min_fidelity,
        )

    def on_completion(self, engine: ServiceEngine, record: ServedQuery) -> None:
        self._think_after(engine, record.tenant, record.finish_layer)

    def on_rejection(self, engine: ServiceEngine, record: RejectedQuery) -> None:
        # A rejected or shed request still consumed one of the client's
        # queries (it is accounted in the report's rejected records); the
        # client learns of the failure at rejection time and moves on to
        # its next query after thinking.
        self._think_after(engine, record.tenant, record.time)

    def _think_after(self, engine: ServiceEngine, client_id: int, finished_at: float) -> None:
        client = self.clients.get(client_id)
        if client is None:
            return
        if self._issued[client.client_id] < client.queries:
            engine.schedule_think(
                client.client_id, finished_at + client.think_layers
            )

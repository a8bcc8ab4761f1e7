"""The paper's shared-QRAM timing model, served by the discrete-event engine.

Figs. 7, 9 and 10 and the Sec. A.2 scheduling check all rest on one model
of a shared QRAM: it admits one query per pipeline interval and holds at
most ``parallelism`` queries in flight.  :class:`QRAMServiceModel` is that
model as an engine backend, so every one of those results is one
:class:`repro.engine.ServiceEngine` run on a one-shard fleet — the same
event loop, admission policies and sanitizer checks as every serving
scenario:

* :func:`serve_model` — any workload source under any admission policy
  (:func:`repro.scheduling.fifo.schedule_queries` serves an arrival trace
  and returns the report's ``served`` records as its schedule);
* :func:`serve_closed_loop` — algorithms (one
  :class:`~repro.engine.ClosedLoopClient` each, on its own QPU) that
  alternate a query with ``think_layers`` of local processing (Sec. 6.3).

All times are in weighted circuit layers (fast layers = 1/8), unlike the
serving backends, whose windows are in raw layers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from repro.backends.protocol import WindowResult
from repro.core.query import QueryRequest
from repro.scheduling.policy import AdmissionPolicy, as_policy
from repro.scheduling.utilization import utilization_from_busy_intervals
from repro.service.sharding import ReplicatedShardMap

if TYPE_CHECKING:
    from repro.engine import ClosedLoopClient, ServiceReport, WorkloadSource

#: The model is address-blind: every request reads address 0 of a
#: capacity-2 replica, the smallest valid memory.
_CAPACITY = 2


@dataclass(frozen=True)
class QRAMServiceModel:
    """Timing description of a shared QRAM, and its one-query engine backend.

    Each window holds one query: it starts at offset 0, finishes at
    ``weighted_query_latency``, and keeps the shard busy for
    ``admission_interval``, so the next admission may follow one interval
    later while earlier queries are still in flight (continuous admission).
    At most ``ceil(weighted_query_latency / admission_interval)`` queries
    then overlap, which the constructor requires to be within
    ``parallelism``.  The model carries no noise model: it reports ``None``
    fidelities.

    Attributes:
        name: architecture name (for reports).
        weighted_query_latency: weighted layers from admission to completion
            of one query.
        admission_interval: minimum weighted layers between admissions
            (equals ``weighted_query_latency`` for non-pipelined
            architectures).
        parallelism: maximum queries in flight.
    """

    name: str
    weighted_query_latency: float
    admission_interval: float
    parallelism: int

    def __post_init__(self) -> None:
        if self.weighted_query_latency <= 0 or self.admission_interval <= 0:
            raise ValueError("latencies must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.parallelism * self.admission_interval < self.weighted_query_latency:
            raise ValueError(
                f"{self.name}: parallelism {self.parallelism} x admission_interval "
                f"{self.admission_interval} is below weighted_query_latency "
                f"{self.weighted_query_latency}, so one admission per interval "
                "would exceed the in-flight cap"
            )

    @classmethod
    def from_architecture(cls, qram) -> "QRAMServiceModel":
        """Build a service model from any registered architecture object."""
        latency = qram.single_query_latency()
        parallelism = qram.query_parallelism
        if parallelism > 1:
            interval = qram.amortized_query_latency()
        else:
            interval = latency
        return cls(
            name=getattr(qram, "name", type(qram).__name__),
            weighted_query_latency=latency,
            admission_interval=interval,
            parallelism=parallelism,
        )

    def run_window(
        self, requests: Sequence[QueryRequest], functional: bool = False
    ) -> WindowResult:
        """Time one query (the model has no functional path)."""
        if len(requests) != 1 or functional:
            raise ValueError(
                "the timing model serves timing-only windows of one query"
            )
        return WindowResult(
            interval=0,
            total_layers=self.admission_interval,
            start_offsets=(0.0,),
            finish_offsets=(self.weighted_query_latency,),
            outputs=(None,),
            fidelities=(None,),
        )

    def predicted_window_fidelities(self, batch_size: int = 1) -> tuple[None, ...]:
        return (None,) * batch_size


def serve_model(
    model: QRAMServiceModel,
    source: "WorkloadSource",
    policy: AdmissionPolicy | str = "fifo",
    seed: int = 0,
) -> "ServiceReport":
    """One timing-only engine run of ``source`` on a one-shard fleet of
    ``model`` (full retention, single process)."""
    # Imported here: repro.engine imports repro.scheduling.
    from repro.engine import ServiceEngine

    fleet = SimpleNamespace(
        shards=[model],
        shard_map=ReplicatedShardMap(_CAPACITY, 1),
        policy=as_policy(policy, seed=seed),
        window_sizes=[1],
        functional=False,
        placement="shortest-queue",
    )
    return ServiceEngine(fleet, retention="full", workers=0).run(source)


class ClosedLoopSummary(NamedTuple):
    """What the figures read from one closed-loop run.

    Attributes:
        overall_depth: completion time of the last algorithm, its final
            processing included (Fig. 9 and Fig. 10 a1/a2).
        average_utilization: mean in-flight queries / parallelism over
            ``[0, overall_depth]`` (Fig. 10 b1/b2).
        total_queries: number of queries served.
        total_queue_delay_layers: total layers queries waited for admission.
    """

    overall_depth: float
    average_utilization: float
    total_queries: int
    total_queue_delay_layers: float


def serve_closed_loop(
    model: QRAMServiceModel, clients: Sequence["ClosedLoopClient"]
) -> ClosedLoopSummary:
    """Run algorithms that alternate one query with local processing.

    Raises:
        ValueError: when the clients issue no queries at all.
    """
    from repro.engine import ClosedLoopSource

    source = ClosedLoopSource(clients, lambda client, index: {0: 1.0})
    served = serve_model(model, source).served
    last_finish = {record.tenant: record.finish_layer for record in served}
    depth = max(
        last_finish[client.client_id] + client.think_layers
        if client.client_id in last_finish
        else 0.0
        for client in clients
    )
    return ClosedLoopSummary(
        overall_depth=depth,
        average_utilization=utilization_from_busy_intervals(
            [(record.start_layer, record.finish_layer) for record in served],
            depth,
            model.parallelism,
        ),
        total_queries=len(served),
        total_queue_delay_layers=sum(
            record.start_layer - record.request_time for record in served
        ),
    )

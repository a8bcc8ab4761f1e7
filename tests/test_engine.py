"""Discrete-event serving engine: determinism, closed loops, SLOs, placement."""

from typing import get_args

import pytest

from repro import (
    ClosedLoopClient,
    ClosedLoopSource,
    QRAMService,
    QueryRequest,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
)
from repro.engine.events import (
    ClientThink,
    Event,
    EventHeap,
    TelemetryTick,
    WindowDrain,
    WindowStart,
)
from repro.metrics.service_stats import REJECT_DEADLINE_EXPIRED, REJECT_QUEUE_FULL
from repro.scheduling.events import random_arrivals
from repro.workloads import (
    closed_loop_source,
    iter_exponential_times,
    iter_poisson_trace,
)


def _timing_signature(report):
    return [
        (s.query_id, s.tenant, s.shard, s.request_time, s.admit_layer,
         s.start_layer, s.finish_layer)
        for s in report.served
    ]


# ----------------------------------------------------------------- event heap
def test_event_heap_orders_by_time_then_priority():
    heap = EventHeap()
    heap.push(5.0, WindowStart(0))
    heap.push(5.0, ClientThink(0))
    heap.push(5.0, WindowDrain(1))
    heap.push(1.0, WindowStart(2))
    kinds = [type(heap.pop()[1]) for _ in range(4)]
    # Earlier time first; at equal times arrivals < drains < starts.
    assert kinds == [WindowStart, ClientThink, WindowDrain, WindowStart]


def test_event_priorities_are_unique_and_pinned():
    # The registry is part of the determinism contract (simlint SIM004):
    # renumbering silently changes every same-instant resolution order.
    # Priorities 0 and 3 are retired; no event type may take them back.
    priorities = {
        ClientThink: 1,
        WindowDrain: 2,
        WindowStart: 4,
        TelemetryTick: 5,
    }
    for event_type, priority in priorities.items():
        assert event_type.PRIORITY == priority
    assert set(get_args(Event)) == set(priorities)


def test_same_timestamp_events_pop_across_all_priority_levels():
    heap = EventHeap()
    scrambled = [
        WindowStart(0),
        TelemetryTick(),
        WindowDrain(0),
        ClientThink(1),
        WindowStart(1),
        WindowDrain(1),
        ClientThink(2),
        TelemetryTick(),
    ]
    for event in scrambled:
        heap.push(4.0, event)
    popped = [heap.pop()[1] for _ in range(len(scrambled))]
    # Priority levels resolve in order; within a level, insertion order.
    assert popped == [
        ClientThink(1),
        ClientThink(2),
        WindowDrain(0),
        WindowDrain(1),
        WindowStart(0),
        WindowStart(1),
        TelemetryTick(),
        TelemetryTick(),
    ]


def test_event_heap_ties_resolve_in_insertion_order_interleaved():
    heap = EventHeap()
    a, b, c, d = (ClientThink(i) for i in range(4))
    heap.push(2.0, a)
    heap.push(2.0, b)
    assert heap.pop() == (2.0, a)
    heap.push(2.0, c)  # arrives after a pop, still behind b at t=2.0
    heap.push(1.0, d)  # earlier time beats every same-priority tie
    assert [heap.pop()[1] for _ in range(3)] == [d, b, c]
    assert heap.next_event() is None


def test_held_arrival_and_claims_leave_in_pushed_order():
    """A held arrival leaves where a pushed ClientThink would; a claim
    succeeds only for the event that would pop next."""
    heap = EventHeap(sanitize=True)
    heap.push(5.0, WindowDrain(0))
    heap.hold_arrival(5.0)
    with pytest.raises(ValueError, match="already held"):
        heap.hold_arrival(6.0)
    assert heap.next_event() == (5.0, None)
    assert not heap.claim(5.0, WindowStart(0))  # the drain at (5, 2) is ahead
    assert heap.next_event() == (5.0, WindowDrain(0))
    assert heap.claim(5.0, WindowStart(0))
    heap.hold_arrival(7.0)
    assert not heap.claim(7.0, WindowStart(1))  # behind the held arrival
    assert heap.next_event() == (7.0, None)
    assert heap.next_event() is None


def test_event_heap_key_shape_is_pinned():
    # (time, PRIORITY, sequence, event) — the shape SIM004 enforces; the
    # monotone sequence both breaks ties and keeps payloads un-compared.
    heap = EventHeap()
    heap.push(3.0, TelemetryTick())
    heap.push(3.0, TelemetryTick())
    sequences = []
    for entry in heap._heap:
        assert len(entry) == 4
        time, priority, sequence, event = entry
        assert time == 3.0
        assert priority == TelemetryTick.PRIORITY
        assert isinstance(event, TelemetryTick)
        sequences.append(sequence)
    assert sequences == sorted(sequences) and len(set(sequences)) == 2


# -------------------------------------------------- open loop == legacy serve
def test_open_loop_runs_are_seed_stable():
    capacity = 16
    trace = list(iter_poisson_trace(
        capacity, 30, mean_interarrival=4.0, num_shards=2, seed=9
    ))
    service = QRAMService(capacity, num_shards=2, functional=False)
    first = ServiceEngine(service).run(TraceSource(trace))
    second = ServiceEngine(service).run(TraceSource(trace))
    assert _timing_signature(first) == _timing_signature(second)
    assert first.stats == second.stats


# ------------------------------------------- held arrivals, claimed starts
@pytest.mark.parametrize("sanitize", [False, True])
def test_streaming_trace_pushes_no_client_think(monkeypatch, sanitize):
    """An open-loop trace's pending arrival is held beside the heap."""
    pushed = []
    push = EventHeap.push

    def spy(heap, time, event):
        pushed.append(type(event))
        push(heap, time, event)

    monkeypatch.setattr(EventHeap, "push", spy)
    trace = iter_poisson_trace(16, 300, mean_interarrival=4.0, num_shards=2, seed=9)
    service = QRAMService(16, num_shards=2, functional=False)
    report = ServiceEngine(service, sanitize=sanitize, workers=0).run(
        StreamingTraceSource(trace)
    )
    assert report.stats.total_queries == 300
    assert ClientThink not in pushed
    assert pushed.count(WindowDrain) == len(report.windows)


@pytest.mark.parametrize("sanitize", [False, True])
def test_arrivals_at_one_instant_share_one_window(sanitize):
    """The first arrival's start waits behind the held second arrival."""
    service = QRAMService(16, num_shards=1, functional=False)
    requests = [QueryRequest(i, {2 * i: 1.0}, request_time=5.0) for i in range(2)]
    report = ServiceEngine(service, sanitize=sanitize).run(TraceSource(requests))
    assert [(w.admit_layer, w.batch_size) for w in report.windows] == [(5.0, 2)]


@pytest.mark.parametrize("sanitize", [False, True])
def test_arrival_at_a_drain_is_queued_before_its_admission(sanitize):
    """An arrival at the instant a shard drains is queued before the
    drain admits the shard's next window."""
    service = QRAMService(
        16, num_shards=1, window_size=1, policy="priority", functional=False
    )
    drain = service.shards[0].run_window(
        [QueryRequest(99, {0: 1.0})], functional=False
    ).total_layers
    requests = [
        QueryRequest(0, {0: 1.0}, request_time=0.0),
        QueryRequest(1, {1: 1.0}, request_time=0.0, priority=0),
        QueryRequest(2, {2: 1.0}, request_time=float(drain), priority=5),
    ]
    report = ServiceEngine(service, sanitize=sanitize).run(TraceSource(requests))
    # At the drain both queued requests compete: priority admits query 2
    # first, which it can only do if query 2 was already queued.
    assert [(r.query_id, r.admit_layer) for r in report.served] == [
        (0, 0.0), (2, float(drain)), (1, 2.0 * drain),
    ]


@pytest.mark.parametrize("sanitize", [False, True])
def test_closed_loop_shed_reopens_its_instant(sanitize):
    """A request shed at ``t`` by a window start lets its zero-think client
    issue again at ``t``, in the instant's next round, and be served."""
    service = QRAMService(16, num_shards=1, window_size=1, functional=False)
    drain = service.shards[0].run_window(
        [QueryRequest(99, {0: 1.0})], functional=False
    ).total_layers
    source = ClosedLoopSource(
        [
            ClosedLoopClient(0, queries=1, think_layers=0.0),
            ClosedLoopClient(1, queries=2, think_layers=0.0,
                             deadline_layers=drain / 2),
        ],
        lambda client, index: {client.client_id: 1.0},
    )
    report = ServiceEngine(
        service, shed_expired=True, sanitize=sanitize
    ).run(source)
    assert [(r.tenant, r.time) for r in report.rejected] == [(1, drain)]
    assert [(r.tenant, r.request_time, r.admit_layer) for r in report.served] == [
        (0, 0.0, 0.0), (1, drain, drain),
    ]


# ------------------------------------------------------------- closed loop
def test_closed_loop_runs_are_deterministic():
    capacity = 16
    service = QRAMService(capacity, num_shards=2, functional=False)
    reports = []
    for _ in range(2):
        source = closed_loop_source(
            capacity, num_clients=3, queries_per_client=4,
            think_layers=50.0, num_shards=2, seed=11,
        )
        reports.append(ServiceEngine(service).run(source))
    assert _timing_signature(reports[0]) == _timing_signature(reports[1])
    assert reports[0].stats == reports[1].stats
    assert reports[0].stats.total_queries == 12


def test_closed_loop_respects_think_time_feedback():
    """Each client's next request is issued exactly think_layers after its
    previous completion — arrivals depend on service latency."""
    capacity = 16
    think = 75.0
    service = QRAMService(capacity, num_shards=1, functional=False)
    source = closed_loop_source(
        capacity, num_clients=2, queries_per_client=5,
        think_layers=think, num_shards=1, seed=2,
    )
    report = ServiceEngine(service).run(source)
    assert report.stats.total_queries == 10
    by_client = {}
    for record in sorted(report.served, key=lambda s: s.request_time):
        by_client.setdefault(record.tenant, []).append(record)
    for records in by_client.values():
        assert len(records) == 5
        for previous, current in zip(records, records[1:]):
            assert current.request_time == pytest.approx(
                previous.finish_layer + think
            )


def test_closed_loop_client_validation():
    with pytest.raises(ValueError):
        ClosedLoopClient(0, queries=-1, think_layers=1.0)
    with pytest.raises(ValueError):
        ClosedLoopClient(0, queries=1, think_layers=-1.0)
    with pytest.raises(ValueError):
        ClosedLoopSource([], lambda client, index: {0: 1.0})
    duplicate = [
        ClosedLoopClient(0, queries=1, think_layers=0.0),
        ClosedLoopClient(0, queries=1, think_layers=0.0),
    ]
    with pytest.raises(ValueError):
        ClosedLoopSource(duplicate, lambda client, index: {0: 1.0})


# ----------------------------------------------------------------------- EDF
def test_edf_admits_in_deadline_order():
    capacity = 8
    # One shard, windows of one query: admission order is fully visible.
    # Deadlines are the reverse of arrival/id order.
    requests = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=0.0,
                     deadline=1000.0 - 100 * i)
        for i in range(4)
    ]
    edf = QRAMService(capacity, num_shards=1, window_size=1,
                      functional=False, policy="edf")
    report = ServiceEngine(edf).run(TraceSource(requests))
    admit_order = [s.query_id for s in sorted(report.served,
                                              key=lambda s: s.start_layer)]
    assert admit_order == [3, 2, 1, 0]

    fifo = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    report = ServiceEngine(fifo).run(TraceSource(requests))
    admit_order = [s.query_id for s in sorted(report.served,
                                              key=lambda s: s.start_layer)]
    assert admit_order == [0, 1, 2, 3]


def test_edf_orders_best_effort_last():
    capacity = 8
    requests = [
        QueryRequest(0, {0: 1.0}, request_time=0.0, deadline=None),
        QueryRequest(1, {1: 1.0}, request_time=0.0, deadline=500.0),
    ]
    service = QRAMService(capacity, num_shards=1, window_size=1,
                          functional=False, policy="edf")
    report = ServiceEngine(service).run(TraceSource(requests))
    order = [s.query_id for s in sorted(report.served,
                                        key=lambda s: s.start_layer)]
    assert order == [1, 0]


# --------------------------------------------------------------- backpressure
def test_bounded_queue_rejects_overflow():
    capacity = 8
    requests = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=0.0) for i in range(10)
    ]
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    report = ServiceEngine(service, max_queue_depth=2).run(TraceSource(requests))
    # All 10 arrive at t=0: the first two enter the bounded queue, the rest
    # are rejected before any window starts.
    assert report.stats.total_queries == 2
    assert report.stats.rejected_queries == 8
    assert report.stats.offered_queries == 10
    assert len(report.rejected) == 8
    assert all(r.reason == REJECT_QUEUE_FULL for r in report.rejected)
    assert {r.query_id for r in report.rejected} == set(range(2, 10))


def test_expired_deadlines_are_shed():
    capacity = 8
    # A burst with deadlines only the first window can meet; the stragglers
    # expire while queued and are shed, never executed.
    requests = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=0.0, deadline=60.0)
        for i in range(6)
    ]
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    report = ServiceEngine(service, shed_expired=True).run(TraceSource(requests))
    shed = [r for r in report.rejected if r.reason == REJECT_DEADLINE_EXPIRED]
    assert report.stats.shed_queries == len(shed) > 0
    assert report.stats.total_queries + len(shed) == 6
    assert report.stats.rejected_queries == 0
    # Every shed request is a deadline miss; the rate covers served + shed.
    assert report.stats.deadline_misses >= len(shed)
    assert 0.0 < report.stats.deadline_miss_rate <= 1.0


def test_closed_loop_clients_survive_rejections():
    """A rejected request must not stall its closed-loop client: the client
    learns of the failure and issues its remaining queries, so every query
    of the fleet is eventually offered (served or rejected)."""
    capacity = 8
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    source = closed_loop_source(
        capacity, num_clients=6, queries_per_client=4,
        think_layers=0.0, num_shards=1, seed=1,
    )
    report = ServiceEngine(service, max_queue_depth=2).run(source)
    offered = report.stats.total_queries + len(report.rejected)
    assert offered == 6 * 4
    assert len(report.rejected) > 0


def test_all_shed_tenant_appears_in_per_tenant_stats():
    capacity = 8
    # Tenant 1's only request has an already-tight deadline behind a long
    # window; it is shed, and must still appear in the per-tenant view.
    requests = [
        QueryRequest(0, {0: 1.0}, request_time=0.0, qpu=0),
        QueryRequest(1, {1: 1.0}, request_time=1.0, qpu=1, deadline=2.0),
    ]
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    report = ServiceEngine(service, shed_expired=True).run(TraceSource(requests))
    assert report.stats.shed_queries == 1
    assert 1 in report.stats.per_tenant
    tenant = report.stats.per_tenant[1]
    assert tenant.queries == 0
    assert tenant.deadline_misses == 1
    assert tenant.deadline_miss_rate == 1.0


def test_fully_refused_run_raises_clearly():
    capacity = 8
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    source = closed_loop_source(
        capacity, num_clients=1, queries_per_client=0,
        think_layers=1.0, num_shards=1,
    )
    with pytest.raises(ValueError, match="no requests"):
        ServiceEngine(service).run(source)


# -------------------------------------------------------------- percentiles
def test_latency_percentiles_and_miss_rate_fields():
    capacity = 16
    trace = iter_poisson_trace(capacity, 40, mean_interarrival=3.0, num_shards=2,
                               seed=7, deadline_layers=250.0)
    service = QRAMService(capacity, num_shards=2, functional=False)
    report = ServiceEngine(service).run(TraceSource(trace))
    stats = report.stats
    assert 0.0 < stats.p50_latency_layers <= stats.p95_latency_layers
    assert stats.p95_latency_layers <= stats.p99_latency_layers
    worst = max(r.finish_layer - r.request_time for r in report.served)
    assert stats.p99_latency_layers <= worst + 1e-9
    assert stats.offered_queries == 40
    assert 0.0 <= stats.deadline_miss_rate <= 1.0
    for tenant_stats in stats.per_tenant.values():
        assert tenant_stats.p95_latency_layers > 0.0


# ------------------------------------------------------------ replicated fleet
def test_replicated_run_is_deterministic():
    capacity = 8
    requests = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=float(i)) for i in range(16)
    ]
    service = QRAMService(capacity, num_shards=2, functional=False,
                          placement="shortest-queue")
    first = ServiceEngine(service).run(TraceSource(requests))
    second = ServiceEngine(service).run(TraceSource(requests))
    assert _timing_signature(first) == _timing_signature(second)
    assert {r.shard for r in first.served} == {0, 1}


# ------------------------------------------------------- unified arrival core
def test_scheduling_and_serving_share_one_arrival_core():
    """random_arrivals and iter_poisson_trace draw identical times from the
    shared exponential core for the same (num, mean, seed)."""
    times = list(iter_exponential_times(15, 7.0, seed=4))
    stream = random_arrivals(15, 7.0, seed=4)
    trace = list(iter_poisson_trace(16, 15, mean_interarrival=7.0, seed=4))
    assert [a.request_time for a in stream] == times
    assert [r.request_time for r in trace] == times
    with pytest.raises(ValueError):
        iter_exponential_times(5, 0.0)
    with pytest.raises(ValueError):
        iter_exponential_times(-1, 1.0)


# -------------------------------------------------------------- report index
def test_result_for_uses_constant_time_index():
    capacity = 16
    trace = list(iter_poisson_trace(
        capacity, 12, mean_interarrival=10.0, num_shards=2, seed=1
    ))
    report = ServiceEngine(
        QRAMService(capacity, num_shards=2, functional=False)
    ).run(TraceSource(trace))
    for request in trace:
        assert report.result_for(request.query_id).query_id == request.query_id
    # The lazily built index is reused across lookups.
    assert report._result_index is not None
    assert len(report._result_index) == 12
    with pytest.raises(KeyError):
        report.result_for(404)


# --------------------------------------------------- deadline boundary cases
def test_deadline_equal_to_now_is_shed():
    """Boundary: a request whose deadline equals the shed-check instant can
    no longer finish on time and must be shed, not admitted-then-missed."""
    capacity = 8
    # Query 0 occupies the shard; query 1's deadline lands exactly on the
    # window drain, which is when the next shed check runs.
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    drain = service.shards[0].run_window(
        [QueryRequest(99, {0: 1.0})], functional=False
    ).total_layers
    requests = [
        QueryRequest(0, {0: 1.0}, request_time=0.0),
        QueryRequest(1, {1: 1.0}, request_time=1.0, deadline=float(drain)),
    ]
    report = ServiceEngine(service, shed_expired=True).run(TraceSource(requests))
    shed = [r for r in report.rejected if r.reason == REJECT_DEADLINE_EXPIRED]
    assert [r.query_id for r in shed] == [1]
    assert report.stats.shed_queries == 1
    assert report.stats.total_queries == 1


def test_finish_exactly_at_deadline_is_not_a_miss():
    """Boundary: finish_layer == deadline is on time — the shed comparison
    and the miss accounting agree at the boundary."""
    capacity = 8
    service = QRAMService(capacity, num_shards=1, window_size=1, functional=False)
    drain = service.shards[0].run_window(
        [QueryRequest(99, {0: 1.0})], functional=False
    ).total_layers
    finish = service.shards[0].run_window(
        [QueryRequest(98, {0: 1.0})], functional=False
    ).finish_offsets[0]
    requests = [QueryRequest(0, {0: 1.0}, request_time=0.0, deadline=float(finish))]
    report = ServiceEngine(service, shed_expired=True).run(TraceSource(requests))
    record = report.result_for(0)
    assert record.finish_layer == record.deadline
    assert report.stats.deadline_misses == 0
    assert report.stats.deadline_miss_rate == 0.0
    assert drain >= finish


# ----------------------------------------------------------- fidelity SLOs
def test_infeasible_fidelity_slo_is_rejected():
    """A target above what any placement can predict refuses at arrival."""
    from repro.metrics.service_stats import REJECT_FIDELITY

    capacity = 16
    service = QRAMService(capacity, num_shards=1, functional=False)
    solo = service.shards[0].predicted_query_fidelity()
    requests = [
        QueryRequest(0, {0: 1.0}, min_fidelity=min(1.0, solo + 0.01)),
        QueryRequest(1, {1: 1.0}, min_fidelity=solo),
    ]
    report = ServiceEngine(service).run(TraceSource(requests))
    assert [r.query_id for r in report.rejected] == [0]
    assert report.rejected[0].reason == REJECT_FIDELITY
    assert report.rejected[0].min_fidelity == pytest.approx(solo + 0.01)
    assert report.stats.fidelity_rejected_queries == 1
    assert report.stats.rejected_queries == 1      # non-shed refusals
    assert report.stats.shed_queries == 0
    assert report.stats.fidelity_slo_misses == 1   # a refusal is a miss
    served = report.result_for(1)
    assert served.min_fidelity == pytest.approx(solo)
    assert served.predicted_fidelity >= served.min_fidelity
    assert report.stats.fidelity_slo_miss_rate == pytest.approx(0.5)


def test_distillation_retry_lifts_fidelity_and_charges_layers():
    """With a copy budget, a target above the bare bound is admitted via
    virtual distillation; the copies keep the backend busy longer."""
    capacity = 16
    solo = QRAMService(capacity, num_shards=1, functional=False)\
        .shards[0].predicted_query_fidelity()
    target = 1.0 - (1.0 - solo) ** 2 * 1.5     # needs exactly 2 copies
    assert solo < target < 1.0 - (1.0 - solo) ** 2

    def serve(copies):
        service = QRAMService(capacity, num_shards=1, functional=False)
        return ServiceEngine(service, max_distillation_copies=copies).run(
            TraceSource([QueryRequest(0, {0: 1.0}, min_fidelity=target)])
        )

    with pytest.raises(ValueError):
        serve(1)                                # all offered requests refused
    report = serve(3)
    record = report.result_for(0)
    assert record.distillation_copies == 2
    # The two copies are extra pipelined admissions: the distillation
    # suppresses the *worst slot* of a 2-query window, not the lone-query
    # bound — crosstalk and suppression both enter the prediction.
    probe = QRAMService(capacity, num_shards=1, functional=False)
    worst_of_two = min(probe.shards[0].predicted_window_fidelities(2))
    assert record.predicted_fidelity == pytest.approx(
        1.0 - (1.0 - worst_of_two) ** 2
    )
    assert record.predicted_fidelity >= target

    # The extra copy charges one admission interval to the window.
    plain = QRAMService(capacity, num_shards=1, functional=False)
    plain_report = ServiceEngine(plain).run(TraceSource([QueryRequest(0, {0: 1.0})]))
    interval = plain_report.windows[0].interval
    assert report.windows[0].total_layers == (
        plain_report.windows[0].total_layers + interval
    )


def test_fidelity_aware_batch_capping():
    """A window is shrunk until pipelining degradation stops violating the
    strictest SLO in the batch — the dropped requests run in later windows."""
    capacity = 16
    probe = QRAMService(capacity, num_shards=1, functional=False)
    solo = probe.shards[0].predicted_query_fidelity()
    full = probe.shards[0].predicted_window_fidelities(
        probe.window_sizes[0]
    )
    target = (min(full) + solo) / 2.0          # feasible solo, not in a full window
    assert min(full) < target < solo
    requests = [
        QueryRequest(i, {i: 1.0}, min_fidelity=target)
        for i in range(probe.window_sizes[0])
    ]
    service = QRAMService(capacity, num_shards=1, functional=False)
    report = ServiceEngine(service).run(TraceSource(requests))
    assert report.stats.total_queries == len(requests)
    assert report.stats.fidelity_slo_misses == 0
    for record in report.served:
        assert record.predicted_fidelity >= target
    # The capping forced more, smaller windows than the uncapped fleet.
    assert len(report.windows) > 1
    assert max(w.batch_size for w in report.windows) < len(requests)


def test_mixed_fleet_routes_slo_traffic_to_encoded_replicas():
    """Replicated placement prefers shards that can meet the SLO: strict
    traffic lands on the encoded replica, best-effort spreads anywhere."""
    from repro.hardware.parameters import TABLE3_PARAMETERS

    params = TABLE3_PARAMETERS[1e-4]
    capacity = 16
    service = QRAMService(
        capacity,
        num_shards=2,
        functional=False,
        architectures=["Fat-Tree", "Fat-Tree@d3"],
        placement="shortest-queue",
        parameters=params,
    )
    bare_solo = service.shards[0].predicted_query_fidelity()
    encoded_solo = service.shards[1].predicted_query_fidelity()
    assert bare_solo < 0.995 < encoded_solo
    requests = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=float(5 * i),
                     min_fidelity=0.995)
        for i in range(4)
    ]
    report = ServiceEngine(service).run(TraceSource(requests))
    assert report.stats.total_queries == 4
    assert {r.shard for r in report.served} == {1}
    assert all(r.architecture == "Fat-Tree@d3" for r in report.served)
    assert report.stats.fidelity_slo_misses == 0


def test_min_fidelity_validation():
    service = QRAMService(8, num_shards=1, functional=False)
    with pytest.raises(ValueError, match="min_fidelity"):
        ServiceEngine(service).run(
            TraceSource([QueryRequest(0, {0: 1.0}, min_fidelity=1.5)])
        )
    with pytest.raises(ValueError):
        ServiceEngine(service, max_distillation_copies=0)


def test_replicas_share_the_fleet_parameters():
    """Every replica is built under the fleet's noise model: a
    default-parameters replica would predict far lower fidelity and
    silently serve admitted SLO traffic below target."""
    from repro.hardware.parameters import TABLE3_PARAMETERS

    capacity = 16
    service = QRAMService(
        capacity, num_shards=3, functional=False,
        placement="shortest-queue", parameters=TABLE3_PARAMETERS[1e-4],
    )
    solo = service.shards[0].predicted_query_fidelity()
    target = solo - 0.001                  # feasible on the configured model
    burst = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=0.0,
                     min_fidelity=target)
        for i in range(12)
    ]
    report = ServiceEngine(service).run(TraceSource(burst))
    assert report.stats.total_queries == 12
    assert report.stats.fidelity_slo_misses == 0
    assert {r.shard for r in report.served} != {0}    # replicas did serve
    for record in report.served:
        assert record.predicted_fidelity >= target


def test_slo_burst_stays_on_the_encoded_replica():
    """A strict-SLO burst queues on the one replica that can meet it, while
    the bare replicas beside it stay idle: nothing is served below target
    or refused."""
    from repro.hardware.parameters import TABLE3_PARAMETERS

    capacity = 16
    service = QRAMService(
        capacity, num_shards=3, functional=False,
        architectures=["Fat-Tree@d3", "Fat-Tree", "Fat-Tree"],
        placement="shortest-queue", parameters=TABLE3_PARAMETERS[1e-4],
    )
    burst = [
        QueryRequest(i, {i % capacity: 1.0}, request_time=0.0,
                     min_fidelity=0.995)
        for i in range(12)
    ]
    report = ServiceEngine(service).run(TraceSource(burst))
    assert report.stats.total_queries == 12
    assert report.stats.fidelity_slo_misses == 0
    assert report.stats.fidelity_rejected_queries == 0
    assert {r.shard for r in report.served} == {0}
    assert all(r.architecture == "Fat-Tree@d3" for r in report.served)

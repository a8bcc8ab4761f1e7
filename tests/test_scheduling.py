"""FIFO scheduling, the shared-QRAM timing model and utilization (Sec. 5, Fig. 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import architecture_names, build_architecture
from repro.core.query import QueryRequest
from repro.engine import ClosedLoopClient, ClosedLoopSource
from repro.engine.core import SANITIZE_ENV
from repro.scheduling import (
    QRAMServiceModel,
    burst_arrivals,
    random_arrivals,
    schedule_queries,
    serve_closed_loop,
    serve_model,
    total_latency,
    verify_fifo_optimality,
)
from repro.scheduling import fifo
from repro.scheduling.utilization import (
    fig7_total_time,
    utilization_from_busy_intervals,
)


def test_random_and_burst_arrivals():
    arrivals = random_arrivals(20, 5.0, seed=3, num_qpus=4)
    assert len(arrivals) == 20
    assert all(a.request_time <= b.request_time for a, b in zip(arrivals, arrivals[1:]))
    bursts = burst_arrivals(3, 5, 100.0)
    assert len(bursts) == 15
    assert bursts[5].request_time == pytest.approx(100.0)


def test_fifo_schedule_respects_interval_and_parallelism():
    arrivals = burst_arrivals(1, 6, 100.0)
    scheduled = schedule_queries(
        arrivals, service_time=24.625, admission_interval=8.25, parallelism=3
    )
    starts = sorted(s.start_layer for s in scheduled)
    # Admissions at least one interval apart.
    assert all(b - a >= 8.25 - 1e-9 for a, b in zip(starts, starts[1:]))
    # Never more than 3 in flight.
    for s in scheduled:
        concurrent = sum(
            1 for t in scheduled if t.start_layer <= s.start_layer < t.finish_layer
        )
        assert concurrent <= 3


def test_fifo_is_optimal_for_random_workloads():
    """Sec. 5 / App. A.2: FIFO minimizes total latency over every admission order."""
    for seed in range(3):
        arrivals = random_arrivals(5, 15.0, seed=seed)
        assert verify_fifo_optimality(
            arrivals, service_time=24.625, admission_interval=8.25, parallelism=3
        )


def test_fifo_not_worse_than_other_policies():
    arrivals = random_arrivals(8, 10.0, seed=7)
    fifo = total_latency(schedule_queries(arrivals, 24.625, 8.25, 3))
    lifo = total_latency(schedule_queries(arrivals, 24.625, 8.25, 3, "lifo"))
    rnd = total_latency(
        schedule_queries(arrivals, 24.625, 8.25, 3, "random", seed=5)
    )
    assert fifo <= lifo + 1e-9
    assert fifo <= rnd + 1e-9


def test_service_model_from_architectures():
    ft = QRAMServiceModel.from_architecture(build_architecture("Fat-Tree", 1024))
    bb = QRAMServiceModel.from_architecture(build_architecture("BB", 1024))
    assert ft.parallelism == 10 and bb.parallelism == 1
    assert ft.admission_interval == pytest.approx(8.25)
    assert bb.admission_interval == pytest.approx(bb.weighted_query_latency)
    with pytest.raises(ValueError):
        QRAMServiceModel("bad", -1, 1, 1)


def test_contention_simulation_single_algorithm():
    model = QRAMServiceModel("Fat-Tree", weighted_query_latency=24.625, admission_interval=8.25, parallelism=3)
    report = serve_closed_loop(
        model, [ClosedLoopClient(0, queries=3, think_layers=10.0)]
    )
    # 3 rounds of (query + processing) executed strictly sequentially.
    assert report.overall_depth == pytest.approx(3 * (24.625 + 10.0))
    assert report.total_queries == 3
    assert report.total_queue_delay_layers == pytest.approx(0.0)


def test_fat_tree_scales_better_than_bb_under_contention():
    ft = build_architecture("Fat-Tree", 1024)
    bb = build_architecture("BB", 1024)
    clients = [ClosedLoopClient(i, queries=5, think_layers=40.0) for i in range(10)]
    ft_report = serve_closed_loop(QRAMServiceModel.from_architecture(ft), clients)
    bb_report = serve_closed_loop(QRAMServiceModel.from_architecture(bb), clients)
    assert ft_report.overall_depth < bb_report.overall_depth / 3
    assert ft_report.total_queue_delay_layers < bb_report.total_queue_delay_layers


def test_utilization_helpers():
    util = utilization_from_busy_intervals([(0, 10), (5, 15)], horizon=20, parallelism=1)
    assert util == pytest.approx(1.0)
    util = utilization_from_busy_intervals([(0, 10)], horizon=20, parallelism=2)
    assert util == pytest.approx(0.25)
    with pytest.raises(ValueError):
        utilization_from_busy_intervals([], horizon=0)
    assert fig7_total_time(3, 20) == pytest.approx(30 * 3 + 2 * 20 + 17)


@settings(max_examples=15, deadline=None)
@given(
    num_algorithms=st.integers(min_value=1, max_value=12),
    ratio=st.floats(min_value=0.0, max_value=2.0),
)
def test_simulation_invariants(num_algorithms, ratio):
    """Utilization is in [0, 1]; depth is at least one algorithm's serial time."""
    model = QRAMServiceModel("Fat-Tree", 24.625, 8.25, 3)
    clients = [
        ClosedLoopClient(i, queries=4, think_layers=ratio * 24.625)
        for i in range(num_algorithms)
    ]
    report = serve_closed_loop(model, clients)
    serial = 4 * (24.625 + ratio * 24.625)
    assert report.overall_depth >= serial - 1e-6
    assert 0.0 <= report.average_utilization <= 1.0
    assert report.total_queries == 4 * num_algorithms


@pytest.mark.parametrize("name", architecture_names())
def test_service_model_builds_for_every_architecture(name):
    """Every registered architecture admits one query per interval without
    exceeding its query parallelism, at every capacity N = 4 ... 1024."""
    for width in range(2, 11):
        qram = build_architecture(name, 2**width)
        model = QRAMServiceModel.from_architecture(qram)
        assert model.parallelism * model.admission_interval >= model.weighted_query_latency


def test_service_model_refuses_an_unreachable_in_flight_cap():
    with pytest.raises(ValueError, match=r"parallelism 2 x admission_interval 8\.25 "
                       r"is below weighted_query_latency 24\.625"):
        QRAMServiceModel("tight", 24.625, 8.25, 2)
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        QRAMServiceModel("none", 24.625, 8.25, 0)
    with pytest.raises(ValueError, match="latencies must be positive"):
        QRAMServiceModel("zero", 24.625, 0.0, 3)


@pytest.mark.parametrize(
    "model",
    [
        QRAMServiceModel("hand", 24.625, 8.25, 3),
        QRAMServiceModel.from_architecture(build_architecture("Fat-Tree", 1024)),
        QRAMServiceModel.from_architecture(build_architecture("BB", 1024)),
    ],
    ids=lambda model: model.name,
)
def test_saturated_closed_loop_respects_interval_and_parallelism(monkeypatch, model):
    """Twenty think-free clients keep the queue non-empty; the sanitized
    run admits one query per interval and never overlaps more than
    ``parallelism`` queries."""
    monkeypatch.setenv(SANITIZE_ENV, "1")
    clients = [ClosedLoopClient(i, queries=5, think_layers=0.0) for i in range(20)]
    report = serve_model(model, ClosedLoopSource(clients, lambda c, i: {0: 1.0}))
    served = sorted(report.served, key=lambda r: r.start_layer)
    assert len(served) == 100
    for earlier, later in zip(served, served[1:]):
        assert later.start_layer >= earlier.start_layer + model.admission_interval
    for record in served:
        overlapping = sum(
            1 for other in served
            if other.start_layer <= record.start_layer < other.finish_layer
        )
        assert overlapping <= model.parallelism
    # Saturated: admissions are back to back.
    assert served[-1].start_layer == pytest.approx(99 * model.admission_interval)


def test_closed_loop_without_queries_is_refused():
    model = QRAMServiceModel("hand", 24.625, 8.25, 3)
    with pytest.raises(ValueError, match="produced no requests"):
        serve_closed_loop(model, [ClosedLoopClient(0, queries=0, think_layers=1.0)])


def test_fifo_optimality_enumerates_every_order(monkeypatch):
    calls = []
    reference = fifo._latency_of_fixed_order

    def counting(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(fifo, "_latency_of_fixed_order", counting)
    arrivals = random_arrivals(6, 5.0, seed=1)
    assert verify_fifo_optimality(arrivals, 24.625, 8.25, 3)
    assert len(calls) == 720


def test_fifo_optimality_refuses_seven_queries_before_scheduling(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scheduled before checking the query limit")

    monkeypatch.setattr(fifo, "schedule_queries", fail)
    with pytest.raises(ValueError, match="limited to 6 queries"):
        verify_fifo_optimality(random_arrivals(7, 5.0), 24.625, 8.25, 3)


def test_service_model_windows_hold_one_timing_only_query():
    model = QRAMServiceModel("hand", 24.625, 8.25, 3)
    request = QueryRequest(0, {0: 1.0})
    window = model.run_window([request])
    assert window.start_offsets == (0.0,) and window.finish_offsets == (24.625,)
    assert window.total_layers == 8.25 and window.fidelities == (None,)
    assert model.predicted_window_fidelities(1) == (None,)
    with pytest.raises(ValueError, match="windows of one query"):
        model.run_window([request, QueryRequest(1, {0: 1.0})])
    with pytest.raises(ValueError, match="timing-only"):
        model.run_window([request], functional=True)

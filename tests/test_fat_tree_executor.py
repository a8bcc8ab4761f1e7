"""Gate-level Fat-Tree executor: functional correctness of pipelined queries."""

import time

import pytest

from repro.core import FatTreeQRAM, QueryRequest
from repro.core.executor import MAX_WINDOW_TERMS, FatTreeExecutor
from repro.core.pipeline import PIPELINE_INTERVAL
from repro.bucket_brigade.instructions import InstructionKind
from repro.workloads import structured_data

DATA8 = [1, 0, 1, 1, 0, 0, 1, 0]


def test_relative_schedule_latency_is_10n_minus_1():
    for capacity in (2, 4, 8, 16):
        executor = FatTreeExecutor(capacity, [0] * capacity)
        n = executor.address_width
        assert executor.relative_raw_latency() == 10 * n - 1


def test_relative_schedule_routes_only_with_outputs():
    """No ROUTE ever targets a transient router (label == level), except the
    data-coupled bottom level."""
    executor = FatTreeExecutor(16, [0] * 16)
    n = executor.address_width
    for instr in executor.relative_schedule():
        if instr.kind in (InstructionKind.ROUTE, InstructionKind.UNROUTE):
            assert instr.label > instr.level or instr.level == n - 1


def test_relative_schedule_has_expected_fast_layers():
    executor = FatTreeExecutor(8, DATA8)
    schedule = executor.relative_schedule()
    migrations = [i for i in schedule if i.kind is InstructionKind.SWAP_MIGRATE]
    retrievals = [i for i in schedule if i.kind is InstructionKind.CLASSICAL_GATES]
    n = executor.address_width
    assert len(migrations) == 2 * (n - 1)
    assert len(retrievals) == 1
    assert retrievals[0].raw_layer == 5 * n


def test_single_query_fidelity_and_cleanliness():
    qram = FatTreeQRAM(8, DATA8)
    out = qram.query({0: 1, 3: 1j, 6: -1})
    assert set(out) == {(0, 1), (3, 1), (6, 1)}
    executor = qram.executor()
    request = QueryRequest(0, {0: 1, 3: 1j, 6: -1})
    _, outputs = executor.run_pipelined_queries([request], interval=40)
    assert executor.query_fidelity(request, outputs[0]) == pytest.approx(1.0)
    assert executor.tree_is_clean()


def test_two_pipelined_queries_are_independent_and_correct():
    executor = FatTreeExecutor(8, DATA8)
    requests = [
        QueryRequest(0, {1: 1.0, 4: -1.0}),
        QueryRequest(1, {2: 1.0, 7: 1.0j}, initial_bus=1),
    ]
    summary, outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert executor.tree_is_clean()
    assert summary.per_query_raw_layers == 29
    assert summary.max_concurrent == 2


def test_three_pipelined_queries_capacity8():
    executor = FatTreeExecutor(8, structured_data(8, "parity"))
    requests = [QueryRequest(i, {i: 1.0, (i + 3) % 8: 1.0}) for i in range(3)]
    summary, outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert summary.total_layers == 2 * 22 + 29


def test_minimum_feasible_interval_bounds():
    executor = FatTreeExecutor(8, DATA8)
    interval = executor.minimum_feasible_interval(2)
    assert PIPELINE_INTERVAL <= interval <= executor.relative_raw_latency()
    # Executing at that interval must be functionally correct.
    requests = [QueryRequest(i, {i: 1.0}) for i in range(2)]
    _, outputs = executor.run_pipelined_queries(requests, interval=interval)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)


def test_capacity4_pipelined_queries():
    data = [0, 1, 1, 0]
    executor = FatTreeExecutor(4, data)
    requests = [QueryRequest(i, {0: 1.0, 3: 1.0}) for i in range(2)]
    summary, outputs = executor.run_pipelined_queries(requests)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert summary.per_query_raw_layers == 19
    assert executor.tree_is_clean()


def test_resident_label_trajectory():
    executor = FatTreeExecutor(8, DATA8)
    lifetime = executor.relative_raw_latency()
    labels = [executor.resident_label(r) for r in range(1, lifetime + 1)]
    assert labels[0] == 0 and labels[-1] == 0
    assert max(labels) == executor.address_width - 1
    assert executor.resident_label(0) is None
    assert executor.resident_label(lifetime + 1) is None


def test_requests_require_amplitudes():
    executor = FatTreeExecutor(4, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        executor.run_pipelined_queries([QueryRequest(0)])
    with pytest.raises(ValueError):
        executor.run_pipelined_queries([])


def test_window_term_blowup_fails_fast_with_cause():
    """A full window of full superpositions would need (2 * 32)**5 sparse
    terms; it is refused before the first gate, naming the cause."""
    executor = FatTreeExecutor(32, [0] * 32)
    uniform = {address: 1.0 for address in range(32)}
    requests = [
        QueryRequest(query_id=q, address_amplitudes=uniform)
        for q in range(executor.address_width)
    ]
    start = time.perf_counter()
    with pytest.raises(ValueError) as excinfo:
        executor.run_pipelined_queries(requests)
    assert time.perf_counter() - start < 1.0
    message = str(excinfo.value)
    assert "5 queries [0, 1, 2, 3, 4]" in message
    assert "[32, 32, 32, 32, 32] address branches" in message
    assert f"{64**5} sparse terms" in message
    assert f"MAX_WINDOW_TERMS={MAX_WINDOW_TERMS}" in message


def test_repeated_queries_reuse_cached_schedule():
    """Repeated query() calls hit the cached executor and schedule and give
    identical amplitudes."""
    qram = FatTreeQRAM(8, DATA8)
    first = qram.query({0: 1, 5: 1})
    executor = qram.cached_executor()
    schedule = executor.relative_schedule(0)
    second = qram.query({0: 1, 5: 1})
    assert first == second
    assert qram.cached_executor() is executor
    assert executor.relative_schedule(0) is schedule          # memoized
    assert executor.minimum_feasible_interval() == executor.minimum_feasible_interval()
    # A classical write invalidates the cached executor (new memory image).
    qram.write_memory(0, 0)
    assert qram.cached_executor() is not executor
    assert qram.query({0: 1, 5: 1}) != first


def test_schedules_of_different_queries_share_structure():
    executor = FatTreeExecutor(8, DATA8)
    base = executor.relative_schedule(0)
    other = executor.relative_schedule(7)
    assert len(base) == len(other)
    for a, b in zip(base, other):
        assert b.query == 7
        assert (a.kind, a.item, a.level, a.label, a.raw_layer) == (
            b.kind, b.item, b.level, b.label, b.raw_layer
        )


def test_executor_caches_stay_bounded_over_fresh_query_ids():
    """A long-lived executor serving ever-fresh query ids must not grow its
    memoized schedules without bound."""
    executor = FatTreeExecutor(8, DATA8)
    limit = FatTreeExecutor._CACHE_LIMIT
    for query in range(3 * limit):
        executor.relative_schedule(query)
    assert len(executor._schedule_cache) <= limit
    # Evictions must not change results: a re-derived schedule is identical.
    again = executor.relative_schedule(1)
    assert [i.raw_layer for i in again] == [
        i.raw_layer for i in executor.relative_schedule(0)
    ]
    # Correctness after heavy cache churn.
    requests = [QueryRequest(500, {1: 1.0}), QueryRequest(501, {2: 1.0})]
    _, outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)


def test_tree_is_clean_raises_before_any_run():
    executor = FatTreeExecutor(8, DATA8)
    with pytest.raises(RuntimeError, match="no execution"):
        executor.tree_is_clean()


def test_shared_swap_dedup_under_custom_interval():
    """At interval 22 (capacity 8) the label-0 migrations of consecutive
    queries land on the same raw layer: they must execute as ONE shared
    sub-QRAM exchange, which the functional result verifies (a double swap
    would undo the exchange and corrupt both queries)."""
    executor = FatTreeExecutor(8, DATA8)
    interval = 22
    migrations = [
        (i.raw_layer, i.label, i.level)
        for i in executor.relative_schedule(0)
        if i.kind is InstructionKind.SWAP_MIGRATE
    ]
    shifted = {(layer + interval, label, level) for layer, label, level in migrations}
    assert shifted & set(migrations), "interval 22 must produce a shared swap"
    requests = [
        QueryRequest(0, {1: 1.0, 6: 1.0}),
        QueryRequest(1, {2: 1.0, 5: 1.0j}),
    ]
    _, outputs = executor.run_pipelined_queries(requests, interval=interval)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert executor.tree_is_clean()


def test_query_result_units_are_consistent():
    """latency_layers is a pure layer count; request-to-finish time is a
    separate field on the request's arrival clock."""
    executor = FatTreeExecutor(8, DATA8)
    requests = [
        QueryRequest(0, {0: 1.0}, request_time=0.0),
        QueryRequest(1, {1: 1.0}, request_time=7.5),
    ]
    summary, _ = executor.run_pipelined_queries(requests, interval=22)
    lifetime = executor.relative_raw_latency()
    for slot, result in enumerate(summary.results):
        assert result.latency_layers == lifetime
        assert result.latency_layers == result.service_layers
        assert result.request_time == requests[slot].request_time
        assert result.request_to_finish == result.finish_layer - requests[slot].request_time
        assert result.queue_delay_layers == result.start_layer - requests[slot].request_time


def test_qram_facade_resources():
    qram = FatTreeQRAM(1024)
    assert qram.qubit_count == 16 * 1024
    assert qram.query_parallelism == 10
    assert qram.num_routers == 2 * 1024 - 2 - 10
    assert qram.raw_query_layers == 99
    assert qram.single_query_latency() == pytest.approx(82.375)
    assert qram.amortized_query_latency() == pytest.approx(8.25)
    assert qram.bandwidth() == pytest.approx(121212.12, rel=1e-4)

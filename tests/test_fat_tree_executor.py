"""Gate-level Fat-Tree executor: functional correctness of pipelined queries."""

import time

import pytest

from repro.core import FatTreeQRAM, QueryRequest
from repro.core.executor import MAX_WINDOW_TERMS, MIGRATION_SKEW, FatTreeExecutor
from repro.core.pipeline import PIPELINE_INTERVAL, query_label
from repro.bucket_brigade.instructions import InstructionKind, lower_instruction
from repro.workloads import random_data, structured_data

DATA8 = [1, 0, 1, 1, 0, 0, 1, 0]


def _tree_ends_clean(executor, requests, interval=None):
    """Replay the window of ``requests`` and check every tree qubit of the
    final state is back in |0>."""
    if interval is None:
        interval = executor.minimum_feasible_interval(len(requests))
    program = executor.window_program(len(requests), interval)
    _, state = program.replay(
        [(request.address_amplitudes, request.initial_bus) for request in requests]
    )
    return program.tree_is_clean(state)


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
    executor = FatTreeExecutor(8, DATA8)
    request = QueryRequest(0, {0: 1, 3: 1j, 6: -1})
    outputs = executor.run_pipelined_queries([request], interval=40)
    assert executor.query_fidelity(request, outputs[0]) == pytest.approx(1.0)
    assert _tree_ends_clean(executor, [request], interval=40)


def test_two_pipelined_queries_are_independent_and_correct():
    executor = FatTreeExecutor(8, DATA8)
    requests = [
        QueryRequest(0, {1: 1.0, 4: -1.0}),
        QueryRequest(1, {2: 1.0, 7: 1.0j}, initial_bus=1),
    ]
    outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert _tree_ends_clean(executor, requests, interval=22)
    assert executor.relative_raw_latency() == 29


def test_three_pipelined_queries_capacity8():
    executor = FatTreeExecutor(8, structured_data(8, "parity"))
    requests = [QueryRequest(i, {i: 1.0, (i + 3) % 8: 1.0}) for i in range(3)]
    outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert executor.window_program(3, 22).total_layers == 2 * 22 + 29


def test_minimum_feasible_interval_bounds():
    executor = FatTreeExecutor(8, DATA8)
    interval = executor.minimum_feasible_interval(2)
    assert PIPELINE_INTERVAL <= interval <= executor.relative_raw_latency()
    # Executing at that interval must be functionally correct.
    requests = [QueryRequest(i, {i: 1.0}) for i in range(2)]
    outputs = executor.run_pipelined_queries(requests, interval=interval)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)


def test_infeasible_intervals_are_refused_at_compile():
    """An explicit interval the conflict search rejects is refused when its
    window compiles, naming the interval and the minimum feasible one;
    feasibility is not monotone (22 passes, 23 does not)."""
    executor = FatTreeExecutor(8, random_data(8, seed=1))
    everywhere = {address: 1.0 for address in range(8)}
    requests = [QueryRequest(q, everywhere) for q in range(2)]
    for interval in (0, 10, 17, 23):
        with pytest.raises(ValueError, match=rf"interval {interval} .*is 22"):
            executor.run_pipelined_queries(requests, interval=interval)
    for interval in (22, 40):
        outputs = executor.run_pipelined_queries(requests, interval=interval)
        for request in requests:
            assert executor.query_fidelity(
                request, outputs[request.query_id]
            ) == pytest.approx(1.0)
    for interval in (1, 10, 17, 23):
        outputs = executor.run_pipelined_queries(requests[:1], interval=interval)
        assert executor.query_fidelity(requests[0], outputs[0]) == pytest.approx(1.0)


def test_capacity4_pipelined_queries():
    data = [0, 1, 1, 0]
    executor = FatTreeExecutor(4, data)
    requests = [QueryRequest(i, {0: 1.0, 3: 1.0}) for i in range(2)]
    outputs = executor.run_pipelined_queries(requests)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert executor.relative_raw_latency() == 19
    assert _tree_ends_clean(executor, requests)


def test_resident_label_trajectory():
    executor = FatTreeExecutor(8, DATA8)
    lifetime = executor.relative_raw_latency()
    labels = [query_label(8, r, MIGRATION_SKEW) for r in range(1, lifetime + 1)]
    assert labels[0] == 0 and labels[-1] == 0
    assert max(labels) == executor.address_width - 1
    assert query_label(8, 0, MIGRATION_SKEW) is None
    assert query_label(8, lifetime + 1, MIGRATION_SKEW) is None


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
    memoized artefacts: registers are named by window slot, so fresh ids
    reuse one compiled program per (occupancy, interval)."""
    executor = FatTreeExecutor(8, DATA8)
    for first in range(0, 600, 2):
        requests = [
            QueryRequest(first, {first % 8: 1.0}),
            QueryRequest(first + 1, {(first + 3) % 8: 1.0, 5: 1.0j}),
        ]
        outputs = executor.run_pipelined_queries(requests, interval=22)
    assert len(executor._program_cache) == 1
    lowered = len(executor._lowered_cache)
    # Correctness after heavy churn, and no growth from more fresh ids.
    requests = [QueryRequest(5000, {1: 1.0}), QueryRequest(5001, {2: 1.0})]
    outputs = executor.run_pipelined_queries(requests, interval=22)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert _tree_ends_clean(executor, requests, interval=22)
    assert len(executor._program_cache) == 1
    assert len(executor._lowered_cache) == lowered


def test_duplicate_query_ids_in_one_window_fail_loudly():
    """Outputs are keyed by query id, so a window naming one id twice is
    refused up front, naming the repeated id."""
    executor = FatTreeExecutor(8, DATA8)
    requests = [
        QueryRequest(4, {1: 1.0}),
        QueryRequest(9, {2: 1.0}),
        QueryRequest(4, {3: 1.0}),
    ]
    with pytest.raises(ValueError, match=r"repeats query ids \[4\]"):
        executor.run_pipelined_queries(requests, interval=22)


def _merged_window_gates(executor, occupancy, interval):
    """The per-window merge the compiled program replaces: every slot's
    schedule shifted by ``slot * interval``, sorted by raw layer, shared
    swaps executed once per layer, each instruction lowered afresh."""
    merged = []
    for slot in range(occupancy):
        for instr in executor.relative_schedule(slot):
            merged.append((instr.raw_layer + slot * interval, instr))
    merged.sort(key=lambda entry: entry[0])
    by_layer = {}
    for layer, instr in merged:
        by_layer.setdefault(layer, []).append(instr)
    gates = []
    for layer in sorted(by_layer):
        executed_swaps = set()
        for instr in by_layer[layer]:
            if instr.kind is InstructionKind.SWAP_MIGRATE:
                key = (instr.label, instr.level)
                if key in executed_swaps:
                    continue
                executed_swaps.add(key)
            gates.extend(
                lower_instruction(
                    instr,
                    executor.namer,
                    executor.address_width,
                    data=executor.data,
                    leaf_label=executor.address_width - 1,
                )
            )
    return gates, max(by_layer)


_PROGRAM_CASES = [
    (capacity, occupancy, None)
    for capacity in (4, 8, 16, 32)
    for occupancy in range(1, capacity.bit_length())
] + [(8, 2, 22), (8, 3, 22)]


@pytest.mark.parametrize("capacity, occupancy, interval", _PROGRAM_CASES)
def test_window_program_equals_the_merged_schedule(capacity, occupancy, interval):
    """Every occupancy at the minimum feasible interval, plus interval 22
    at N = 8 (the shared-swap case): the compiled program is exactly the
    merged, sorted, deduplicated and lowered window."""
    executor = FatTreeExecutor(capacity, structured_data(capacity, "parity"))
    if interval is None:
        interval = executor.minimum_feasible_interval(occupancy)
    program = executor.window_program(occupancy, interval)
    gates, total_layers = _merged_window_gates(executor, occupancy, interval)
    assert list(program.gates) == gates
    assert program.total_layers == total_layers
    namer = executor.namer
    registers = tuple(
        tuple(namer.address_qubit(slot, bit) for bit in range(executor.address_width))
        + (namer.bus_qubit(slot),)
        for slot in range(occupancy)
    )
    assert program.registers == registers
    assert program.layout.qubits == tuple(executor.structure.all_qubits()) + sum(
        registers, ()
    )
    assert executor.window_program(occupancy, interval) is program


def test_programs_compile_once_per_occupancy_over_a_functional_serve(monkeypatch):
    """One functional serve compiles each (occupancy, interval) of each
    shared executor once, however many windows replay it."""
    from repro.schedule_cache import default_registry
    from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec

    compiled = []
    compile_window = FatTreeExecutor._compile_window

    def counting(self, occupancy, interval):
        compiled.append((id(self), occupancy, interval))
        return compile_window(self, occupancy, interval)

    monkeypatch.setattr(FatTreeExecutor, "_compile_window", counting)
    spec = ScenarioSpec(
        name="compile-once",
        fleet=FleetSpec(
            capacity=16, shards=("Fat-Tree", "Fat-Tree"), functional=True
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=60,
            mean_interarrival=4.0,
            addresses_per_query=2,
            seed=5,
        ),
        run=RunSpec(retention="full", workers=0, sanitize=False, profile=False),
    )
    default_registry().clear()
    report = spec.execute()
    default_registry().clear()
    assert len(compiled) == len(set(compiled))
    assert {occupancy for _, occupancy, _ in compiled} == {
        window.batch_size for window in report.windows
    }
    assert len(report.windows) > len(compiled)
    assert all(f == pytest.approx(1.0) for f in (r.fidelity for r in report.served))


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
    outputs = executor.run_pipelined_queries(requests, interval=interval)
    for request in requests:
        assert executor.query_fidelity(request, outputs[request.query_id]) == pytest.approx(1.0)
    assert _tree_ends_clean(executor, requests, interval=interval)


def test_qram_facade_resources():
    qram = FatTreeQRAM(1024)
    assert qram.qubit_count == 16 * 1024
    assert qram.query_parallelism == 10
    assert qram.num_routers == 2 * 1024 - 2 - 10
    assert qram.raw_query_layers == 99
    assert qram.single_query_latency() == pytest.approx(82.375)
    assert qram.amortized_query_latency() == pytest.approx(8.25)
    assert qram.bandwidth() == pytest.approx(121212.12, rel=1e-4)

"""End-to-end integration tests across the whole stack.

These tests tie the core claim of the paper together: the same classical
memory served through BB QRAM, Virtual QRAM and Fat-Tree QRAM returns the
same query results (Eq. (1)), while the architectural metrics preserve the
orderings reported in the evaluation.
"""

import math

import pytest

from repro import BucketBrigadeQRAM, FatTreeQRAM, VirtualQRAM, build_architecture
from repro.core.executor import FatTreeExecutor
from repro.core.query import QueryRequest
from repro.metrics import bandwidth_qubits_per_second
from repro.engine import ClosedLoopClient
from repro.scheduling import QRAMServiceModel, serve_closed_loop
from repro.workloads import random_data, random_address_superposition


@pytest.mark.parametrize("capacity", [4, 8])
def test_all_functional_architectures_agree_on_query_results(capacity):
    data = random_data(capacity, seed=11)
    amplitudes = random_address_superposition(capacity, min(3, capacity), seed=5)
    reference = BucketBrigadeQRAM(capacity, data).query(amplitudes)
    fat_tree = FatTreeQRAM(capacity, data).query(amplitudes)
    virtual = VirtualQRAM(capacity, data).query(amplitudes)

    def as_probabilities(result):
        return {key: abs(value) ** 2 for key, value in result.items()}

    assert as_probabilities(fat_tree) == pytest.approx(as_probabilities(reference))
    assert as_probabilities(virtual) == pytest.approx(as_probabilities(reference))
    # Every (address, bus) pair satisfies bus = data[address].
    for (address, bus) in reference:
        assert bus == data[address]


def test_pipelined_fat_tree_queries_match_sequential_bb_queries():
    capacity = 8
    data = random_data(capacity, seed=3)
    requests = [
        QueryRequest(i, random_address_superposition(capacity, 2, seed=20 + i))
        for i in range(3)
    ]
    executor = FatTreeExecutor(capacity, data)
    outputs = executor.run_pipelined_queries(requests, interval=22)
    bb = BucketBrigadeQRAM(capacity, data)
    for request in requests:
        sequential = bb.query(request.address_amplitudes)
        pipelined = outputs[request.query_id]
        assert {k: abs(v) ** 2 for k, v in pipelined.items()} == pytest.approx(
            {k: abs(v) ** 2 for k, v in sequential.items()}
        )


def test_architecture_orderings_hold_end_to_end():
    capacity = 1024
    n = int(math.log2(capacity))
    fat_tree = build_architecture("Fat-Tree", capacity)
    bb = build_architecture("BB", capacity)
    # Same O(N) qubit group, log N parallel queries: Fat-Tree wins by ~ log N.
    speedup = bb.parallel_query_latency(n) / fat_tree.parallel_query_latency(n)
    assert speedup > n / 2
    # Bandwidth advantage grows with capacity.
    assert bandwidth_qubits_per_second("Fat-Tree", capacity) > 9 * bandwidth_qubits_per_second("BB", capacity)


def test_shared_memory_system_throughput_improves_with_fat_tree():
    """Three QPUs running query/process loops finish much sooner on Fat-Tree."""
    clients = [ClosedLoopClient(i, queries=4, think_layers=10.0) for i in range(3)]
    reports = {}
    for name in ("Fat-Tree", "BB"):
        model = QRAMServiceModel.from_architecture(build_architecture(name, 256))
        reports[name] = serve_closed_loop(model, clients)
    assert reports["Fat-Tree"].overall_depth < reports["BB"].overall_depth
    assert reports["Fat-Tree"].total_queue_delay_layers <= reports["BB"].total_queue_delay_layers


def test_memory_contents_are_respected_everywhere():
    capacity = 8
    data = [0] * capacity
    data[5] = 1
    architectures = [
        FatTreeQRAM(capacity, data),
        BucketBrigadeQRAM(capacity, data),
        VirtualQRAM(capacity, data),
    ]
    for qram in architectures:
        out = qram.query({5: 1.0})
        assert set(out) == {(5, 1)}

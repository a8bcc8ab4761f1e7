"""Baseline architectures and the registry (Sec. 6.1, Table 1)."""

import math

import pytest

from repro.baselines import (
    DistributedBBQRAM,
    DistributedFatTreeQRAM,
    VirtualQRAM,
    architecture_names,
    build_architecture,
)
from repro.workloads import structured_data


def test_registry_contains_all_five_architectures():
    assert architecture_names() == ["Fat-Tree", "BB", "Virtual", "D-Fat-Tree", "D-BB"]
    with pytest.raises(KeyError):
        build_architecture("Unknown", 8)


@pytest.mark.parametrize("name", architecture_names())
def test_common_interface(name):
    qram = build_architecture(name, 64)
    assert qram.capacity == 64
    assert qram.qubit_count > 0
    assert qram.query_parallelism >= 1
    assert qram.single_query_latency() > 0
    assert qram.parallel_query_latency(6) >= qram.amortized_query_latency(6)


def test_table1_qubit_counts():
    n = 10
    capacity = 2**n
    assert build_architecture("Fat-Tree", capacity).qubit_count == 16 * capacity
    assert build_architecture("BB", capacity).qubit_count == 8 * capacity
    assert build_architecture("Virtual", capacity).qubit_count == 16 * capacity
    assert build_architecture("D-Fat-Tree", capacity).qubit_count == 16 * capacity * n
    assert build_architecture("D-BB", capacity).qubit_count == 8 * capacity * n


def test_table1_parallelism():
    capacity = 1024
    assert build_architecture("Fat-Tree", capacity).query_parallelism == 10
    assert build_architecture("BB", capacity).query_parallelism == 1
    assert build_architecture("Virtual", capacity).query_parallelism == 10
    assert build_architecture("D-Fat-Tree", capacity).query_parallelism == 100
    assert build_architecture("D-BB", capacity).query_parallelism == 10


def test_virtual_qram_structure_and_latency():
    """Table 1: Virtual QRAM latency tracks 4n^2 + 4.0625n - 4n log2(n)."""
    virtual = VirtualQRAM(1024)
    assert virtual.num_pages * virtual.page_size == 1024
    assert virtual.page_size >= 2
    # Latency grows ~ log^2 N and exceeds both BB and Fat-Tree.
    bb = build_architecture("BB", 1024)
    ft = build_architecture("Fat-Tree", 1024)
    assert virtual.single_query_latency() > bb.single_query_latency()
    assert virtual.single_query_latency() > ft.single_query_latency()
    closed_form = VirtualQRAM.paper_closed_form_latency(1024)
    assert closed_form == pytest.approx(
        4 * 100 + 4.0625 * 10 - 40 * math.log2(10), rel=1e-12
    )
    # The implemented configuration is within ~15% of the closed form
    # (difference comes from rounding the page count to a power of two).
    assert virtual.single_query_latency() == pytest.approx(closed_form, rel=0.15)


def test_virtual_qram_functional_query():
    data = structured_data(16, "alternating")
    virtual = VirtualQRAM(16, data)
    out = virtual.query({1: 1.0, 9: 1.0, 4: 1.0})
    assert set(out) == {(1, 1), (9, 1), (4, 0)}
    total = sum(abs(a) ** 2 for a in out.values())
    assert total == pytest.approx(1.0)


def test_virtual_rejects_bad_page_configuration():
    with pytest.raises(ValueError):
        VirtualQRAM(16, num_pages=3)
    with pytest.raises(ValueError):
        VirtualQRAM(4, num_pages=4)


def test_distributed_copies_hold_the_memory_image():
    data = [0] * 16
    data[3] = 1
    dbb = DistributedBBQRAM(16, data)
    assert dbb.num_copies == 4
    assert all(copy.data == data for copy in dbb.copies)


def test_distributed_latency_spreads_queries():
    dft = DistributedFatTreeQRAM(1024)
    assert dft.parallel_query_latency(10) == pytest.approx(82.375)
    assert dft.amortized_query_latency(10) == pytest.approx(8.2375)
    dbb = DistributedBBQRAM(1024)
    assert dbb.parallel_query_latency(10) == pytest.approx(80.125)
    assert dbb.bandwidth() == pytest.approx(10 * 1e6 / 80.125)


def test_fat_tree_beats_bb_for_parallel_queries_at_equal_qubits():
    """The headline comparison: same O(N) qubits, log N queries."""
    for capacity in (64, 256, 1024):
        ft = build_architecture("Fat-Tree", capacity)
        bb = build_architecture("BB", capacity)
        virtual = build_architecture("Virtual", capacity)
        n = int(math.log2(capacity))
        assert ft.parallel_query_latency(n) < bb.parallel_query_latency(n)
        assert ft.parallel_query_latency(n) < virtual.parallel_query_latency(n)
        # The gap grows with capacity (asymptotic advantage).
    gap_small = build_architecture("BB", 64).parallel_query_latency(6) / \
        build_architecture("Fat-Tree", 64).parallel_query_latency(6)
    gap_large = build_architecture("BB", 1024).parallel_query_latency(10) / \
        build_architecture("Fat-Tree", 1024).parallel_query_latency(10)
    assert gap_large > gap_small

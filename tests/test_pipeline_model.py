"""Architectural pipeline model (Fig. 6, Table 1 latencies)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import (
    FatTreePipeline,
    fat_tree_amortized_query_latency,
    fat_tree_parallel_query_latency,
    fat_tree_raw_query_layers,
    fat_tree_single_query_latency,
)


def test_fig6_capacity8_numbers():
    pipeline = FatTreePipeline(8, num_queries=3)
    assert pipeline.query_raw_latency == 29
    timelines = pipeline.timelines()
    assert [t.finish_layer for t in timelines] == [29, 39, 49]
    assert [t.data_retrieval_layer for t in timelines] == [15, 25, 35]
    assert pipeline.total_raw_layers == 49
    pipeline.verify_no_conflicts()


def test_single_query_weighted_latency_table1():
    assert fat_tree_single_query_latency(8) == pytest.approx(8.25 * 3 - 0.125)
    assert fat_tree_single_query_latency(1024) == pytest.approx(82.375)


def test_parallel_and_amortized_latency_table1():
    assert fat_tree_parallel_query_latency(1024, 10) == pytest.approx(16.5 * 10 - 8.375)
    assert fat_tree_amortized_query_latency(1024) == pytest.approx(8.25)
    assert FatTreePipeline(1024).interval_weighted_cost() == pytest.approx(8.25)


def test_bandwidth_is_capacity_independent():
    values = {FatTreePipeline(2**n).bandwidth() for n in range(2, 11)}
    assert len({round(v, 6) for v in values}) == 1
    assert values.pop() == pytest.approx(1e6 / 8.25)


def test_latency_ratio_vs_bb_for_n3():
    # Fig. 6 caption: 29 raw layers vs 25 for BB QRAM.
    from repro.bucket_brigade.schedule import bb_raw_query_layers

    assert fat_tree_raw_query_layers(8) == 29
    assert bb_raw_query_layers(8) == 25


def test_swap_cadence_and_types():
    """Fig. 6 / Alg. 1: swaps fall every 5 raw layers, alternating SWAP-I/II."""
    pipeline = FatTreePipeline(8, num_queries=2)
    swaps = pipeline.swap_layers()
    assert swaps[0] == 5 and all(layer % 5 == 0 for layer in swaps)
    assert pipeline.swap_type(5) == "SWAP-I"
    assert pipeline.swap_type(10) == "SWAP-II"
    assert pipeline.swap_type(7) is None


def test_label_trajectory_shape():
    pipeline = FatTreePipeline(8, num_queries=1)
    labels = [pipeline.label_at(0, layer) for layer in range(1, 30)]
    assert labels[0] == 0
    assert max(labels) == 2
    assert labels[-1] == 0
    # Monotone up, plateau, monotone down.
    peak = labels.index(2)
    assert all(b >= a for a, b in zip(labels[:peak], labels[1:peak + 1]))
    assert all(b <= a for a, b in zip(labels[peak:], labels[peak + 1:]))
    assert pipeline.label_at(0, 100) is None


def test_bandwidth_honours_start_interval():
    """Regression: a pipeline with a slower admission interval must report
    proportionally less bandwidth, not the default 8.25-layer value."""
    default = FatTreePipeline(8)
    slow = FatTreePipeline(8, start_interval=15)
    assert default.interval_weighted_cost() == pytest.approx(8.25)
    assert default.bandwidth() == pytest.approx(1e6 / 8.25)
    # 15 raw layers = 12 full + 3 fast = 12.375 weighted.
    assert slow.interval_weighted_cost() == pytest.approx(12.375)
    assert slow.bandwidth() == pytest.approx(1e6 / 12.375)
    assert slow.bandwidth() < default.bandwidth()
    # Intervals that are not cadence multiples amortize fractionally: 12 raw
    # layers contain 12/5 = 2.4 fast layers on average (9.9 weighted), never
    # the floor-rounded 10.25.
    uneven = FatTreePipeline(8, start_interval=12)
    assert uneven.interval_weighted_cost() == pytest.approx(9.9)
    # Cost scales linearly with the interval: no rounding steps.
    assert uneven.interval_weighted_cost() == pytest.approx(12 * 8.25 / 10)


def test_qram_amortized_latency_honours_num_queries():
    from repro.core.qram import FatTreeQRAM

    qram = FatTreeQRAM(1024)
    # Default: steady-state value of Table 1.
    assert qram.amortized_query_latency() == pytest.approx(8.25)
    # Explicit finite horizon: includes the pipeline-fill cost and converges
    # to the steady state from above.
    assert qram.amortized_query_latency(1) == pytest.approx(qram.single_query_latency())
    amortized = [qram.amortized_query_latency(k) for k in (1, 2, 5, 50, 5000)]
    assert all(b < a for a, b in zip(amortized, amortized[1:]))
    assert amortized[-1] == pytest.approx(8.25, rel=1e-2)


def test_interval_below_paper_value_rejected():
    with pytest.raises(ValueError):
        FatTreePipeline(8, num_queries=2, start_interval=9)
    with pytest.raises(ValueError):
        FatTreePipeline(8, num_queries=0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), queries=st.integers(min_value=1, max_value=12))
def test_no_label_conflicts_for_any_size(n, queries):
    """Property: the Fig. 6 'no conflicting colors' invariant holds for every
    capacity and any number of back-to-back queries."""
    pipeline = FatTreePipeline(2**n, num_queries=queries)
    pipeline.verify_no_conflicts()
    assert pipeline.query_raw_latency == 10 * n - 1
    assert pipeline.total_raw_layers == 10 * (queries - 1) + 10 * n - 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=10))
def test_weighted_identities(n):
    """Raw layers = 8n full + (2n-1) fast; weighted = 8.25n - 0.125."""
    capacity = 2**n
    assert fat_tree_raw_query_layers(capacity) == 8 * n + (2 * n - 1)
    assert fat_tree_single_query_latency(capacity) == pytest.approx(
        8 * n + (2 * n - 1) * 0.125
    )

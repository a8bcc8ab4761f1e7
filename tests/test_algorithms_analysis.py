"""Parallel algorithms, synthetic workloads, depth model and analysis outputs
(Sec. 6.3, 7.3, 7.4 — Figs. 9, 10)."""

import math

import pytest

from repro.algorithms import (
    AlgorithmProfile,
    algorithm_depth,
    fig9_depths,
    grover_iterations,
    hamiltonian_query_count,
    hamiltonian_simulation_profile,
    ksum_queries,
    parallel_grover_profile,
    parallel_ksum_profile,
    parallel_qsp_profile,
    qsp_query_count,
    synthetic_sweep,
)
from repro.algorithms.grover import run_grover_search
from repro.algorithms.synthetic import SyntheticAlgorithm, sweep_to_grids
from repro.analysis import (
    generate_fig2_milestones,
    generate_fig6_pipeline,
    generate_fig7_schedule,
    generate_fig8_bandwidth,
    generate_fig10_synthetic,
    generate_fig11_qec,
    generate_table5,
)
from repro.baselines import build_architecture
from repro.fidelity import table3_rows, table4_comparison
from repro.metrics import table1_rows
from repro.workloads import (
    query_trace,
    random_address_superposition,
    random_data,
    structured_data,
    uniform_superposition,
)


def test_profiles_are_consistent():
    grover = parallel_grover_profile(1024)
    assert grover.parallel_streams == 10
    assert grover.queries_per_stream == grover_iterations(1024 // 10)
    ksum = parallel_ksum_profile(1024)
    assert ksum.queries_per_stream == ksum_queries(1024, 2, 10)
    qsp = parallel_qsp_profile(1024, degree=30)
    assert qsp.queries_per_stream == qsp_query_count(30, 10) == 90
    ham = hamiltonian_simulation_profile(1024)
    assert ham.parallel_streams == 10
    assert ham.queries_per_stream == hamiltonian_query_count(1024, 10)
    with pytest.raises(ValueError):
        AlgorithmProfile("bad", 1024, 0, 1)


def test_grover_iteration_count():
    assert grover_iterations(1024) == round(math.pi / 4 * 32)
    with pytest.raises(ValueError):
        grover_iterations(0)


def test_grover_search_finds_marked_item():
    data = structured_data(64, "single")     # only address 0 marked
    best, probability = run_grover_search(data)
    assert best == 0
    assert probability > 0.9


def test_algorithm_depth_favours_fat_tree():
    profile = parallel_grover_profile(256, processing_layers=4.0)
    ft_depth = algorithm_depth(profile, build_architecture("Fat-Tree", 256))
    bb_depth = algorithm_depth(profile, build_architecture("BB", 256))
    assert ft_depth < bb_depth
    assert bb_depth / ft_depth > 3


def test_fig9_depths_and_reduction():
    depths = fig9_depths(256, architectures=("Fat-Tree", "BB", "Virtual"))
    assert set(depths) == {"Grover", "k-Sum", "Hamiltonian Sim.", "QSP"}
    for row in depths.values():
        assert row["Fat-Tree"] < row["BB"]
        assert row["Fat-Tree"] < row["Virtual"]
        assert 2.0 < row["BB"] / row["Fat-Tree"] <= 12.0


def test_synthetic_sweep_grids():
    qram = build_architecture("Fat-Tree", 256)
    points = synthetic_sweep(qram, [0.0, 1.0], [1, 5], rounds=3)
    assert len(points) == 4
    ratios, counts, depth, utilization = sweep_to_grids(points)
    assert ratios == [0.0, 1.0] and counts == [1, 5]
    assert depth[0][1] >= depth[0][0]          # more algorithms, more depth
    assert all(0 <= u <= 1 for row in utilization for u in row)
    clients = SyntheticAlgorithm(rounds=3, processing_ratio=1.0).clients(2, 10.0)
    assert len(clients) == 2 and clients[0].think_layers == pytest.approx(10.0)
    assert clients[0].queries == 3


def test_fig10_bb_hits_bandwidth_bound_faster_than_fat_tree():
    grids = generate_fig10_synthetic(
        256, processing_ratios=(0.5,), parallel_counts=(1, 10), rounds=3
    )
    bb_depth = grids["BB"]["overall_depth"][0]
    ft_depth = grids["Fat-Tree"]["overall_depth"][0]
    bb_slowdown = bb_depth[1] / bb_depth[0]
    ft_slowdown = ft_depth[1] / ft_depth[0]
    assert bb_slowdown > 3.0                   # memory bandwidth bound
    assert ft_slowdown < bb_slowdown           # Fat-Tree absorbs the load


def test_workload_generators():
    data = random_data(64, seed=1)
    assert len(data) == 64 and set(data) <= {0, 1}
    assert structured_data(8, "alternating") == [0, 1, 0, 1, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        structured_data(8, "nope")
    amps = uniform_superposition(16)
    assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0)
    sparse = random_address_superposition(64, 4, seed=2)
    assert len(sparse) == 4
    assert sum(abs(a) ** 2 for a in sparse.values()) == pytest.approx(1.0)
    trace = query_trace(16, 5)
    assert len(trace) == 5 and trace[3].query_id == 3


def test_analysis_tables_and_figures():
    assert len(table1_rows(64)) == 5
    assert table3_rows()[0]["capacity"] == 8
    assert "Fat-Tree" in table4_comparison()
    assert len(generate_table5(64)) == 2
    milestones = generate_fig2_milestones()
    assert milestones["query_complete"] == 25
    fig6 = generate_fig6_pipeline()
    assert fig6["finish_layers"] == [29, 39, 49]
    fig7 = generate_fig7_schedule(rounds=2)
    assert fig7["queries_served"] == 6
    fig8 = generate_fig8_bandwidth(capacities=(4, 16, 64))
    assert len(fig8["Fat-Tree"]) == 3
    fig11 = generate_fig11_qec(tree_depths=(2, 4))
    assert len(fig11["Fat-Tree d=3"]) == 2


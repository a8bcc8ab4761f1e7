"""Noise resilience, virtual distillation and QEC (Sec. 8, Tables 3-5, Fig. 11)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fidelity import (
    QECCode,
    bb_query_infidelity,
    distilled_infidelity,
    encoded_infidelity,
    fat_tree_query_infidelity,
    fig11_series,
    generic_circuit_infidelity,
    logical_error_rate,
    table3_rows,
    table4_comparison,
    table5_rows,
)
from repro.fidelity.distillation import (
    density_matrix_distillation,
)
from repro.fidelity.qec import max_depth_below_infidelity
from repro.hardware.parameters import HardwareParameters


def test_table3_values():
    rows = {r["capacity"]: r for r in table3_rows()}
    assert rows[8]["infidelity_eps0_0.001"] == pytest.approx(0.045)
    assert rows[16]["infidelity_eps0_0.001"] == pytest.approx(0.08)
    assert rows[32]["infidelity_eps0_0.001"] == pytest.approx(0.125)
    assert rows[64]["infidelity_eps0_0.001"] == pytest.approx(0.18)
    assert rows[8]["infidelity_eps0_0.0001"] == pytest.approx(0.0045)
    assert rows[64]["infidelity_eps0_1e-05"] == pytest.approx(0.0018)


def test_fat_tree_vs_bb_infidelity_constant_factor():
    params = HardwareParameters(
        cswap_error=0.002, inter_node_swap_error=0.002, intra_node_swap_error=0.001
    )
    for capacity in (8, 64, 1024):
        ft = fat_tree_query_infidelity(capacity, params)
        bb = bb_query_infidelity(capacity, params)
        assert ft == pytest.approx(1.25 * bb)     # the 0.25x overhead of Sec. 8.1


def test_generic_circuit_degrades_exponentially():
    params = HardwareParameters(
        cswap_error=1e-5, inter_node_swap_error=1e-5, intra_node_swap_error=5e-6
    )
    gc = [generic_circuit_infidelity(2**n, params) for n in (4, 8, 12)]
    qram = [fat_tree_query_infidelity(2**n, params) for n in (4, 8, 12)]
    assert gc[2] / gc[1] == pytest.approx(2**4, rel=1e-6)
    assert qram[2] / qram[1] < 3                 # polynomial vs exponential


def test_table4_virtual_distillation():
    params = HardwareParameters(
        cswap_error=0.002, inter_node_swap_error=0.002, intra_node_swap_error=0.001
    )
    table = table4_comparison(16, params)
    ft = table["Fat-Tree"]
    bb = table["2 BB"]
    assert ft["qubits"] == bb["qubits"] == 256
    assert ft["copies"] == 4 and bb["copies"] == 2
    assert ft["fidelity_before"] == pytest.approx(0.84)
    assert bb["fidelity_before"] == pytest.approx(0.872)
    assert ft["fidelity_after"] == pytest.approx(0.9993, abs=5e-4)
    assert bb["fidelity_after"] == pytest.approx(0.984, abs=1e-3)
    assert ft["fidelity_after"] > bb["fidelity_after"]


def test_distillation_against_exact_density_matrix():
    ideal = np.zeros(8)
    ideal[3] = 1.0
    for eps in (0.05, 0.16):
        for copies in (2, 3, 4):
            # Rank-1 error: the exact density-matrix computation reproduces
            # the closed-form expression.
            exact = 1.0 - density_matrix_distillation(ideal, eps, copies, error_rank=1)
            closed = distilled_infidelity(eps, copies, exact=True)
            assert exact == pytest.approx(closed, rel=1e-9, abs=1e-12)
            # Spreading the error over more orthogonal states only helps, so
            # the paper's eps^k figure is an upper bound on the infidelity.
            spread = 1.0 - density_matrix_distillation(ideal, eps, copies, error_rank=5)
            assert spread <= closed + 1e-12
            assert distilled_infidelity(eps, copies) <= eps


def test_distillation_input_validation():
    with pytest.raises(ValueError):
        distilled_infidelity(1.5, 2)
    with pytest.raises(ValueError):
        distilled_infidelity(0.1, 0)
    assert distilled_infidelity(0.1, 1) == pytest.approx(0.1)


def test_logical_error_rate_scaling():
    assert logical_error_rate(1e-3, 1) == pytest.approx(1e-3)
    d3 = logical_error_rate(1e-3, 3)
    d5 = logical_error_rate(1e-3, 5)
    assert d5 < d3 < 1e-2
    assert d5 / d3 == pytest.approx(0.1, rel=1e-6)


def test_fig11_series_shapes():
    series = fig11_series(tree_depths=(2, 6, 10, 14))
    assert set(series) >= {
        "Fat-Tree d=1", "Fat-Tree d=3", "Fat-Tree d=5",
        "BB d=1", "GC d=1", "GC d=5", "tree_depth",
    }
    # QEC reduces infidelity at every depth.
    for architecture in ("Fat-Tree", "BB", "GC"):
        no_qec = series[f"{architecture} d=1"]
        d5 = series[f"{architecture} d=5"]
        assert all(b <= a for a, b in zip(no_qec, d5))
    # The generic circuit is the worst at large depth.
    assert series["GC d=3"][-1] >= series["Fat-Tree d=3"][-1]
    assert series["GC d=3"][-1] >= series["BB d=3"][-1]


def test_qec_lets_qram_run_deeper_than_generic_circuits():
    qram_depth = max_depth_below_infidelity("Fat-Tree", 3, 5e-3)
    gc_depth = max_depth_below_infidelity("GC", 3, 5e-3)
    assert qram_depth > gc_depth


def test_qec_code_and_table5():
    code = QECCode(physical_qubits=5, distance=3, syndrome_depth=4)
    with pytest.raises(ValueError):
        QECCode(physical_qubits=3, distance=5)
    rows = table5_rows(1024, code)
    noisy, encoded = rows
    assert noisy["physical_qubits"] == 1024
    assert encoded["physical_qubits"] == 5 * 1024
    assert noisy["logical_query_parallelism"] == 2     # floor(10 / 5)
    assert encoded["logical_query_parallelism"] == 1
    assert noisy["logical_query_latency"] == 4 * 10 + 5
    assert encoded["logical_query_latency"] == 4 * 10


def test_encoded_infidelity_unknown_architecture():
    with pytest.raises(KeyError):
        encoded_infidelity("Foo", 16, 3)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), eps_exp=st.integers(min_value=3, max_value=6))
def test_infidelity_bounds_are_monotone_and_clipped(n, eps_exp):
    eps = 10.0 ** (-eps_exp)
    params = HardwareParameters(
        cswap_error=eps, inter_node_swap_error=eps, intra_node_swap_error=eps / 2
    )
    value = fat_tree_query_infidelity(2**n, params)
    assert 0.0 <= value <= 1.0
    if n >= 2:
        smaller = fat_tree_query_infidelity(2 ** (n - 1), params)
        assert value >= smaller


def test_encoded_infidelity_distance_one_is_unencoded_bound():
    """Regression: d=1 must be an exact passthrough to the bare Sec. 8.1
    bounds (a dead `scale` computation used to shadow this intent)."""
    params = HardwareParameters(
        cswap_error=2e-3, inter_node_swap_error=2e-3, intra_node_swap_error=1e-3
    )
    for capacity in (8, 64, 1024):
        assert encoded_infidelity("Fat-Tree", capacity, 1, params) == (
            fat_tree_query_infidelity(capacity, params)
        )
        assert encoded_infidelity("BB", capacity, 1, params) == (
            bb_query_infidelity(capacity, params)
        )
        assert encoded_infidelity("GC", capacity, 1, params) == (
            generic_circuit_infidelity(capacity, params)
        )


def test_encoded_parameters_passthrough_and_scaling():
    from repro.fidelity import encoded_parameters

    params = HardwareParameters(
        cswap_error=1e-4, inter_node_swap_error=1e-4, intra_node_swap_error=5e-5
    )
    assert encoded_parameters(params, 1) is params
    logical = encoded_parameters(params, 3)
    # Below threshold (1e-4 << 1e-2) the logical rates improve on the
    # physical ones; gate times are untouched.
    assert logical.cswap_error == pytest.approx(1e-5)
    assert logical.cswap_error < params.cswap_error
    assert logical.intra_node_swap_error < params.intra_node_swap_error
    assert logical.cswap_time_us == params.cswap_time_us

"""Tables 1-2 metrics and the Fig. 8 bandwidth scaling."""

import math

import pytest

from repro.metrics import (
    bandwidth_qubits_per_second,
    bandwidth_scaling,
    classical_memory_swap_budget_us,
    latency_summary,
    resource_estimate,
    spacetime_volume_per_query,
    table1_rows,
    table2_rows,
)
from repro.baselines.registry import architecture_names
from repro.metrics.latency import closed_form_latency


def test_table1_rows_complete():
    rows = table1_rows(1024)
    assert [r["architecture"] for r in rows] == ["Fat-Tree", "BB", "Virtual", "D-Fat-Tree", "D-BB"]
    by_name = {r["architecture"]: r for r in rows}
    assert by_name["Fat-Tree"]["qubits"] == 16 * 1024
    assert by_name["Fat-Tree"]["single_query_latency"] == pytest.approx(82.375)
    assert by_name["Fat-Tree"]["parallel_query_latency"] == pytest.approx(156.625)
    assert by_name["Fat-Tree"]["amortized_query_latency"] == pytest.approx(8.25)
    assert by_name["BB"]["parallel_query_latency"] == pytest.approx(801.25)
    assert by_name["D-BB"]["qubits"] == 8 * 1024 * 10


def test_model_latencies_match_closed_forms():
    """Table 1: the architecture models reproduce the closed-form latencies.

    Every registered architecture with a closed form is compared, so a new
    ``closed_form_latency`` branch cannot go untested.
    """
    compared = set()
    for name in architecture_names():
        for capacity in (64, 1024):
            try:
                closed = closed_form_latency(name, capacity)
            except KeyError:
                continue
            compared.add(name)
            model = latency_summary(name, capacity)
            assert model.single_query == pytest.approx(closed.single_query)
            assert model.parallel_queries == pytest.approx(closed.parallel_queries)
            assert model.amortized == pytest.approx(closed.amortized)
    assert compared == {"Fat-Tree", "BB", "D-BB"}


def test_resource_estimates():
    estimate = resource_estimate("Fat-Tree", 1024)
    assert estimate.routers == 2 * 1024 - 2 - 10
    assert estimate.qubit_group == "O(N)"
    assert resource_estimate("D-BB", 1024).qubit_group == "O(N log N)"
    assert resource_estimate("BB", 1024).routers == 1023


def test_table2_values_match_paper():
    rows = {r["architecture"]: r for r in table2_rows(1024)}
    assert rows["Fat-Tree"]["bandwidth_qubits_per_sec"] == pytest.approx(1.2121e5, rel=1e-3)
    assert rows["Fat-Tree"]["spacetime_volume_per_query"] == pytest.approx(132 * 1024)
    assert rows["Fat-Tree"]["memory_swap_budget_us"] == pytest.approx(8.25)
    assert rows["BB"]["spacetime_volume_per_query"] == pytest.approx(64 * 1024 * 10 + 1024)
    assert rows["BB"]["memory_swap_budget_us"] == pytest.approx(80.125)
    assert rows["D-BB"]["bandwidth_qubits_per_sec"] == pytest.approx(10 * 1e6 / 80.125)
    assert rows["D-Fat-Tree"]["bandwidth_qubits_per_sec"] == pytest.approx(1.2121e6, rel=1e-3)
    assert rows["D-Fat-Tree"]["spacetime_volume_per_query"] == pytest.approx(132 * 1024)
    assert rows["D-Fat-Tree"]["memory_swap_budget_us"] == pytest.approx(8.25)


def test_fat_tree_bandwidth_independent_of_capacity():
    capacities = [4, 16, 64, 256, 1024]
    series = bandwidth_scaling(capacities, ["Fat-Tree", "BB", "Virtual"])
    ft = series["Fat-Tree"]
    assert all(v == pytest.approx(ft[0]) for v in ft)
    # BB bandwidth decays with capacity; Virtual decays overall (small local
    # non-monotonicities come from rounding the page count to a power of two).
    assert series["BB"] == sorted(series["BB"], reverse=True)
    assert series["Virtual"][0] > series["Virtual"][-1]
    # Fat-Tree dominates both at every capacity in the O(N) group.
    for i in range(len(capacities)):
        assert ft[i] > series["BB"][i]
        assert ft[i] > series["Virtual"][i]


def test_swap_budget_ordering():
    # Fat-Tree requires the fastest classical memory swapping (Table 2).
    budget_ft = classical_memory_swap_budget_us("Fat-Tree", 1024)
    budget_bb = classical_memory_swap_budget_us("BB", 1024)
    budget_virtual = classical_memory_swap_budget_us("Virtual", 1024)
    assert budget_ft < budget_bb < budget_virtual


def test_spacetime_volume_ordering():
    # Fat-Tree needs asymptotically less space-time volume per query.
    for capacity in (64, 1024):
        ft = spacetime_volume_per_query("Fat-Tree", capacity)
        bb = spacetime_volume_per_query("BB", capacity)
        virtual = spacetime_volume_per_query("Virtual", capacity)
        assert ft < bb and ft < virtual
    ratio_small = spacetime_volume_per_query("BB", 64) / spacetime_volume_per_query("Fat-Tree", 64)
    ratio_large = spacetime_volume_per_query("BB", 1024) / spacetime_volume_per_query("Fat-Tree", 1024)
    assert ratio_large > ratio_small      # gap grows ~ log N


def test_bandwidth_with_wider_bus():
    single = bandwidth_qubits_per_second("Fat-Tree", 256)
    double = bandwidth_qubits_per_second("Fat-Tree", 256, bus_width=2)
    assert double == pytest.approx(2 * single)


# ------------------------------------------------ fidelity aggregation edges
def _served(query_id, fidelity=None, min_fidelity=None, predicted=None,
            tenant=0, shard=0, finish=10.0):
    from repro.metrics import ServedQuery

    return ServedQuery(
        query_id=query_id,
        tenant=tenant,
        shard=shard,
        request_time=0.0,
        admit_layer=1.0,
        start_layer=1.0,
        finish_layer=finish,
        fidelity=fidelity,
        predicted_fidelity=predicted,
        min_fidelity=min_fidelity,
    )


def _window(shard=0, total=10.0):
    from repro.metrics import WindowRecord

    return WindowRecord(
        shard=shard, admit_layer=0.0, batch_size=1, interval=0, total_layers=total
    )


def test_all_none_fidelity_records_summarize_to_none():
    """Hand-built timing-only records without fidelities must not poison the
    aggregates: fidelity summaries stay None, everything else computes."""
    from repro.metrics import summarize_service

    stats = summarize_service(
        [_served(0), _served(1)], [_window()],
    )
    assert stats.mean_fidelity is None
    assert stats.min_fidelity is None
    assert stats.fidelity_slo_misses == 0
    assert stats.fidelity_slo_miss_rate == 0.0
    assert stats.per_tenant[0].mean_fidelity is None
    assert stats.per_shard[0].mean_fidelity is None
    assert stats.per_backend[""].mean_fidelity is None


def test_mixed_none_and_float_fidelities_average_the_floats():
    from repro.metrics import summarize_service

    stats = summarize_service(
        [_served(0, fidelity=0.9), _served(1), _served(2, fidelity=0.7)],
        [_window()],
    )
    assert stats.mean_fidelity == pytest.approx(0.8)
    assert stats.min_fidelity == pytest.approx(0.7)


def test_fidelity_slo_miss_falls_back_to_observed_fidelity():
    """Without a prediction the observed fidelity drives the miss check."""
    from repro.metrics import summarize_service

    served = [
        _served(0, fidelity=0.8, min_fidelity=0.9),            # miss (observed)
        _served(1, fidelity=0.8, predicted=0.95, min_fidelity=0.9),  # met
        _served(2, min_fidelity=0.9),                          # unknowable: no miss
    ]
    stats = summarize_service(served, [_window()])
    assert stats.fidelity_slo_misses == 1
    assert stats.fidelity_slo_miss_rate == pytest.approx(1.0 / 3.0)


def test_rejected_counts_invariant_never_negative():
    """rejected_queries == len(rejected) - shed for every reason mix."""
    from repro.metrics import (
        REJECT_DEADLINE_EXPIRED,
        REJECT_FIDELITY,
        REJECT_QUEUE_FULL,
        RejectedQuery,
        summarize_service,
    )

    def reject(query_id, reason, tenant=0):
        return RejectedQuery(
            query_id=query_id, tenant=tenant, shard=0, time=1.0, reason=reason
        )

    mixes = [
        [],
        [reject(10, REJECT_DEADLINE_EXPIRED), reject(11, REJECT_DEADLINE_EXPIRED)],
        [reject(10, REJECT_QUEUE_FULL), reject(11, REJECT_DEADLINE_EXPIRED)],
        [reject(10, REJECT_FIDELITY), reject(11, REJECT_DEADLINE_EXPIRED),
         reject(12, REJECT_QUEUE_FULL)],
    ]
    for rejected in mixes:
        stats = summarize_service(
            [_served(0, fidelity=1.0)], [_window()], rejected=rejected
        )
        shed = sum(1 for r in rejected if r.reason == REJECT_DEADLINE_EXPIRED)
        assert stats.rejected_queries == len(rejected) - shed
        assert stats.rejected_queries >= 0
        assert stats.shed_queries == shed
        assert stats.offered_queries == 1 + len(rejected)
        assert stats.fidelity_rejected_queries == sum(
            1 for r in rejected if r.reason == REJECT_FIDELITY
        )


def test_all_fidelity_rejected_tenant_appears_in_per_tenant_stats():
    """A tenant whose whole demand was refused for fidelity still shows up,
    mirroring the all-shed-tenant behaviour for deadlines."""
    from repro.metrics import REJECT_FIDELITY, RejectedQuery, summarize_service

    rejected = [
        RejectedQuery(query_id=5, tenant=7, shard=0, time=0.0,
                      reason=REJECT_FIDELITY, min_fidelity=0.999)
    ]
    stats = summarize_service([_served(0, fidelity=1.0)], [_window()],
                              rejected=rejected)
    assert 7 in stats.per_tenant
    assert stats.per_tenant[7].queries == 0
    assert stats.per_tenant[7].fidelity_slo_misses == 1
    assert stats.per_tenant[7].fidelity_slo_miss_rate == 1.0

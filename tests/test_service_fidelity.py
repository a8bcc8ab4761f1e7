"""End-to-end fidelity-aware serving: mixed bare + QEC-encoded fleets.

The acceptance scenario of the fidelity subsystem: a replicated fleet with
one bare and one ``distance=3`` encoded Fat-Tree replica serves three
tenants with different ``min_fidelity`` SLOs, under deadline shedding.
Every count below is deterministic (fixed trace, fixed placement rules).
"""

import pytest

from repro import QRAMService, QueryRequest, ServiceEngine, TraceSource
from repro.hardware.parameters import TABLE3_PARAMETERS
from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
)

CAPACITY = 16
PARAMS = TABLE3_PARAMETERS[1e-4]     # below threshold: d=3 beats bare


def _mixed_fleet() -> QRAMService:
    return QRAMService(
        CAPACITY,
        num_shards=2,
        functional=False,
        architectures=["Fat-Tree", "Fat-Tree@d3"],
        placement="shortest-queue",
        parameters=PARAMS,
    )


def _trace(service: QRAMService) -> list[QueryRequest]:
    """Three tenants: best-effort (0), achievable-on-encoded SLO (1) and an
    infeasible SLO (2), plus one best-effort straggler with a hopeless
    deadline that must be shed."""
    bare = service.shards[0].predicted_query_fidelity()
    encoded = service.shards[1].predicted_query_fidelity()
    assert bare < 0.995 < encoded < 0.99999
    requests = []
    for i in range(9):
        tenant = i % 3
        requests.append(
            QueryRequest(
                query_id=i,
                address_amplitudes={i % CAPACITY: 1.0},
                request_time=float(10 * i),
                qpu=tenant,
                min_fidelity={0: None, 1: 0.995, 2: 0.99999}[tenant],
            )
        )
    requests.append(
        QueryRequest(
            query_id=9,
            address_amplitudes={9: 1.0},
            request_time=0.0,
            qpu=0,
            deadline=0.0,       # expires the instant it arrives
        )
    )
    return requests


def test_mixed_encoded_fleet_serves_fidelity_slos_end_to_end():
    service = _mixed_fleet()
    requests = _trace(service)
    report = ServiceEngine(service, shed_expired=True).run(TraceSource(requests))
    stats = report.stats

    # Deterministic refusal accounting: tenant 2's three requests are
    # fidelity-infeasible on every replica, the straggler is shed.
    fidelity_rejects = [r for r in report.rejected if r.reason == REJECT_FIDELITY]
    shed = [r for r in report.rejected if r.reason == REJECT_DEADLINE_EXPIRED]
    assert sorted(r.query_id for r in fidelity_rejects) == [2, 5, 8]
    assert all(r.tenant == 2 for r in fidelity_rejects)
    assert [r.query_id for r in shed] == [9]
    assert stats.offered_queries == 10
    assert stats.total_queries == 6
    assert stats.rejected_queries == 3           # == len(rejected) - shed
    assert stats.fidelity_rejected_queries == 3
    assert stats.shed_queries == 1
    assert stats.rejected_queries == len(report.rejected) - stats.shed_queries >= 0

    # Every served slot carries a non-None predicted fidelity.
    for record in report.served:
        assert record.fidelity is not None
        assert record.predicted_fidelity is not None
        assert 0.0 < record.predicted_fidelity < 1.0

    # SLO-carrying traffic (tenant 1) always lands on the encoded replica
    # and never misses; tenant 2's demand is 100% missed (refused).
    tenant1 = [r for r in report.served if r.tenant == 1]
    assert len(tenant1) == 3
    assert all(r.shard == 1 and r.architecture == "Fat-Tree@d3" for r in tenant1)
    assert stats.per_tenant[1].fidelity_slo_misses == 0
    assert stats.per_tenant[1].fidelity_slo_miss_rate == 0.0
    assert stats.per_tenant[2].queries == 0
    assert stats.per_tenant[2].fidelity_slo_misses == 3
    assert stats.per_tenant[2].fidelity_slo_miss_rate == 1.0
    assert stats.fidelity_slo_misses == 3
    assert stats.fidelity_slo_miss_rate == pytest.approx(0.5)

    # Per-backend mean fidelity splits bare vs encoded: the encoded replica
    # predicts strictly higher quality.
    assert set(stats.per_backend) == {"Fat-Tree", "Fat-Tree@d3"}
    bare_stats = stats.per_backend["Fat-Tree"]
    encoded_stats = stats.per_backend["Fat-Tree@d3"]
    assert bare_stats.mean_fidelity is not None
    assert encoded_stats.mean_fidelity is not None
    assert encoded_stats.mean_fidelity > bare_stats.mean_fidelity
    assert encoded_stats.min_fidelity > 0.995
    assert stats.min_fidelity == pytest.approx(
        min(bare_stats.min_fidelity, encoded_stats.min_fidelity)
    )

    # Deadline accounting is untouched by the fidelity path.
    assert stats.deadline_misses == 1            # the shed straggler
    assert stats.deadline_miss_rate == 1.0       # only SLO-carrying demand


def test_mixed_fleet_report_is_deterministic():
    first = _mixed_fleet()
    second = _mixed_fleet()
    report_a = ServiceEngine(first, shed_expired=True).run(TraceSource(_trace(first)))
    report_b = ServiceEngine(second, shed_expired=True).run(TraceSource(_trace(second)))
    signature = lambda report: [          # noqa: E731 - local shorthand
        (s.query_id, s.shard, s.finish_layer, s.predicted_fidelity)
        for s in report.served
    ]
    assert signature(report_a) == signature(report_b)
    assert [r.query_id for r in report_a.rejected] == [
        r.query_id for r in report_b.rejected
    ]

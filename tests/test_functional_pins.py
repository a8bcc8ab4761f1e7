"""Pinned report digests of gate-level (functional) serving.

The scenario restates the benchmark's functional-gate workload: a
capacity-16 functional fleet on random memory (data seed 3) serving 200
two-address Poisson queries, mean interarrival 4 layers, with full
retention, so every slot's output amplitudes enter the digest.  Any change
to the sparse simulator or the gate-level executors must leave these
digests byte-identical.
"""

from __future__ import annotations

import pytest

from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec
from repro.schedule_cache import default_registry
from repro.sweep.engine import report_digest

PINS = [
    (
        ("Fat-Tree", "Fat-Tree"),
        1,
        "90b0edb43f5381fbe4219132fea61929231426eac0ec91c6087ef0dbb2a1ba2c",
    ),
    (
        ("Fat-Tree", "Fat-Tree"),
        2,
        "6e517f127354661acc8cb0e1413a2ddae816a7ec11d67865bb357dc493ca9e40",
    ),
    (
        ("D-Fat-Tree",),
        1,
        "0997f8e08d8a7e62690250bad13787f2b7cd966b2e6d5e64b07ce55ddae846f0",
    ),
    (
        ("BB",),
        1,
        "d71b02acae5abf8d5a18f9e7ba43ffacd54724a957c813eb560f194137d01e87",
    ),
]


def functional_gate(shards: tuple[str, ...], seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="functional-gate",
        fleet=FleetSpec(
            capacity=16,
            shards=shards,
            functional=True,
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=200,
            mean_interarrival=4.0,
            addresses_per_query=2,
            seed=seed,
        ),
        run=RunSpec(retention="full", workers=0, sanitize=False, profile=False),
    )


@pytest.mark.parametrize(
    "shards, seed, digest",
    PINS,
    ids=[f"{'+'.join(shards)}-seed{seed}" for shards, seed, _ in PINS],
)
def test_functional_report_digest_is_pinned(shards, seed, digest):
    default_registry().clear()
    report = functional_gate(shards, seed).execute()
    default_registry().clear()
    assert len(report.outputs) == 200
    assert report_digest(report) == digest

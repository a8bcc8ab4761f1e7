"""Pinned report digests of gate-level (functional) serving.

The scenario restates the benchmark's functional-gate workload: a
capacity-16 functional fleet on random memory (data seed 3) serving 200
two-address Poisson queries, mean interarrival 4 layers, with full
retention, so every slot's output amplitudes enter the digest.  Any change
to the sparse simulator or the gate-level executors must leave these
digests byte-identical.

Two window-level pins ride along: the outputs of one 4,096-branch Fat-Tree
window (far past one 64-bit word of branch bits), and the number of
``SparseState.apply_gate`` calls one Fat-Tree window or BB query makes,
which the layered benchmark's ``sim.gates`` counter reads.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.bucket_brigade.executor import BBExecutor
from repro.core.executor import FatTreeExecutor
from repro.core.query import QueryRequest
from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec
from repro.schedule_cache import default_registry
from repro.sim.sparse import SparseState
from repro.sweep.engine import report_digest
from repro.workloads.generators import random_address_superposition

PINS = [
    (
        ("Fat-Tree", "Fat-Tree"),
        1,
        "3b450983aa472215b2d5d4409ab01f7189773f63866e52e9e25201b64f754c15",
    ),
    (
        ("Fat-Tree", "Fat-Tree"),
        2,
        "0dfd95ba6707c08d1e6e031e0d2d1774e307d55edeccd76550759b5cf2303192",
    ),
    (
        ("D-Fat-Tree",),
        1,
        "aa7f5176afb2b1d08420344cc87ede897afe70b8d38e93a1fdcb598d704abf9c",
    ),
    (
        ("BB",),
        1,
        "f2c2af88357471bed6946d2fe77047f6e5c8970e6b5156b61942d1cbf8771714",
    ),
    (
        ("Virtual",),
        1,
        "7bcdbbeaeda12b0684b8236e54b1e415a22c851f85c627c55746aa3ce0cc775e",
    ),
    (
        ("D-BB",),
        1,
        "b75fda3539e46d7546799792ae22adea5be388ef5a8c6dbd9ee807f8e2014143",
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


def _outputs_digest(outputs) -> str:
    """sha256 over every output amplitude's bits, in output order."""
    rows = [
        (query_id, address, bus, amp.real.hex(), amp.imag.hex())
        for query_id, column in outputs.items()
        for (address, bus), amp in column.items()
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _counted_gates(monkeypatch) -> dict[str, int]:
    """Count ``SparseState.apply_gate`` calls and the peak branch count
    they leave, the way the layered benchmark's ledger wraps the method."""
    seen = {"calls": 0, "peak_terms": 0}
    apply_gate = SparseState.apply_gate

    def counted(state, *args, **kwargs):
        apply_gate(state, *args, **kwargs)
        seen["calls"] += 1
        seen["peak_terms"] = max(seen["peak_terms"], state.num_terms)

    monkeypatch.setattr(SparseState, "apply_gate", counted)
    return seen


def _window_requests(capacity: int, occupancy: int) -> list[QueryRequest]:
    return [
        QueryRequest(
            query_id=q,
            address_amplitudes=random_address_superposition(
                capacity, 2, seed=1000 * capacity + q
            ),
        )
        for q in range(occupancy)
    ]


def _random_data(capacity: int) -> list[int]:
    rng = np.random.default_rng(capacity)
    return [int(b) for b in rng.integers(2, size=capacity)]


def test_4096_branch_window_is_pinned(monkeypatch):
    """Six two-address queries on a capacity-64 tree peak at 4**6 = 4,096
    branches; the outputs are pinned bit for bit, every query reads its
    ideal output and the tree ends clean."""
    seen = _counted_gates(monkeypatch)
    executor = FatTreeExecutor(64, _random_data(64))
    requests = _window_requests(64, 6)
    _, outputs = executor.run_pipelined_queries(requests)
    assert seen["peak_terms"] == 4096
    for request in requests:
        fidelity = executor.query_fidelity(request, outputs[request.query_id])
        assert math.isclose(fidelity, 1.0, abs_tol=1e-12)
    assert _outputs_digest(outputs) == (
        "a63d19752ad0b898ef6484e002353fbc2e80128c0eba6d3bac1a1bbd57a63d42"
    )
    program = executor.window_program(6, executor.minimum_feasible_interval(6))
    _, state = program.replay(
        [(request.address_amplitudes, request.initial_bus) for request in requests]
    )
    assert program.tree_is_clean(state)


_GATE_COUNT_CASES = [
    *(pytest.param("Fat-Tree", k, id=str(k)) for k in (1, 2, 3, 4)),
    pytest.param("BB", 1, id="BB"),
]


@pytest.mark.parametrize("architecture, occupancy", _GATE_COUNT_CASES)
def test_window_makes_one_apply_gate_call_per_gate(
    monkeypatch, architecture, occupancy
):
    """One Fat-Tree ``run_pipelined_queries`` call, or one BB
    ``run_query``, makes exactly one ``apply_gate`` call per compiled gate
    plus two bus basis changes per slot: the benchmark's ``sim.gates``
    counts gates, so no gate may be fused into another call or applied
    behind the method's back."""
    seen = _counted_gates(monkeypatch)
    requests = _window_requests(16, occupancy)
    if architecture == "BB":
        executor = BBExecutor(16, _random_data(16))
        executor.run_query(requests[0].address_amplitudes)
        program = executor.window_program()
    else:
        executor = FatTreeExecutor(16, _random_data(16))
        executor.run_pipelined_queries(requests)
        interval = executor.minimum_feasible_interval(occupancy)
        program = executor.window_program(occupancy, interval)
    assert seen["calls"] == len(program.gates) + 2 * occupancy

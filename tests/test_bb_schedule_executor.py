"""BB QRAM schedule layer counts (Fig. 2a) and functional correctness (Eq. 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bucket_brigade import BBExecutor, BBQuerySchedule, BucketBrigadeQRAM
from repro.bucket_brigade.instructions import InstructionKind, weighted_latency
from repro.core.query import ideal_query_output, output_fidelity
from repro.workloads import structured_data, uniform_superposition


def test_n8_query_takes_25_layers():
    schedule = BBQuerySchedule(8)
    assert schedule.raw_layers == 25
    assert max(i.raw_layer for i in schedule.instructions) == 25
    assert schedule.weighted_latency == pytest.approx(24.125)
    milestones = schedule.milestone_layers()
    assert milestones["data_retrieval"] == 13
    assert milestones["bus_at_leaves"] == 12
    assert milestones["query_complete"] == 25


@pytest.mark.parametrize("capacity", [2, 4, 8, 16, 32, 64])
def test_layer_count_formula(capacity):
    n = int(math.log2(capacity))
    schedule = BBQuerySchedule(capacity)
    assert schedule.raw_layers == 8 * n + 1
    assert max(i.raw_layer for i in schedule.instructions) == 8 * n + 1
    assert schedule.weighted_latency == pytest.approx(8 * n + 0.125)
    schedule.verify_no_conflicts()


def test_schedule_is_time_symmetric():
    """Fig. 2(a): unloading mirrors loading layer for layer."""
    schedule = BBQuerySchedule(16)
    total = schedule.raw_layers + 1
    forward = {
        (i.raw_layer, i.item, i.level)
        for i in schedule.instructions
        if not i.kind.is_inverse and i.kind is not InstructionKind.CLASSICAL_GATES
    }
    backward = {
        (total - i.raw_layer, i.item, i.level)
        for i in schedule.instructions
        if i.kind.is_inverse
    }
    assert forward == backward


def test_weighted_latency_helper_counts_fast_layers_once():
    """Fig. 2(a): the N = 8 BB schedule's 25 raw layers weigh 24.125, with the
    fast layer at 1/8."""
    schedule = BBQuerySchedule(8)
    assert weighted_latency(schedule.instructions) == pytest.approx(24.125)


def test_single_address_queries_return_stored_bits():
    data = structured_data(8, "parity")
    qram = BucketBrigadeQRAM(8, data)
    for address in range(8):
        out = qram.query({address: 1.0})
        assert set(out) == {(address, data[address])}
        assert abs(out[(address, data[address])]) == pytest.approx(1.0)


def test_superposition_query_matches_eq1():
    """Eq. (1): a BB query maps sum_i a_i|i>|0> to sum_i a_i|i>|x_i>."""
    data = [1, 0, 1, 1, 0, 0, 1, 0]
    executor = BBExecutor(8, data)
    amplitudes = {0: 0.5, 3: 0.5j, 5: -0.5, 7: 0.5}
    fidelity = output_fidelity(
        ideal_query_output(data, amplitudes), executor.run_query(amplitudes)
    )
    assert fidelity == pytest.approx(1.0)


def test_query_leaves_tree_clean_and_unentangled():
    """Sec. 3: unloading returns every BB router to |0>, disentangled from the
    address/bus."""
    data = structured_data(16, "threshold")
    executor = BBExecutor(16, data)
    program = executor.window_program()
    # The address/bus register must be extractable as a product state.
    (output,), state = program.replay([(uniform_superposition(16), 0)])
    assert program.tree_is_clean(state)
    assert len(output) == 16
    assert executor.window_program() is program           # compiled once
    state.apply_gate("X", program.layout.qubits[:1])      # dirty one tree qubit
    assert not program.tree_is_clean(state)
    with pytest.raises(ValueError, match="1-slot program needs 1 inputs"):
        program.replay([])


def test_initial_bus_value_is_xored():
    data = [0, 1, 0, 1]
    qram = BucketBrigadeQRAM(4, data)
    out = qram.query({1: 1.0}, initial_bus=1)
    assert set(out) == {(1, 0)}          # 1 XOR 1 = 0


def test_memory_contents_change_query_result():
    assert set(BucketBrigadeQRAM(4).query({2: 1.0})) == {(2, 0)}
    assert set(BucketBrigadeQRAM(4, [0, 0, 1, 0]).query({2: 1.0})) == {(2, 1)}


def test_resource_properties():
    """Table 1: BB QRAM has 8N qubits, N - 1 routers, parallelism 1 and 8 log N
    + 0.125 latency."""
    qram = BucketBrigadeQRAM(1024)
    assert qram.qubit_count == 8 * 1024
    assert qram.query_parallelism == 1
    assert qram.num_routers == 1023
    assert qram.single_query_latency() == pytest.approx(80.125)
    assert qram.parallel_query_latency(10) == pytest.approx(801.25)
    assert qram.bandwidth() == pytest.approx(1e6 / 80.125)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    capacity_power=st.integers(min_value=1, max_value=4),
)
def test_random_data_and_addresses_satisfy_query_unitary(seed, capacity_power):
    """Property: Eq. (1) holds for random data and random 2-address queries."""
    import numpy as np

    capacity = 2**capacity_power
    rng = np.random.default_rng(seed)
    data = [int(b) for b in rng.integers(0, 2, size=capacity)]
    addresses = rng.choice(capacity, size=min(2, capacity), replace=False)
    raw = rng.normal(size=len(addresses)) + 1j * rng.normal(size=len(addresses))
    amplitudes = {int(a): complex(x) for a, x in zip(addresses, raw)}
    executor = BBExecutor(capacity, data)
    fidelity = output_fidelity(
        ideal_query_output(data, amplitudes), executor.run_query(amplitudes)
    )
    assert fidelity == pytest.approx(1.0, abs=1e-9)


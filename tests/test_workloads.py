"""Trace-generator determinism and shard-map properties."""

import pytest

from repro import build_backend
from repro.baselines.registry import backend_names
from repro.service.sharding import InterleavedShardMap
from repro.workloads import (
    iter_burst_times,
    iter_bursty_trace,
    iter_exponential_times,
    iter_poisson_trace,
    random_data,
    shard_aligned_superposition,
)


def _trace_signature(trace):
    return [
        (r.query_id, r.request_time, r.qpu, sorted(r.address_amplitudes.items()))
        for r in trace
    ]


# -------------------------------------------------------------- determinism
def test_poisson_trace_is_deterministic_per_seed():
    kwargs = dict(
        capacity=16,
        num_queries=25,
        mean_interarrival=6.0,
        num_tenants=3,
        num_shards=2,
    )
    first = list(iter_poisson_trace(seed=42, **kwargs))
    second = list(iter_poisson_trace(seed=42, **kwargs))
    assert _trace_signature(first) == _trace_signature(second)
    other = list(iter_poisson_trace(seed=43, **kwargs))
    assert _trace_signature(first) != _trace_signature(other)


def test_bursty_trace_is_deterministic_per_seed():
    kwargs = dict(
        capacity=16,
        num_bursts=3,
        burst_size=5,
        burst_spacing=50.0,
        num_tenants=2,
        num_shards=4,
    )
    first = list(iter_bursty_trace(seed=7, **kwargs))
    second = list(iter_bursty_trace(seed=7, **kwargs))
    assert _trace_signature(first) == _trace_signature(second)
    assert [r.request_time for r in first] == sorted(r.request_time for r in first)
    other = list(iter_bursty_trace(seed=8, **kwargs))
    assert _trace_signature(first) != _trace_signature(other)


def test_random_data_is_deterministic_per_seed():
    assert random_data(32, seed=5) == random_data(32, seed=5)
    assert random_data(32, seed=5) != random_data(32, seed=6)


@pytest.mark.parametrize("name", backend_names())
def test_traces_are_shard_aligned_for_every_backend(name):
    """Generated traces route cleanly onto any registered backend fleet.

    Every request's superposition stays inside one interleaved shard, and
    window batching up to the backend's parallelism never needs to split a
    request — so the same trace serves any architecture choice.
    """
    capacity, num_shards = 32, 4
    backend = build_backend(name, capacity // num_shards)
    assert backend.query_parallelism >= 1
    shard_map = InterleavedShardMap(capacity, num_shards)
    trace = list(iter_poisson_trace(
        capacity, 12, mean_interarrival=5.0, num_shards=num_shards, seed=11
    ))
    for request in trace:
        shard, local = shard_map.route(request.address_amplitudes)
        assert 0 <= shard < num_shards
        assert all(0 <= a < shard_map.shard_capacity for a in local)


def test_shard_aligned_superposition_stays_in_shard():
    for shard in range(4):
        amps = shard_aligned_superposition(32, 4, shard, num_addresses=4, seed=shard)
        assert {a % 4 for a in amps} == {shard}
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0)


# ----------------------------------------------------------- shard-map laws
@pytest.mark.parametrize("capacity,num_shards", [
    (8, 1), (8, 2), (8, 4),
    (32, 1), (32, 2), (32, 4), (32, 8), (32, 16),
    (128, 8),
])
def test_interleaved_round_trip_across_shard_counts(capacity, num_shards):
    shard_map = InterleavedShardMap(capacity, num_shards)
    assert shard_map.shard_capacity * num_shards == capacity
    seen = set()
    for address in range(capacity):
        shard = shard_map.shard_of(address)
        local = shard_map.local_address(address)
        assert 0 <= shard < num_shards
        assert 0 <= local < shard_map.shard_capacity
        assert shard_map.global_address(shard, local) == address
        assert shard_map.owners(address) == [shard]
        seen.add((shard, local))
    # The mapping is a bijection onto shard-local coordinates.
    assert len(seen) == capacity


@pytest.mark.parametrize("capacity,num_shards", [(16, 2), (64, 8)])
def test_interleaved_shard_data_partitions_memory(capacity, num_shards):
    shard_map = InterleavedShardMap(capacity, num_shards)
    data = list(range(capacity))
    slices = [shard_map.shard_data(data, s) for s in range(num_shards)]
    rebuilt = [
        slices[shard_map.shard_of(a)][shard_map.local_address(a)]
        for a in range(capacity)
    ]
    assert rebuilt == data


@pytest.mark.parametrize("num_shards", [0, -1, 3, 5, 6, 12])
def test_interleaved_rejects_non_power_of_two_shards(num_shards):
    with pytest.raises(ValueError, match="power of two"):
        InterleavedShardMap(16, num_shards)


def test_interleaved_rejects_undersized_shards():
    with pytest.raises(ValueError, match="fewer than 2 addresses"):
        InterleavedShardMap(16, 16)
    with pytest.raises(ValueError, match="fewer than 2 addresses"):
        InterleavedShardMap(8, 8)


def test_interleaved_rejects_invalid_capacity():
    with pytest.raises(ValueError):
        InterleavedShardMap(12, 2)       # not a power of two
    with pytest.raises(ValueError):
        InterleavedShardMap(0, 1)


def test_interleaved_rejects_out_of_range_coordinates():
    shard_map = InterleavedShardMap(16, 2)
    with pytest.raises(ValueError):
        shard_map.shard_of(-1)
    with pytest.raises(ValueError):
        shard_map.local_address(16)
    with pytest.raises(ValueError):
        shard_map.global_address(2, 0)
    with pytest.raises(ValueError):
        shard_map.global_address(0, 8)
    with pytest.raises(ValueError):
        shard_map.shard_data([0] * 8, 0)  # wrong data length


def test_periodic_times_validates_period_and_stagger():
    """Regression: non-positive periods / negative staggers used to produce
    negative, non-monotone arrival times silently."""
    from repro.workloads.arrivals import periodic_times

    with pytest.raises(ValueError):
        periodic_times(2, 3, period=0.0)
    with pytest.raises(ValueError):
        periodic_times(2, 3, period=-5.0)
    with pytest.raises(ValueError):
        periodic_times(2, 3, period=10.0, stagger=-1.0)
    with pytest.raises(ValueError):
        periodic_times(-1, 3, period=10.0)
    # A valid call stays monotone per source and starts at s * stagger.
    pairs = periodic_times(2, 2, period=10.0, stagger=3.0)
    assert pairs == [(0.0, 0), (10.0, 0), (3.0, 1), (13.0, 1)]


def test_trace_generators_carry_min_fidelity():
    trace = list(iter_poisson_trace(
        8, 5, mean_interarrival=4.0, seed=1, min_fidelity=0.9
    ))
    assert all(r.min_fidelity == 0.9 for r in trace)
    trace = list(iter_bursty_trace(8, 2, 2, 50.0, seed=1))
    assert all(r.min_fidelity is None for r in trace)


def test_lazy_arrival_cores_match_batch():
    """The iterator cores yield what one batch computation would — one
    RNG stream and one accumulation order.

    The exponential reference is computed independently with one
    vectorized draw plus ``np.cumsum``, and the pinned length crosses the
    iterator's draw-block boundary (4096), the one seam where the chunked
    stream could diverge from a single vectorized draw."""
    import numpy as np

    reference = [
        float(t)
        for t in np.cumsum(np.random.default_rng(13).exponential(7.5, size=5000))
    ]
    assert list(iter_exponential_times(5000, 7.5, seed=13)) == reference
    assert list(iter_burst_times(2, 3, 25.0)) == [0.0] * 3 + [25.0] * 3
    assert list(iter_exponential_times(0, 1.0)) == []


def test_lazy_arrival_cores_validate_eagerly():
    """Bad arguments raise at the call site, not on first consumption."""
    with pytest.raises(ValueError):
        iter_exponential_times(-1, 1.0)
    with pytest.raises(ValueError):
        iter_exponential_times(3, 0.0)
    with pytest.raises(ValueError):
        iter_burst_times(2, 0, 10.0)
    with pytest.raises(ValueError):
        iter_burst_times(2, 2, 0.0)

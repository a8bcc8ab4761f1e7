"""Trace-generator determinism and shard-map properties."""

import itertools
import math
import tracemalloc

import pytest

from repro import build_backend
from repro.baselines.registry import backend_names
from repro.service.sharding import InterleavedShardMap
from repro.workloads import (
    iter_burst_times,
    iter_exponential_times,
    closed_loop_source,
    iter_flash_crowd_trace,
    iter_poisson_trace,
    query_trace,
    random_data,
    shard_aligned_superposition,
)
from repro.workloads.generators import _superposition_block


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


def test_flash_crowd_trace_is_deterministic_per_seed():
    kwargs = dict(
        capacity=16,
        num_queries=10,
        mean_interarrival=10.0,
        crowd_time=50.0,
        crowd_size=5,
        num_tenants=2,
        num_shards=4,
    )
    first = list(iter_flash_crowd_trace(seed=7, **kwargs))
    second = list(iter_flash_crowd_trace(seed=7, **kwargs))
    assert _trace_signature(first) == _trace_signature(second)
    assert [r.request_time for r in first] == sorted(r.request_time for r in first)
    other = list(iter_flash_crowd_trace(seed=8, **kwargs))
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
        shard, amplitudes = shard_map.route({address: 1.0})
        (local,) = amplitudes
        assert 0 <= shard < num_shards
        assert 0 <= local < shard_map.shard_capacity
        assert shard_map.global_address(shard, local) == address
        seen.add((shard, local))
    # The mapping is a bijection onto shard-local coordinates.
    assert len(seen) == capacity


@pytest.mark.parametrize("capacity,num_shards", [(16, 2), (64, 8)])
def test_interleaved_shard_data_partitions_memory(capacity, num_shards):
    shard_map = InterleavedShardMap(capacity, num_shards)
    data = list(range(capacity))
    slices = [shard_map.shard_data(data, s) for s in range(num_shards)]
    routes = [shard_map.route({a: 1.0}) for a in range(capacity)]
    rebuilt = [slices[shard][local] for shard, (local,) in routes]
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
        shard_map.route({-1: 1.0})
    with pytest.raises(ValueError):
        shard_map.route({16: 1.0})
    with pytest.raises(ValueError):
        shard_map.global_address(2, 0)
    with pytest.raises(ValueError):
        shard_map.global_address(0, 8)
    with pytest.raises(ValueError):
        shard_map.shard_data([0] * 8, 0)  # wrong data length


def test_trace_generators_carry_min_fidelity():
    trace = list(iter_poisson_trace(
        8, 5, mean_interarrival=4.0, seed=1, min_fidelity=0.9
    ))
    assert all(r.min_fidelity == 0.9 for r in trace)
    trace = list(iter_flash_crowd_trace(8, 2, 50.0, 20.0, 2, seed=1))
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


# ------------------------------------------------ keyed superposition stream
def _superposition_key(amplitudes):
    """A superposition's exact content: addresses and amplitude bits."""
    return tuple(
        (address, value.real.hex(), value.imag.hex())
        for address, value in sorted(amplitudes.items())
    )


def _closed_loop_superpositions(seed, **kwargs):
    """Every (client, index) superposition a closed-loop fleet issues."""
    source = closed_loop_source(seed=seed, **kwargs)
    return [
        _superposition_key(source.address_factory(client, index))
        for client in source.clients.values()
        for index in range(client.queries)
    ]


def test_adjacent_trace_seeds_share_no_superposition():
    """Seed ``s+1`` is not seed ``s`` shifted by one position (keying each
    query's draw by ``seed + i`` made seeds 10 and 11 share every
    superposition), while a rerun of one seed is bit-identical."""
    kwargs = dict(capacity=16, num_queries=2000, mean_interarrival=4.0)
    for addresses_per_query in (1, 2):
        traces = [
            [
                _superposition_key(request.address_amplitudes)
                for request in iter_poisson_trace(
                    seed=seed, addresses_per_query=addresses_per_query,
                    **kwargs,
                )
            ]
            for seed in (10, 10, 11)
        ]
        assert traces[0] == traces[1]
        assert not set(traces[0]) & set(traces[2])


def test_adjacent_closed_loop_seeds_share_no_superposition():
    kwargs = dict(
        capacity=32, num_clients=4, queries_per_client=150,
        think_layers=5.0, num_shards=2,
    )
    first = _closed_loop_superpositions(0, **kwargs)
    assert first == _closed_loop_superpositions(0, **kwargs)
    assert not set(first) & set(_closed_loop_superpositions(1, **kwargs))
    # Clients draw from their own streams: no two share a superposition.
    assert len(set(first)) == len(first)


def test_closed_loop_draws_are_independent_of_interleaving():
    """Each client caches its own block, so the order in which clients
    issue their queries cannot change what any client draws."""
    kwargs = dict(
        capacity=16, num_clients=3, queries_per_client=140,
        think_layers=5.0, num_shards=4, seed=2,
    )
    sequential = closed_loop_source(**kwargs)
    interleaved = closed_loop_source(**kwargs)
    clients = list(sequential.clients.values())
    by_client = {
        (client.client_id, index): _superposition_key(
            sequential.address_factory(client, index)
        )
        for client in clients
        for index in range(client.queries)
    }
    for index in range(140):
        for client in clients:
            key = _superposition_key(
                interleaved.address_factory(client, index)
            )
            assert key == by_client[client.client_id, index]
            assert all(a % 4 == key[0][0] % 4 for a, _, _ in key)


def test_shard_filter_yields_the_unrestricted_requests():
    """For every subset of shards, the restricted stream is exactly the
    unrestricted stream's requests on those shards (across superposition
    blocks, with weighted tenant draws)."""
    kwargs = dict(
        capacity=32, num_queries=2500, mean_interarrival=2.0,
        addresses_per_query=2, num_tenants=3, num_shards=4, seed=4,
        tenant_weights=(0.5, 0.25, 0.25),
    )

    def signature(request):
        return (
            request.query_id, request.request_time.hex(), request.qpu,
            _superposition_key(request.address_amplitudes),
        )

    full = list(iter_poisson_trace(**kwargs))
    for size in range(5):
        for subset in itertools.combinations(range(4), size):
            restricted = iter_poisson_trace(shards=subset, **kwargs)
            expected = [
                signature(r) for r in full
                if next(iter(r.address_amplitudes)) % 4 in subset
            ]
            assert [signature(r) for r in restricted] == expected


def test_query_trace_matches_one_shard_stream():
    trace = query_trace(16, 1500, addresses_per_query=2, seed=3)
    stream = iter_poisson_trace(
        16, 1500, mean_interarrival=1.0, addresses_per_query=2, seed=3
    )
    assert [_superposition_key(r.address_amplitudes) for r in trace] == [
        _superposition_key(r.address_amplitudes) for r in stream
    ]


#: Chi-square critical values at p = 0.001 for C(8, 2) - 1 = 27 and
#: C(8, 3) - 1 = 55 degrees of freedom.
_CHI_SQUARE_CRITICAL = {2: 55.476, 3: 93.168}


@pytest.mark.parametrize("k", [2, 3])
def test_floyd_draws_are_uniform_over_subsets(k):
    """At local capacity 8 every k-subset is equally likely."""
    subsets = list(itertools.combinations(range(8), k))
    rows = 1000 * len(subsets)
    addresses, amplitudes = _superposition_block(12345, 0, rows, 8, k)
    counts = dict.fromkeys(subsets, 0)
    for row in range(rows):
        drawn = addresses[row * k:(row + 1) * k]
        assert len(set(drawn)) == k and all(0 <= a < 8 for a in drawn)
        counts[tuple(sorted(drawn))] += 1
        norm = sum(abs(x) ** 2 for x in amplitudes[row * k:(row + 1) * k])
        assert math.isclose(norm, 1.0, rel_tol=1e-12)
    expected = rows / len(subsets)
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    assert statistic < _CHI_SQUARE_CRITICAL[k]


def test_multi_address_block_memory_is_independent_of_capacity():
    """A k = 2 block at local capacity 2**20 allocates nothing of size
    O(capacity) (an 8 MiB index array would)."""
    _superposition_block(0, 0, 64, 2**20, 2)  # warm numpy's caches
    tracemalloc.start()
    addresses, _ = _superposition_block(0, 1, 64, 2**20, 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 * 1024
    assert max(addresses) < 2**20

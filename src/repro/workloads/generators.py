"""Generators for classical memory contents, address superpositions and
query traces."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.bucket_brigade.tree import validate_capacity
from repro.core.query import QueryRequest
from repro.engine.workload import ClosedLoopClient, ClosedLoopSource
from repro.workloads.arrivals import (
    iter_burst_times,
    iter_diurnal_times,
    iter_exponential_times,
    iter_flash_crowd_times,
    periodic_times,
)

#: Shard draws per RNG call in :func:`_iter_arrival_trace` — block draws
#: consume the Generator's stream exactly like scalar draws, so the block
#: size is a pure speed knob (mirrors ``arrivals._DRAW_BLOCK``).
_SHARD_DRAW_BLOCK = 4096


def random_data(capacity: int, seed: int = 0, density: float = 0.5) -> list[int]:
    """Random classical memory with a given density of 1-bits."""
    validate_capacity(capacity)
    rng = np.random.default_rng(seed)
    return [int(x) for x in (rng.random(capacity) < density)]


def structured_data(capacity: int, pattern: str = "parity") -> list[int]:
    """Deterministic memory patterns used by tests and examples.

    Patterns: ``parity`` (popcount mod 2), ``alternating``, ``threshold``
    (upper half set), ``single`` (only address 0 set).
    """
    validate_capacity(capacity)
    if pattern == "parity":
        return [bin(i).count("1") % 2 for i in range(capacity)]
    if pattern == "alternating":
        return [i % 2 for i in range(capacity)]
    if pattern == "threshold":
        return [1 if i >= capacity // 2 else 0 for i in range(capacity)]
    if pattern == "single":
        return [1 if i == 0 else 0 for i in range(capacity)]
    raise ValueError(f"unknown pattern {pattern!r}")


def uniform_superposition(capacity: int) -> dict[int, complex]:
    """Equal-amplitude superposition over every address."""
    validate_capacity(capacity)
    amp = 1.0 / math.sqrt(capacity)
    return {address: amp for address in range(capacity)}


def random_address_superposition(
    capacity: int, num_addresses: int, seed: int = 0
) -> dict[int, complex]:
    """Random superposition over a random subset of addresses.

    Amplitudes are complex Gaussian and normalised.
    """
    validate_capacity(capacity)
    if not 1 <= num_addresses <= capacity:
        raise ValueError("num_addresses out of range")
    rng = np.random.default_rng(seed)
    if num_addresses == 1:
        # Scalar fast path for the single-address draw that dominates
        # trace generation.  Bit-identical to the array path below —
        # ``choice(n, size=1, replace=False)`` consumes the stream exactly
        # like one bounded ``integers`` draw, ``normal()`` like
        # ``normal(size=1)``, and the norm/division are evaluated with the
        # same operand types — pinned in tests/test_vectorized_parity.py.
        address = int(rng.integers(capacity))
        re = rng.normal()
        im = rng.normal()
        norm = math.sqrt(re * re + im * im)
        return {address: complex(np.complex128(complex(re, im)) / np.float64(norm))}
    addresses = rng.choice(capacity, size=num_addresses, replace=False)
    raw = rng.normal(size=num_addresses) + 1j * rng.normal(size=num_addresses)
    norm = np.linalg.norm(raw)
    return {int(a): complex(x / norm) for a, x in zip(addresses, raw)}


def query_trace(
    capacity: int,
    num_queries: int,
    addresses_per_query: int = 2,
    seed: int = 0,
) -> list[QueryRequest]:
    """A trace of query requests with random address superpositions."""
    return [
        QueryRequest(
            query_id=i,
            address_amplitudes=random_address_superposition(
                capacity, addresses_per_query, seed=seed + i
            ),
        )
        for i in range(num_queries)
    ]


def shard_aligned_superposition(
    capacity: int,
    num_shards: int,
    shard: int,
    num_addresses: int,
    seed: int = 0,
) -> dict[int, complex]:
    """Random superposition confined to one interleaved shard's addresses.

    With low-order interleaving, shard ``s`` of ``K`` owns the global
    addresses ``{s, s + K, s + 2K, ...}``; a query served by a sharded QRAM
    service must keep its superposition inside one such set.
    """
    if not 0 <= shard < num_shards:
        raise ValueError("shard out of range")
    if capacity % num_shards != 0:
        raise ValueError("num_shards must divide the capacity")
    shard_capacity = capacity // num_shards
    local = random_address_superposition(shard_capacity, num_addresses, seed=seed)
    return {a * num_shards + shard: amp for a, amp in local.items()}


def _cumulative_weights(
    weights: Sequence[float], size: int, name: str
) -> np.ndarray:
    """Validate a weight vector and return its normalized cumulative sums
    (the inverse-CDF lookup table for one uniform draw)."""
    if len(weights) != size:
        raise ValueError(f"{name} must have length {size}, got {len(weights)}")
    values = np.asarray([float(w) for w in weights], dtype=np.float64)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError(f"{name} entries must be finite and >= 0")
    total = float(values.sum())
    if total <= 0:
        raise ValueError(f"{name} must have a positive sum")
    cdf = np.cumsum(values / total)
    # Pin the final bucket edge to exactly 1.0 so a uniform draw just shy
    # of 1.0 can never index past the last entry under rounding error.
    cdf[-1] = 1.0
    return cdf


def _iter_arrival_trace(
    capacity: int,
    times: Iterable[float],
    addresses_per_query: int,
    num_tenants: int,
    num_shards: int,
    seed: int,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
    tenant_weights: Sequence[float] | None = None,
    shard_weights: Sequence[float] | None = None,
    tenants: Iterable[int] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield requests at the given arrival times, round-robin over
    tenants and random (shard-aligned) address superpositions.

    One request is materialized at a time: driven by a lazy ``times``
    stream and a :class:`~repro.engine.workload.StreamingTraceSource`,
    a trace of any length occupies O(1) memory.

    With ``shards`` the stream is restricted to the requests owned by
    those shards — the same requests, byte for byte, that the unrestricted
    stream yields for them (every query's ids, times, tenants and draws
    are keyed by its global position ``i``, and the cheap sequential
    shard draw advances for skipped queries too), but the expensive
    superposition draw is skipped for everything else.  This is what lets
    a parallel serving worker regenerate only its partition of a trace.

    ``shard_weights`` / ``tenant_weights`` skew the shard draw and the
    tenant assignment (hot-key and misbehaving-tenant workloads).  Both
    default to ``None``, which preserves the historical uniform /
    round-robin streams byte for byte; when set, draws still advance one
    slot per global position, so the ``shards`` partition filter stays
    exact.  ``tenants`` (an explicit per-position tenant stream, e.g. the
    sources of a periodic workload) overrides both.
    """
    owned = None if shards is None else frozenset(int(s) for s in shards)
    rng = np.random.default_rng(seed)
    shard_cdf = (
        None
        if shard_weights is None
        else _cumulative_weights(shard_weights, num_shards, "shard_weights")
    )
    tenant_cdf = (
        None
        if tenant_weights is None
        else _cumulative_weights(tenant_weights, num_tenants, "tenant_weights")
    )
    # Weighted tenant draws come from their own derived stream so enabling
    # them cannot perturb the shard draws (and vice versa).
    tenant_rng = (
        None if tenant_cdf is None else np.random.default_rng([seed, 7919])
    )
    tenant_stream = None if tenants is None else iter(tenants)
    # Shard draws come in vectorized blocks: a block of n bounded draws
    # consumes the Generator's stream exactly like n scalar draws (pinned
    # in tests/test_vectorized_parity.py), so the trace is byte-identical
    # to the historical per-request draw at a fraction of the RNG cost.
    shard_draws: list[int] = []
    tenant_draws: list[int] = []
    draw_index = 0
    tenant_index = 0
    for i, t in enumerate(times):
        if draw_index == len(shard_draws):
            if shard_cdf is None:
                shard_draws = rng.integers(
                    num_shards, size=_SHARD_DRAW_BLOCK
                ).tolist()
            else:
                shard_draws = np.searchsorted(
                    shard_cdf, rng.random(_SHARD_DRAW_BLOCK), side="right"
                ).tolist()
            draw_index = 0
        shard = shard_draws[draw_index]
        draw_index += 1
        if tenant_stream is not None:
            tenant = int(next(tenant_stream))
        elif tenant_cdf is not None and tenant_rng is not None:
            if tenant_index == len(tenant_draws):
                tenant_draws = np.searchsorted(
                    tenant_cdf,
                    tenant_rng.random(_SHARD_DRAW_BLOCK),
                    side="right",
                ).tolist()
                tenant_index = 0
            tenant = tenant_draws[tenant_index]
            tenant_index += 1
        else:
            tenant = i % num_tenants
        if owned is not None and shard not in owned:
            continue
        yield QueryRequest(
            query_id=i,
            address_amplitudes=shard_aligned_superposition(
                capacity, num_shards, shard, addresses_per_query, seed=seed + i
            ),
            request_time=float(t),
            qpu=tenant,
            deadline=None if deadline_layers is None else float(t) + deadline_layers,
            min_fidelity=min_fidelity,
        )


def iter_poisson_trace(
    capacity: int,
    num_queries: int,
    mean_interarrival: float,
    addresses_per_query: int = 2,
    num_tenants: int = 1,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
    tenant_weights: Sequence[float] | None = None,
    shard_weights: Sequence[float] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield open-loop Poisson traffic: exponential interarrival
    times (raw layers, from :mod:`repro.workloads.arrivals`).

    Tenants are assigned round-robin and each query targets a uniformly
    random shard with a shard-aligned address superposition, so the trace
    can be served directly by a ``num_shards``-shard :class:`QRAMService`.
    With ``deadline_layers`` every query carries the deadline
    ``arrival + deadline_layers`` for SLO-aware serving (EDF admission,
    shed accounting); with ``min_fidelity`` every query carries that
    fidelity SLO for fidelity-aware serving.

    Nothing is materialized: feed the iterator to a
    :class:`~repro.engine.workload.StreamingTraceSource` and a
    million-query trace is generated, served and discarded one request at
    a time (or ``list(...)`` it for a :class:`TraceSource`).  ``shards``
    restricts the stream to those shards' requests without perturbing
    them, and ``tenant_weights`` / ``shard_weights`` skew the tenant/shard
    draws (hot-key and misbehaving-tenant workloads; ``None`` keeps the
    uniform / round-robin streams, see :func:`_iter_arrival_trace`).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    times = iter_exponential_times(num_queries, mean_interarrival, seed)
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_tenants, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenant_weights, shard_weights,
    )


def iter_bursty_trace(
    capacity: int,
    num_bursts: int,
    burst_size: int,
    burst_spacing: float,
    addresses_per_query: int = 2,
    num_tenants: int = 1,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
    tenant_weights: Sequence[float] | None = None,
    shard_weights: Sequence[float] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield bursty traffic: ``burst_size`` simultaneous requests
    every ``burst_spacing`` raw layers (the stress pattern for window
    batching).  Everything else — ids, tenants, shard-aligned
    superpositions, the ``shards`` partition filter and the weighted
    draws — matches :func:`iter_poisson_trace`."""
    if num_bursts < 1 or burst_size < 1:
        raise ValueError("num_bursts and burst_size must be >= 1")
    times = iter_burst_times(num_bursts, burst_size, burst_spacing)
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_tenants, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenant_weights, shard_weights,
    )


def iter_diurnal_trace(
    capacity: int,
    num_queries: int,
    mean_interarrival: float,
    period: float,
    amplitude: float = 0.5,
    addresses_per_query: int = 2,
    num_tenants: int = 1,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
    tenant_weights: Sequence[float] | None = None,
    shard_weights: Sequence[float] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield a trace whose arrival rate follows a sinusoidal
    day/night cycle (:func:`~repro.workloads.arrivals.iter_diurnal_times`);
    everything else — ids, tenants, shard-aligned superpositions, the
    ``shards`` partition filter — matches :func:`iter_poisson_trace`."""
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    times = iter_diurnal_times(
        num_queries, mean_interarrival, period, amplitude, seed
    )
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_tenants, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenant_weights, shard_weights,
    )


def iter_flash_crowd_trace(
    capacity: int,
    num_queries: int,
    mean_interarrival: float,
    crowd_time: float,
    crowd_size: int,
    crowd_spacing: float = 0.0,
    addresses_per_query: int = 2,
    num_tenants: int = 1,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
    tenant_weights: Sequence[float] | None = None,
    shard_weights: Sequence[float] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield a Poisson-baseline trace with a flash crowd of
    ``crowd_size`` extra requests landing at ``crowd_time``
    (:func:`~repro.workloads.arrivals.iter_flash_crowd_times`); the total
    trace carries ``num_queries + crowd_size`` requests and everything
    else matches :func:`iter_poisson_trace`."""
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    times = iter_flash_crowd_times(
        num_queries, mean_interarrival, crowd_time, crowd_size,
        crowd_spacing, seed,
    )
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_tenants, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenant_weights, shard_weights,
    )


def iter_periodic_trace(
    capacity: int,
    num_sources: int,
    rounds: int,
    period: float,
    stagger: float = 0.0,
    addresses_per_query: int = 2,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    min_fidelity: float | None = None,
    shards: Iterable[int] | None = None,
) -> Iterator[QueryRequest]:
    """Lazily yield a periodic open-loop trace.

    ``num_sources`` staggered sources each issue every ``period`` layers
    (:func:`~repro.workloads.arrivals.periodic_times`); each source is its
    own tenant, arrivals are sorted by ``(time, source)`` and ids assigned
    in that order, and addresses/shard draws follow the shared trace core
    (so the ``shards`` partition filter stays exact).
    """
    if num_sources < 1 or rounds < 1:
        raise ValueError("num_sources and rounds must be >= 1")
    pairs = sorted(
        periodic_times(num_sources, rounds, period, stagger),
        key=lambda pair: (pair[0], pair[1]),
    )
    times = [t for t, _ in pairs]
    sources = [source for _, source in pairs]
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_sources, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenants=sources,
    )


def closed_loop_source(
    capacity: int,
    num_clients: int,
    queries_per_client: int,
    think_layers: float,
    addresses_per_query: int = 2,
    num_shards: int = 1,
    seed: int = 0,
    deadline_layers: float | None = None,
    stagger: float = 0.0,
    min_fidelity: float | None = None,
) -> ClosedLoopSource:
    """A seeded fleet of closed-loop clients for the discrete-event engine.

    Each client alternates one outstanding query with ``think_layers`` of
    local processing (the QPU query/process loop of Fig. 7); its requests
    carry shard-aligned address superpositions, so the source can drive a
    ``num_shards``-shard interleaved :class:`~repro.service.QRAMService`
    directly (use ``num_shards=1`` for replicated / shortest-queue fleets,
    whose shards all serve the global address space).

    Args:
        capacity: global address-space size.
        num_clients: closed-loop clients (tenant ids ``0..num_clients-1``).
        queries_per_client: queries each client issues before retiring.
        think_layers: processing time between completion and next request.
        addresses_per_query: superposition size per query.
        num_shards: interleaved shard count the superpositions align to.
        seed: base RNG seed; every (client, round) pair derives its own.
        deadline_layers: per-request relative deadline (``None`` = best
            effort).
        stagger: offset between successive clients' start times.
        min_fidelity: per-request fidelity SLO (``None`` = best effort).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    clients = [
        ClosedLoopClient(
            client_id=client_id,
            queries=queries_per_client,
            think_layers=think_layers,
            start_time=client_id * stagger,
            deadline_layers=deadline_layers,
            min_fidelity=min_fidelity,
        )
        for client_id in range(num_clients)
    ]

    def address_factory(client: ClosedLoopClient, index: int) -> dict[int, complex]:
        draw_seed = seed + client.client_id * 100003 + index
        shard = int(np.random.default_rng(draw_seed).integers(num_shards))
        return shard_aligned_superposition(
            capacity, num_shards, shard, addresses_per_query, seed=draw_seed
        )

    return ClosedLoopSource(clients, address_factory)

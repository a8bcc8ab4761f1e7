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
    iter_exponential_times,
    iter_flash_crowd_times,
)

#: Shard draws per RNG call in :func:`_iter_arrival_trace` — block draws
#: consume the trace's sequential ``default_rng(seed)`` stream exactly like
#: scalar draws, so the block size is a pure speed knob (mirrors
#: ``arrivals._DRAW_BLOCK``).  Superpositions are not drawn from this
#: stream: they come from the keyed blocks of :func:`_superposition_block`.
_SHARD_DRAW_BLOCK = 4096

#: Rows per keyed superposition block.  Unlike ``_SHARD_DRAW_BLOCK`` this
#: is part of the stream's definition (row ``i`` of a trace is row
#: ``i % rows`` of block ``i // rows``), and it bounds the memory a lazy
#: trace holds: one block at a time.
_SUPERPOSITION_BLOCK = 1024

#: Closed-loop rows per keyed block; small, because every active client
#: caches its own block.
_CLOSED_LOOP_BLOCK = 64

#: Stream tags in the ``default_rng`` keys, so the superposition and
#: closed-loop streams never coincide with each other or with the
#: ``default_rng(seed)`` / ``default_rng([seed, 7919])`` streams that draw
#: arrival times, shards and weighted tenants.
_SUPERPOSITION_STREAM = 104729
_CLOSED_LOOP_STREAM = 1299709


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
    """A trace of query requests with random address superpositions.

    Query ``i`` carries row ``i`` of the keyed superposition stream (see
    :func:`_superposition_block`), the same superposition a one-shard
    ``iter_*_trace`` with this seed gives its query ``i``.
    """
    superpositions = KeyedSuperpositions(capacity, 1, addresses_per_query, seed)
    return [
        QueryRequest(query_id=i, address_amplitudes=superpositions.get(i, 0))
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
    shard_capacity = _local_capacity(capacity, num_shards, num_addresses)
    local = random_address_superposition(shard_capacity, num_addresses, seed=seed)
    return {a * num_shards + shard: amp for a, amp in local.items()}


def _superposition_block(
    seed: int, block: int, rows: int, local_capacity: int, k: int
) -> tuple[list[int], list[complex]]:
    """Block ``block`` of the keyed superposition stream of ``seed``.

    ``rows`` superpositions, each of ``k`` distinct addresses below
    ``local_capacity`` with complex-Gaussian amplitudes normalised per row,
    returned as two flat row-major lists (row ``r`` is ``[r*k:(r+1)*k]``).
    The block's generator is keyed by ``(seed, block)``, so any row is
    reachable without drawing the rows before it, and adjacent seeds share
    nothing.
    """
    rng = np.random.default_rng([seed, _SUPERPOSITION_STREAM, block])
    return _draw_superpositions(rng, rows, local_capacity, k)


def _draw_superpositions(
    rng: np.random.Generator, rows: int, local_capacity: int, k: int
) -> tuple[list[int], list[complex]]:
    """``rows`` superpositions drawn from ``rng`` (see
    :func:`_superposition_block` for the layout).

    Addresses are drawn without replacement by Floyd's algorithm,
    vectorised over rows: step ``j`` draws ``t`` uniform in
    ``[0, top]`` with ``top = local_capacity - k + j`` and keeps it unless
    an earlier step took it, in which case it takes ``top`` (which no
    earlier step can hold).  Every ``k``-subset is equally likely, and the
    ``k`` fixed-shape ``(rows,)`` steps cost nothing in ``local_capacity``.
    For ``k == 1`` this is one ``integers(local_capacity, size=rows)``.
    Then every real part and every imaginary part is drawn, and each row
    is divided by its own norm.
    """
    addresses = np.empty((rows, k), dtype=np.int64)
    for j in range(k):
        top = local_capacity - k + j
        drawn = rng.integers(top + 1, size=rows)
        taken = (addresses[:, :j] == drawn[:, None]).any(axis=1)
        addresses[:, j] = np.where(taken, top, drawn)
    re = rng.normal(size=(rows, k))
    im = rng.normal(size=(rows, k))
    norm = np.sqrt((re * re + im * im).sum(axis=1, keepdims=True))
    amplitudes = np.empty((rows, k), dtype=np.complex128)
    amplitudes.real = re / norm
    amplitudes.imag = im / norm
    return addresses.ravel().tolist(), amplitudes.ravel().tolist()


def _row_superposition(
    addresses: list[int],
    amplitudes: list[complex],
    row: int,
    k: int,
    num_shards: int,
    shard: int,
) -> dict[int, complex]:
    """Row ``row`` of a flat block, each local address ``a`` shifted onto
    ``shard``'s interleaved global address ``a * num_shards + shard``."""
    if k == 1:
        return {addresses[row] * num_shards + shard: amplitudes[row]}
    start = row * k
    return {
        a * num_shards + shard: amp
        for a, amp in zip(
            addresses[start:start + k], amplitudes[start:start + k]
        )
    }


def _local_capacity(capacity: int, num_shards: int, k: int) -> int:
    """Validate a shard-aligned draw; return the per-shard capacity."""
    if capacity % num_shards != 0:
        raise ValueError("num_shards must divide the capacity")
    local_capacity = capacity // num_shards
    validate_capacity(local_capacity)
    if not 1 <= k <= local_capacity:
        raise ValueError("num_addresses out of range")
    return local_capacity


class KeyedSuperpositions:
    """Random access to the keyed superposition stream of one trace.

    :meth:`get` returns position ``i``'s superposition — row
    ``i % _SUPERPOSITION_BLOCK`` of block ``i // _SUPERPOSITION_BLOCK`` —
    on a shard.  One block is cached at a time and dropped before the
    next is drawn, so sequential reads cost one block draw per
    ``_SUPERPOSITION_BLOCK`` positions in bounded memory.
    """

    def __init__(
        self, capacity: int, num_shards: int, k: int, seed: int
    ) -> None:
        self._local_capacity = _local_capacity(capacity, num_shards, k)
        self._num_shards = num_shards
        self._k = k
        self._seed = seed
        self._block = -1
        self._addresses: list[int] = []
        self._amplitudes: list[complex] = []

    def get(self, position: int, shard: int) -> dict[int, complex]:
        block, row = divmod(position, _SUPERPOSITION_BLOCK)
        if block != self._block:
            self._addresses = self._amplitudes = []
            self._addresses, self._amplitudes = _superposition_block(
                self._seed, block, _SUPERPOSITION_BLOCK,
                self._local_capacity, self._k,
            )
            self._block = block
        return _row_superposition(
            self._addresses, self._amplitudes, row, self._k,
            self._num_shards, shard,
        )


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
) -> Iterator[QueryRequest]:
    """Lazily yield requests at the given arrival times, round-robin over
    tenants and random (shard-aligned) address superpositions.

    One request is materialized at a time: driven by a lazy ``times``
    stream and a :class:`~repro.engine.workload.StreamingTraceSource`,
    a trace of any length occupies O(1) memory.

    Query ``i``'s superposition is row ``i`` of the keyed stream of
    :func:`_superposition_block` (read through
    :class:`KeyedSuperpositions`), shifted onto its shard; arrival times,
    shard draws and tenant draws come from their own sequential streams.

    With ``shards`` the stream is restricted to the requests owned by
    those shards — the same requests, byte for byte, that the unrestricted
    stream yields for them (every query's id, time, tenant and
    superposition is a function of its global position ``i``, and the
    sequential shard and tenant draws advance for skipped queries too);
    only the skipped requests are never built.  This is what lets a
    parallel serving worker regenerate only its partition of a trace.

    ``tenant_weights`` skews the tenant assignment (the misbehaving-tenant
    workload).  It defaults to ``None``, which keeps the round-robin
    tenants; when set, weighted draws still advance one slot per global
    position, so the ``shards`` partition filter stays exact.
    """
    owned = None if shards is None else frozenset(int(s) for s in shards)
    superpositions = KeyedSuperpositions(
        capacity, num_shards, addresses_per_query, seed
    )
    rng = np.random.default_rng(seed)
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
            shard_draws = rng.integers(
                num_shards, size=_SHARD_DRAW_BLOCK
            ).tolist()
            draw_index = 0
        shard = shard_draws[draw_index]
        draw_index += 1
        if tenant_cdf is not None and tenant_rng is not None:
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
            address_amplitudes=superpositions.get(i, shard),
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
    them, and ``tenant_weights`` skews the tenant draw (the
    misbehaving-tenant workload; ``None`` keeps the round-robin tenants,
    see :func:`_iter_arrival_trace`).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    times = iter_exponential_times(num_queries, mean_interarrival, seed)
    return _iter_arrival_trace(
        capacity, times, addresses_per_query, num_tenants, num_shards, seed,
        deadline_layers, min_fidelity, shards, tenant_weights,
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
        deadline_layers, min_fidelity, shards, tenant_weights,
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
        seed: base RNG seed.  Client ``c`` draws its shards and
            superpositions in blocks from its own stream keyed by
            ``(seed, c, block)``, so clients and adjacent seeds share
            nothing.
        deadline_layers: per-request relative deadline (``None`` = best
            effort).
        min_fidelity: per-request fidelity SLO (``None`` = best effort).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    clients = [
        ClosedLoopClient(
            client_id=client_id,
            queries=queries_per_client,
            think_layers=think_layers,
            deadline_layers=deadline_layers,
            min_fidelity=min_fidelity,
        )
        for client_id in range(num_clients)
    ]

    local_capacity = _local_capacity(capacity, num_shards, addresses_per_query)
    # client_id -> (block index, shards, flat addresses, flat amplitudes);
    # one block per client, since clients interleave their queries.
    blocks: dict[int, tuple[int, list[int], list[int], list[complex]]] = {}

    def address_factory(client: ClosedLoopClient, index: int) -> dict[int, complex]:
        block, row = divmod(index, _CLOSED_LOOP_BLOCK)
        cached = blocks.get(client.client_id)
        if cached is None or cached[0] != block:
            blocks.pop(client.client_id, None)
            rng = np.random.default_rng(
                [seed, _CLOSED_LOOP_STREAM, client.client_id, block]
            )
            shard_draws = rng.integers(
                num_shards, size=_CLOSED_LOOP_BLOCK
            ).tolist()
            addresses, amplitudes = _draw_superpositions(
                rng, _CLOSED_LOOP_BLOCK, local_capacity, addresses_per_query
            )
            cached = (block, shard_draws, addresses, amplitudes)
            blocks[client.client_id] = cached
        _, shard_draws, addresses, amplitudes = cached
        if index == client.queries - 1:
            del blocks[client.client_id]
        return _row_superposition(
            addresses, amplitudes, row, addresses_per_query, num_shards,
            shard_draws[row],
        )

    return ClosedLoopSource(clients, address_factory)

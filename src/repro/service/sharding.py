"""Sharding / placement maps for the QRAM serving layer.

Two placements are supported:

* :class:`InterleavedShardMap` — a capacity-``N`` address space served by
  ``K`` shards assigns global address ``a`` to shard ``a mod K`` at local
  address ``a div K``: the classic low-order interleaving that spreads any
  address-local working set evenly across shards.  Each shard is an
  independent capacity-``N/K`` QRAM, so a query's address superposition
  must stay within one shard's address set (amplitudes entangled across
  physically independent QRAMs cannot be served without inter-shard
  operations); the trace generators in :mod:`repro.workloads` emit
  shard-aligned superpositions.
* :class:`ReplicatedShardMap` — every shard holds the full capacity-``N``
  memory.  Any query can run on any shard (``route`` returns
  :data:`ANY_SHARD` and the service picks one, e.g. shortest-queue), at the
  cost of ``K``-fold hardware.

Both maps expose the same surface: ``shard_capacity``, ``shard_data``
(each shard's memory image, loaded once when the fleet is built),
``route`` and ``to_global_outputs``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bucket_brigade.tree import validate_capacity

# The "any shard may serve this request" sentinel is hosted on the
# dependency-free query module so the engine that interprets it and the
# maps that return it never import each other.
from repro.core.query import ANY_SHARD

__all__ = [
    "ANY_SHARD",
    "InterleavedShardMap",
    "ReplicatedShardMap",
]


class InterleavedShardMap:
    """Low-order-interleaved mapping between global and shard addresses.

    Args:
        capacity: global address-space size ``N`` (power of two).
        num_shards: number of shards ``K`` (power of two >= 1; the per-shard
            capacity ``N / K`` must be at least 2).
    """

    def __init__(self, capacity: int, num_shards: int) -> None:
        validate_capacity(capacity)
        if num_shards < 1 or (num_shards & (num_shards - 1)) != 0:
            raise ValueError("num_shards must be a power of two >= 1")
        if capacity // num_shards < 2:
            raise ValueError(
                f"{num_shards} shards leave fewer than 2 addresses per shard"
            )
        self.capacity = capacity
        self.num_shards = num_shards
        self.shard_capacity = capacity // num_shards

    def global_address(self, shard: int, local: int) -> int:
        """Global address of a shard-local address."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        if not 0 <= local < self.shard_capacity:
            raise ValueError(f"local address {local} out of range")
        return local * self.num_shards + shard

    def shard_data(self, data: Sequence[int], shard: int) -> list[int]:
        """The slice of the global classical memory owned by one shard."""
        if len(data) != self.capacity:
            raise ValueError("data length must equal capacity")
        return [
            data[self.global_address(shard, local)]
            for local in range(self.shard_capacity)
        ]

    def route(
        self, address_amplitudes: Mapping[int, complex]
    ) -> tuple[int, dict[int, complex]]:
        """Route an address superposition to its shard.

        Returns:
            ``(shard, local_amplitudes)`` with every global address
            translated to the shard's local address space.

        Raises:
            ValueError: if the superposition spans more than one shard (the
                shards are physically independent QRAMs).
        """
        if not address_amplitudes:
            raise ValueError("empty address superposition")
        if len(address_amplitudes) == 1:
            # Single-address queries cannot span shards; skip the set
            # machinery the general validation needs.
            (address,) = address_amplitudes
            self._check(address)
            num_shards = self.num_shards
            return address % num_shards, {
                address // num_shards: address_amplitudes[address]
            }
        capacity = self.capacity
        num_shards = self.num_shards
        shard = next(iter(address_amplitudes)) % num_shards
        spans = False
        # Every address is range-checked before a span is reported.
        for address in address_amplitudes:
            if not 0 <= address < capacity:
                raise ValueError(f"address {address} out of range")
            if address % num_shards != shard:
                spans = True
        if spans:
            shards = sorted({a % num_shards for a in address_amplitudes})
            raise ValueError(
                f"address superposition spans shards {shards}; "
                "queries must target a single shard"
            )
        return shard, {
            address // num_shards: amp
            for address, amp in address_amplitudes.items()
        }

    def to_global_outputs(
        self, shard: int, outputs: Mapping[tuple[int, int], complex]
    ) -> dict[tuple[int, int], complex]:
        """Translate a shard's ``(local_address, bus)`` amplitudes back to
        global addresses."""
        return {
            (self.global_address(shard, local), bus): amp
            for (local, bus), amp in outputs.items()
        }

    def _check(self, address: int) -> None:
        if not 0 <= address < self.capacity:
            raise ValueError(f"address {address} out of range")


class ReplicatedShardMap:
    """Full-replication placement: every shard holds the whole memory.

    Queries are not pinned to a shard by their address — ``route`` returns
    :data:`ANY_SHARD` and the serving loop places the request (shortest
    queue).

    Args:
        capacity: global address-space size ``N`` (power of two).
        num_shards: number of full-capacity replicas (>= 1; unlike
            interleaving, any count is valid).
    """

    def __init__(self, capacity: int, num_shards: int) -> None:
        validate_capacity(capacity)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.capacity = capacity
        self.num_shards = num_shards
        self.shard_capacity = capacity

    def shard_data(self, data: Sequence[int], shard: int) -> list[int]:
        """Every replica holds the full memory image."""
        if len(data) != self.capacity:
            raise ValueError("data length must equal capacity")
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        return list(data)

    def route(
        self, address_amplitudes: Mapping[int, complex]
    ) -> tuple[int, dict[int, complex]]:
        """Validate a superposition; any replica may serve it.

        Returns:
            ``(ANY_SHARD, amplitudes)`` — the serving loop chooses the
            replica at admission time.
        """
        if not address_amplitudes:
            raise ValueError("empty address superposition")
        for address in address_amplitudes:
            self._check(address)
        return ANY_SHARD, dict(address_amplitudes)

    def to_global_outputs(
        self, shard: int, outputs: Mapping[tuple[int, int], complex]
    ) -> dict[tuple[int, int], complex]:
        """Replica outputs are already in the global address space."""
        return dict(outputs)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.capacity:
            raise ValueError(f"address {address} out of range")

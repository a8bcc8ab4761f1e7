"""Execution backends for the analytic baselines: Virtual, D-Fat-Tree, D-BB.

These adapters make the paper's comparison architectures *servable*: their
timing comes from the Sec. 6.1 latency models (in raw layers), while their
functional path reuses the models' exact query unitaries — page-by-page BB
accesses for Virtual QRAM, per-copy gate-level queries for the distributed
replicas.  Every slot additionally carries a predicted fidelity from the
Sec. 8.1 bounds (:mod:`repro.backends.noise`): the per-page BB bound
accumulated over the page loop for Virtual, the per-copy Fat-Tree / BB
bound (degraded by within-copy pipelining overlap) for the distributed
baselines.

Timing models (per window of ``k`` queries, all in raw layers):

* **Virtual** — ``log N`` outstanding queries time-multiplex the same
  physical pages (Table 1 lists the same latency for 1 and ``log N``
  queries), so a window of up to ``log N`` queries is admitted concurrently
  and drains in one query lifetime.
* **D-Fat-Tree** — queries round-robin over ``log N`` independent Fat-Tree
  copies; each copy pipelines its sub-batch at the gate-level feasible
  interval.
* **D-BB** — queries round-robin over ``log N`` independent BB QRAMs; each
  copy serves its sub-batch sequentially.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Any

from repro.backends.noise import (
    ModelBackend,
    bb_bounds,
    fat_tree_bounds,
    pipelined_fidelities,
    query_slots,
    virtual_bounds,
    window_offsets,
)
from repro.baselines.distributed import DistributedBBQRAM, DistributedFatTreeQRAM
from repro.baselines.virtual_qram import VirtualQRAM
from repro.core.query import QueryRequest
from repro.hardware.parameters import HardwareParameters


class VirtualBackend(ModelBackend):
    """Serves traffic through one Virtual QRAM (Sec. 6.1).

    Args:
        capacity: memory size ``N``.
        data: optional classical memory contents.
        parameters: noise model used for the predicted slot fidelities.
    """

    name = "Virtual"
    model_class = VirtualQRAM

    def warm_schedule_caches(self) -> None:
        """Warm every page QRAM's shared executor and the window memos.

        Pages are BB QRAMs over page-local memory slices; each resolves its
        executor through the process-wide registry, so replicas of the same
        Virtual configuration share all page executors.
        """
        for page in self.model.page_qrams():
            page.cached_executor()
        super().warm_schedule_caches()

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        # Outstanding queries are admitted concurrently (page-multiplexed);
        # queries beyond the parallelism run in later full rounds.
        lifetime = self.model.raw_query_layers
        lanes = max(1, self.query_parallelism)
        total, starts, finishes = window_offsets(batch_size, lifetime, lifetime, lanes)
        return 0, total, starts, finishes

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        return virtual_bounds(
            self.capacity, self.model.num_pages, self.model.page_size, parameters
        )

    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        return query_slots(
            itertools.repeat(self.model.query), requests, self.model.data
        )


class _DistributedBackend(ModelBackend):
    """Shared window logic for the replicated baselines.

    Slot ``s`` of a window runs on copy ``s mod C`` as that copy's
    ``s div C``-th local query; concrete subclasses define the per-copy
    admission interval and lifetime.  Only same-copy queries share
    hardware, so the crosstalk degradation applies within a copy's
    sub-batch and the offsets below (per-copy local slots) encode exactly
    that overlap structure.
    """

    def _copy_timing(self) -> tuple[int, int]:  # pragma: no cover - abstract
        """(per-copy admission interval, per-query lifetime) in raw layers."""
        raise NotImplementedError

    def warm_schedule_caches(self) -> None:
        """Warm the copies' shared executor and the window memos.

        All copies hold the same memory image, so the registry resolves
        every ``cached_executor`` call to one shared entry — warming is a
        single derivation no matter how many copies the model replicates.
        """
        for copy in self.model.copies:
            copy.cached_executor()
        super().warm_schedule_caches()

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        interval, lifetime = self._copy_timing()
        total, starts, finishes = window_offsets(
            batch_size, interval, lifetime, self.model.num_copies
        )
        return interval, total, starts, finishes

    def _compute_window_fidelities(
        self,
        batch_size: int,
        starts: tuple[float, ...],
        finishes: tuple[float, ...],
    ) -> tuple[float, ...]:
        """Per-slot prediction with crosstalk restricted to same-copy slots.

        The generic offset-overlap model would couple slots on *different*
        copies (their residencies coincide in time but run on independent
        hardware); predicting each copy's sub-batch separately, from
        per-copy local offsets, and interleaving the results keeps the
        degradation physical.  The window-wide ``starts`` / ``finishes``
        are therefore unused.
        """
        interval, lifetime = self._copy_timing()
        base, crosstalk = self._infidelity_bounds(self.parameters)
        copies = self.model.num_copies
        per_copy = [
            len(range(copy, batch_size, copies)) for copy in range(copies)
        ]
        sub_batches: dict[int, tuple[float, ...]] = {}
        for size in sorted(set(per_copy)):
            if size == 0:
                continue
            _, starts, finishes = window_offsets(size, interval, lifetime)
            sub_batches[size] = pipelined_fidelities(
                base, crosstalk, starts, finishes
            )
        # Interleave the per-copy vectors back to window slot order with
        # strided slice assignment (slot s lives on copy s mod C).
        fidelities = [0.0] * batch_size
        for copy in range(copies):
            if per_copy[copy]:
                fidelities[copy::copies] = sub_batches[per_copy[copy]]
        return tuple(fidelities)

    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        return query_slots(
            itertools.cycle([copy.query for copy in self.model.copies]),
            requests,
            self.model.data,
        )


class DistributedFatTreeBackend(_DistributedBackend):
    """Serves traffic through ``log N`` independent Fat-Tree QRAMs."""

    name = "D-Fat-Tree"
    model_class = DistributedFatTreeQRAM

    def _copy_timing(self) -> tuple[int, int]:
        executor = self.model.copies[0].cached_executor()
        return executor.minimum_feasible_interval(), executor.relative_raw_latency()

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        return fat_tree_bounds(self.capacity, parameters)


class DistributedBBBackend(_DistributedBackend):
    """Serves traffic through ``log N`` independent BB QRAMs."""

    name = "D-BB"
    model_class = DistributedBBQRAM

    def _copy_timing(self) -> tuple[int, int]:
        lifetime = self.model.copies[0].raw_query_layers
        return lifetime, lifetime

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        return bb_bounds(self.capacity, parameters)

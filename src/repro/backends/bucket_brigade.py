"""Bucket-Brigade execution backend: strictly sequential windows.

Wraps :class:`repro.bucket_brigade.qram.BucketBrigadeQRAM` behind the
:class:`repro.backends.protocol.QRAMBackend` surface.  BB QRAM cannot
overlap queries, so its query parallelism is 1 and a window of ``k``
queries drains in ``k * (8n + 1)`` raw layers; the functional path runs
each query through the QRAM's cached executor, which replays one compiled
one-slot program (the BB analogue of the Fat-Tree schedule-cache fast
path).  Predicted slot fidelities come from the BB bound of Sec. 8.1;
with sequential admission the slots never overlap, so no pipelining
degradation applies.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Any

from repro.backends.noise import ModelBackend, bb_bounds, query_slots, window_offsets
from repro.bucket_brigade.qram import BucketBrigadeQRAM
from repro.core.query import QueryRequest
from repro.hardware.parameters import HardwareParameters


class BBBackend(ModelBackend):
    """Serves traffic through one Bucket-Brigade QRAM.

    Args:
        capacity: memory size ``N`` (power of two >= 2).
        data: optional classical memory contents.
        parameters: noise model used for the predicted slot fidelities.
    """

    name = "BB"
    model_class = BucketBrigadeQRAM

    def warm_schedule_caches(self) -> None:
        """Resolve the shared executor through the process-wide registry.

        The executor memoizes the compiled one-slot program; warming the
        executor itself is what lets every replica of this memory image
        share it.  The timing window of the one-query window (all BB
        admits) is pre-derived alongside.
        """
        self.model.cached_executor()
        self.timing_window(1)

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        # Sequential service: admissions are one full query apart.
        lifetime = self.model.raw_query_layers
        total, starts, finishes = window_offsets(batch_size, lifetime, lifetime)
        return lifetime, total, starts, finishes

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        return bb_bounds(self.capacity, parameters)

    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        """Run one batch of queries back to back on the cached executor."""
        return query_slots(
            itertools.repeat(self.model.query), requests, self.model.data
        )

"""Fat-Tree execution backend: query-level pipelined windows.

Wraps :class:`repro.core.qram.FatTreeQRAM` (and its memoized gate-level
executor) behind the :class:`repro.backends.protocol.QRAMBackend` surface.
A window of ``k <= log2(N)`` queries is admitted at the executor's minimum
feasible interval and drains in ``(k - 1) * interval + lifetime`` raw
layers — the paper's query-level pipelining.  Every slot carries a
predicted fidelity from the Sec. 8.1 bound evaluated at the backend's
:class:`~repro.hardware.parameters.HardwareParameters`, degraded by the
slot's pipelining overlap (:mod:`repro.backends.noise`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.backends.noise import ModelBackend, fat_tree_bounds, window_offsets
from repro.core.qram import FatTreeQRAM
from repro.core.query import QueryRequest
from repro.hardware.parameters import HardwareParameters


class FatTreeBackend(ModelBackend):
    """Serves traffic through one Fat-Tree QRAM.

    Args:
        capacity: memory size ``N`` (power of two >= 2).
        data: optional classical memory contents.
        parameters: noise model used for the predicted slot fidelities.
    """

    name = "Fat-Tree"
    model_class = FatTreeQRAM

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        executor = self.model.cached_executor()
        interval = executor.minimum_feasible_interval(batch_size)
        total, starts, finishes = window_offsets(
            batch_size, interval, executor.relative_raw_latency()
        )
        return interval, total, starts, finishes

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        return fat_tree_bounds(self.capacity, parameters)

    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        """Pipeline one batch of queries through the cached executor.

        The executor names registers by window slot, so every window of one
        occupancy replays the same compiled program.
        """
        executor = self.model.cached_executor()
        _, outputs = executor.run_pipelined_queries(requests, interval=interval)
        return (
            tuple(outputs[request.query_id] for request in requests),
            tuple(
                executor.query_fidelity(request, outputs[request.query_id])
                for request in requests
            ),
        )

"""The execution-backend protocol shared by every served QRAM architecture.

The serving layer (:mod:`repro.service`) drives traffic through *backends*:
objects that expose one architecture's query parallelism, qubit count,
fidelity predictions and a ``run_window`` primitive that executes one
batch of queries and reports per-slot timing, outputs and fidelities.  A
backend's classical memory is fixed when it is built: the paper's QRAM
serves queries over data loaded once, so nothing on this surface reads or
writes memory.  All five architectures of the paper's evaluation
(Fat-Tree, BB, Virtual, D-Fat-Tree, D-BB) provide an adapter implementing
this protocol, built through the single factory
:func:`repro.baselines.registry.build_backend` — the same registry that
drives the Tables 1-2 reproduction.

Timing convention: all window times are raw circuit layers relative to the
window's admission layer; slot ``s`` of a window starts at
``start_offsets[s]`` and finishes at ``finish_offsets[s]`` layers after
admission, and the backend is busy for ``total_layers`` layers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.query import QueryRequest, ideal_query_output, output_fidelity

__all__ = [
    "QRAMBackend",
    "WindowResult",
    "ideal_output",
    "output_fidelity",
]


@dataclass(frozen=True)
class WindowResult:
    """Outcome of running one batch of queries on one backend.

    Attributes:
        interval: admission spacing between slots in raw layers (0 when the
            architecture admits the whole window concurrently).
        total_layers: raw layers until the window fully drains (the backend
            is busy for this long).
        start_offsets: per-slot start layer, relative to window admission.
        finish_offsets: per-slot finish layer, relative to window admission.
        outputs: per-slot output amplitudes over ``(address, bus)`` pairs,
            or ``None`` per slot for timing-only execution.
        fidelities: per-slot ``|<ideal|actual>|^2`` measured on a functional
            run; on timing-only runs backends report the analytic
            *predicted* fidelity here instead of ``None``.
        predicted_fidelities: per-slot analytic fidelity prediction from the
            backend's noise model (:mod:`repro.backends.noise`) — populated
            on functional and timing-only runs alike; defaults to mirroring
            ``fidelities`` for hand-built results.
    """

    interval: int
    total_layers: float
    start_offsets: tuple[float, ...]
    finish_offsets: tuple[float, ...]
    outputs: tuple[dict[tuple[int, int], complex] | None, ...]
    fidelities: tuple[float | None, ...]
    predicted_fidelities: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicted_fidelities:
            object.__setattr__(self, "predicted_fidelities", self.fidelities)
        sizes = {
            len(self.start_offsets),
            len(self.finish_offsets),
            len(self.outputs),
            len(self.fidelities),
            len(self.predicted_fidelities),
        }
        if len(sizes) != 1:
            raise ValueError("per-slot fields must have equal lengths")
        if not self.start_offsets:
            raise ValueError("a window must contain at least one query")


@runtime_checkable
class QRAMBackend(Protocol):
    """What the serving layer requires of an executable QRAM architecture.

    Every implementation subclasses :class:`repro.backends.noise.ModelBackend`,
    which wraps one architecture model (and, for the gate-level
    architectures, its cached executor) behind this surface; the
    architectures differ only in timing parameters, noise bounds and
    functional execution (:mod:`repro.backends.fat_tree`,
    :mod:`repro.backends.bucket_brigade`, :mod:`repro.backends.analytic`,
    :mod:`repro.backends.encoded`).
    """

    @property
    def name(self) -> str:
        """Canonical architecture name (matches the registry key)."""
        ...

    @property
    def query_parallelism(self) -> int:
        """Concurrent queries one window may batch."""
        ...

    @property
    def qubit_count(self) -> int:
        """Physical qubits of the underlying hardware model."""
        ...

    def predicted_query_fidelity(self) -> float:
        """Analytic fidelity of a lone query under the backend's noise model."""
        ...

    def predicted_window_fidelities(self, batch_size: int = 1) -> tuple[float, ...]:
        """Analytic per-slot fidelity of a window of ``batch_size`` queries,
        including pipelining-depth degradation."""
        ...

    def run_window(
        self, requests: Sequence[QueryRequest], functional: bool = True
    ) -> WindowResult:
        """Execute one batch of (backend-local) queries.

        The requests must carry distinct ``query_id`` values: a window's
        outputs are keyed by id, and backends may refuse a repeated one.
        The result's ``predicted_fidelities`` equals
        ``predicted_window_fidelities(len(requests))``: the engine reads a
        window's predictions from the result it ran.
        """
        ...


def ideal_output(
    data: Sequence[int], request: QueryRequest
) -> dict[tuple[int, int], complex]:
    """Ideal normalised output of a request per the query unitary of Eq. (1).

    Thin request-level wrapper over
    :func:`repro.core.query.ideal_query_output` — the one implementation
    the executors score against as well.
    """
    return ideal_query_output(
        data, dict(request.address_amplitudes or {}), request.initial_bus
    )

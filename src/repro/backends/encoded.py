"""QEC-encoded backend variants: serve logical queries at a code distance.

Wraps any :class:`repro.backends.protocol.QRAMBackend` in the spec-level
resource and fidelity model of Sec. 8.3 so a fleet can mix bare and
encoded replicas:

* **fidelity** — the wrapped architecture's Sec. 8.1 bound evaluated at
  the *logical* error rates of
  :func:`repro.fidelity.qec.encoded_parameters` (the threshold scaling
  ``p_L = A (p / p_th)^((d+1)/2)``), so an encoded replica predicts far
  higher slot fidelities than its bare twin;
* **resources** — every physical qubit becomes an ``[[m, 1, d]]`` logical
  qubit (``m = d^2`` for the assumed surface-code-like family), so the
  qubit count scales by ``m``;
* **timing** — the Table-5 pipelined-logical-query model: each raw layer
  stretches by the syndrome-extraction depth ``D`` and a logical query
  trails its ``m`` pipelined physical address qubits, giving per-slot
  latency ``D * t + m`` and logical parallelism ``max(1, parallelism / m)``
  (``D log2(N) + m`` and ``floor(log2(N) / m)`` for Fat-Tree, Table 5).

Encoded replicas report their *predicted* fidelity on functional windows
too: the gate-level executors simulate the bare circuit, whose measured
fidelity says nothing about the logical encoding; outputs still pass
through so functional serving keeps returning amplitudes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.backends.noise import ModelBackend
from repro.core.query import QueryRequest
from repro.fidelity.qec import DEFAULT_THRESHOLD, QECCode, encoded_parameters
from repro.hardware.parameters import HardwareParameters

__all__ = ["EncodedBackend", "encoded_backend_name", "parse_encoded_name"]

#: Suffix separator of encoded architecture names: ``"Fat-Tree@d3"``.
_DISTANCE_SEPARATOR = "@d"


def encoded_backend_name(architecture: str, distance: int) -> str:
    """The registry name of an encoded variant: ``"<architecture>@d<k>"``."""
    return f"{architecture}{_DISTANCE_SEPARATOR}{distance}"


def parse_encoded_name(name: str) -> tuple[str, int]:
    """Split ``"<architecture>@d<k>"`` into ``(architecture, distance)``.

    A bare architecture name parses as distance 1 (no encoding).

    Raises:
        ValueError: for a malformed distance suffix (``"@d"`` present but
            not followed by a positive integer).
    """
    base, separator, suffix = name.rpartition(_DISTANCE_SEPARATOR)
    if not separator:
        return name, 1
    try:
        distance = int(suffix)
    except ValueError:
        raise ValueError(
            f"malformed encoded architecture name {name!r}; expected "
            f"'<architecture>{_DISTANCE_SEPARATOR}<distance>'"
        ) from None
    if distance < 1:
        raise ValueError(f"code distance must be >= 1, got {distance}")
    return base, distance


class EncodedBackend(ModelBackend):
    """A QEC-encoded replica of any serving backend.

    The wrapped bare backend is this adapter's ``model``: capacity and the
    memory image delegate to it, while parallelism, qubits, window timing
    and predictions are rescaled by the assumed
    ``[[d^2, 1, d]]`` surface-code-like code at the family's
    :data:`~repro.fidelity.qec.DEFAULT_THRESHOLD`.

    Args:
        backend: the bare backend to encode.
        distance: code distance ``d`` (>= 2; use the bare backend for
            ``d = 1``).
    """

    def __init__(self, backend: ModelBackend, distance: int) -> None:
        if distance < 2:
            raise ValueError(
                "EncodedBackend needs distance >= 2; distance 1 is the bare backend"
            )
        self.model = backend
        self.distance = distance
        self.code = QECCode(physical_qubits=distance * distance, distance=distance)
        self.name = encoded_backend_name(backend.name, distance)
        self.parameters = encoded_parameters(
            backend.parameters, distance, DEFAULT_THRESHOLD
        )

    # -------------------------------------------------------------- structure
    @property
    def query_parallelism(self) -> int:
        """Logical parallelism: ``m`` pipelined physical queries make one
        logical query (Table 5), never below 1."""
        return max(1, self.model.query_parallelism // self.code.physical_qubits)

    @property
    def qubit_count(self) -> int:
        return self.code.physical_qubits * self.model.qubit_count

    def warm_schedule_caches(self) -> None:
        """Warm the bare inner backend's shared schedule caches.

        Encoding rescales timing and fidelity analytically on top of the
        bare schedule, so the inner backend's registry entry dominates the
        cache footprint of an encoded replica; the wrapper's own timing
        windows are pre-derived alongside.
        """
        self.model.warm_schedule_caches()
        super().warm_schedule_caches()

    # ----------------------------------------------------------------- timing
    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        depth = self.code.syndrome_depth
        trailer = self.code.physical_qubits
        interval, total, starts, finishes = self.model._window_offsets(batch_size)
        # One array expression per window: `depth * x` is a single IEEE
        # multiply either way, and the finish expression keeps the
        # scalar's association `(depth * finish) + trailer`.
        starts_arr = np.asarray(starts, dtype=np.float64) * depth
        finishes_arr = (
            np.asarray(finishes, dtype=np.float64) * depth + float(trailer)
        )
        return (
            depth * interval,
            depth * total + trailer,
            tuple(starts_arr.tolist()),
            tuple(finishes_arr.tolist()),
        )

    # --------------------------------------------------------------- fidelity
    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        """The bare architecture's bounds, evaluated at the logical error
        rates this wrapper derived at construction."""
        return self.model._infidelity_bounds(parameters)

    # -------------------------------------------------------------- execution
    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        """The bare backend's outputs with the encoded prediction as the
        slot fidelity (the gate-level run simulates the bare circuit)."""
        outputs = self.model.run_window(requests, functional=True).outputs
        return outputs, self.predicted_window_fidelities(len(requests))

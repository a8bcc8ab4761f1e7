"""Uniform architecture interface and registry — the single factory.

Every shared-QRAM model in this repository exposes the same architecture-
level surface (the attributes used by Tables 1-2 and the benchmark harness):

* ``capacity``, ``data`` (the memory image, fixed at construction)
* ``qubit_count``
* ``query_parallelism``
* ``single_query_latency()``, ``parallel_query_latency(k)``,
  ``amortized_query_latency(k)`` — all in weighted circuit layers
* ``query(address_amplitudes)`` — a functional query

This registry is the one place architectures are instantiated from, for
both uses of the repository:

* ``build_architecture(name, capacity)`` — the raw model, for table
  reproduction and closed-form comparisons;
* ``build_backend(name, capacity)`` — the same architecture wrapped in a
  :class:`repro.backends.protocol.QRAMBackend` execution adapter, for the
  traffic-facing serving layer (:mod:`repro.service`).

All five models of the evaluation are registered: Fat-Tree, D-Fat-Tree,
BB, D-BB and Virtual.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.baselines.distributed import DistributedBBQRAM, DistributedFatTreeQRAM
from repro.baselines.virtual_qram import VirtualQRAM
from repro.bucket_brigade.qram import BucketBrigadeQRAM
from repro.core.qram import FatTreeQRAM


@dataclass(frozen=True)
class ArchitectureSpec:
    """Registry entry for one shared-QRAM architecture.

    Attributes:
        name: canonical name used in tables and figures.
        factory: callable building a model instance from (capacity, data).
        qubit_group: "O(N)" for the same-qubit-count group (Fat-Tree, BB,
            Virtual) or "O(N log N)" for the distributed group.
        backend: execution adapter for the serving layer — a callable
            building a :class:`repro.backends.protocol.QRAMBackend` from
            (capacity, data), or a ``"module:attribute"`` path resolved
            lazily (the built-in adapters import the model classes above,
            so eager references here would be circular).  ``None`` marks an
            architecture that cannot serve traffic.
    """

    name: str
    factory: Callable[..., object]
    qubit_group: str
    backend: Callable[..., object] | str | None = None

    def backend_factory(self) -> Callable[..., object]:
        """Resolve the execution-adapter callable for this architecture.

        Raises:
            KeyError: when the architecture declares no backend.
        """
        if self.backend is None:
            raise KeyError(
                f"architecture {self.name!r} has no execution backend; "
                f"serving-capable architectures: {backend_names()}"
            )
        if callable(self.backend):
            return self.backend
        module_name, _, attribute = self.backend.partition(":")
        return getattr(importlib.import_module(module_name), attribute)


ARCHITECTURES: dict[str, ArchitectureSpec] = {
    "Fat-Tree": ArchitectureSpec(
        "Fat-Tree", FatTreeQRAM, "O(N)",
        backend="repro.backends.fat_tree:FatTreeBackend",
    ),
    "BB": ArchitectureSpec(
        "BB", BucketBrigadeQRAM, "O(N)",
        backend="repro.backends.bucket_brigade:BBBackend",
    ),
    "Virtual": ArchitectureSpec(
        "Virtual", VirtualQRAM, "O(N)",
        backend="repro.backends.analytic:VirtualBackend",
    ),
    "D-Fat-Tree": ArchitectureSpec(
        "D-Fat-Tree", DistributedFatTreeQRAM, "O(N log N)",
        backend="repro.backends.analytic:DistributedFatTreeBackend",
    ),
    "D-BB": ArchitectureSpec(
        "D-BB", DistributedBBQRAM, "O(N log N)",
        backend="repro.backends.analytic:DistributedBBBackend",
    ),
}


def architecture_names() -> list[str]:
    """Names of all registered architectures, in the paper's order."""
    return list(ARCHITECTURES)


def backend_names() -> list[str]:
    """Names of the architectures that can serve traffic.

    Derived from the specs' ``backend`` entries, so registering a new
    architecture keeps this list and :func:`build_backend` consistent.
    """
    return [name for name, spec in ARCHITECTURES.items() if spec.backend is not None]


def resolve_architecture(name: str) -> ArchitectureSpec:
    """Look up a registry entry, accepting any capitalization.

    Raises:
        KeyError: for unknown architecture names.
    """
    spec = ARCHITECTURES.get(name)
    if spec is not None:
        return spec
    folded = name.casefold()
    for canonical, candidate in ARCHITECTURES.items():
        if canonical.casefold() == folded:
            return candidate
    raise KeyError(
        f"unknown architecture {name!r}; expected one of {architecture_names()}"
    )


def build_architecture(
    name: str, capacity: int, data: Sequence[int] | None = None
):
    """Instantiate an architecture model by name.

    Args:
        name: one of :func:`architecture_names` (case-insensitive).
        capacity: QRAM capacity ``N``.
        data: optional classical memory contents.

    Raises:
        KeyError: for unknown architecture names.
    """
    return resolve_architecture(name).factory(capacity, data)


def build_backend(
    name: str,
    capacity: int,
    data: Sequence[int] | None = None,
    parameters=None,
):
    """Instantiate an execution backend by architecture name.

    The returned object implements
    :class:`repro.backends.protocol.QRAMBackend` and is what
    :class:`repro.service.QRAMService` shards are made of.

    QEC-encoded variants are built from the same factory: suffix the
    architecture name with ``@d<k>`` (``"Fat-Tree@d3"``, any registered
    backend works) to wrap the bare adapter in
    :class:`repro.backends.encoded.EncodedBackend`, which maps the
    fidelity through the logical error rates of
    :func:`repro.fidelity.qec.encoded_parameters` and the resources/timing
    through the Table-5 pipelined-logical-query model.  A fleet can
    therefore mix bare and encoded replicas by name alone.

    Args:
        name: one of :func:`backend_names` (case-insensitive), optionally
            with an ``@d<k>`` distance suffix.
        capacity: QRAM capacity ``N`` of this backend.
        data: optional classical memory contents.
        parameters: optional
            :class:`~repro.hardware.parameters.HardwareParameters` noise
            model for the adapter's predicted fidelities (defaults to the
            paper's parameter set).

    Raises:
        KeyError: for unknown architecture names, or for a registered
            architecture without an execution backend.
        ValueError: for a malformed ``@d<k>`` suffix.
    """
    from repro.backends.encoded import EncodedBackend, parse_encoded_name

    base_name, distance = parse_encoded_name(name)
    factory = resolve_architecture(base_name).backend_factory()
    backend = (
        factory(capacity, data)
        if parameters is None
        else factory(capacity, data, parameters=parameters)
    )
    if distance == 1:
        return backend
    return EncodedBackend(backend, distance)

"""Quantum error correction analysis (Sec. 8.3, Fig. 11, Table 5).

Two scenarios:

1. *Encoded QRAM* — every physical qubit is replaced by an ``[[m, 1, d]]``
   logical qubit with transversal SWAP / CSWAP.  The per-gate logical error
   rate follows the standard threshold scaling
   ``p_L = A (p / p_th)^((d+1)/2)`` and the query infidelity keeps QRAM's
   ``O(log^2 N)`` scaling while a generic circuit of the same size degrades
   exponentially with tree depth (Fig. 11).

2. *Error-corrected queries on a noisy QRAM* (Sec. 8.3.2) — only the
   address/bus qubits are encoded; the ``m`` physical qubits of each logical
   address qubit are routed as ``m`` pipelined queries, giving the resource
   trade-off of Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.bucket_brigade.tree import validate_capacity
from repro.fidelity.noise_resilience import (
    bb_query_infidelity,
    fat_tree_query_infidelity,
    generic_circuit_infidelity,
)
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters

#: Threshold error rate of the assumed code family (surface-code-like).
DEFAULT_THRESHOLD = 1.0e-2
#: Prefactor of the logical error-rate scaling law.
DEFAULT_PREFACTOR = 0.1


@dataclass(frozen=True)
class QECCode:
    """An ``[[m, 1, d]]`` quantum error-correcting code.

    Attributes:
        physical_qubits: ``m``, physical qubits per logical qubit.
        distance: code distance ``d``.
        syndrome_depth: depth ``D`` of one syndrome-extraction round.
    """

    physical_qubits: int
    distance: int
    syndrome_depth: int = 4

    def __post_init__(self) -> None:
        if self.physical_qubits < 1 or self.distance < 1 or self.syndrome_depth < 1:
            raise ValueError("code parameters must be positive")
        if self.distance > self.physical_qubits:
            raise ValueError("distance cannot exceed the number of physical qubits")


def logical_error_rate(
    physical_error: float,
    distance: int,
    threshold: float = DEFAULT_THRESHOLD,
    prefactor: float = DEFAULT_PREFACTOR,
) -> float:
    """Logical error per gate: ``A (p / p_th)^((d+1)/2)`` (d=1 -> physical)."""
    if distance <= 1:
        return physical_error
    exponent = (distance + 1) // 2
    return min(1.0, prefactor * (physical_error / threshold) ** exponent)


def encoded_parameters(
    parameters: HardwareParameters,
    distance: int,
    threshold: float = DEFAULT_THRESHOLD,
) -> HardwareParameters:
    """Hardware parameters with every error rate replaced by its logical one.

    ``distance <= 1`` is the unencoded passthrough: the physical parameters
    are returned unchanged, so encoded expressions evaluated at ``d = 1``
    reproduce the bare Sec. 8.1 bounds exactly.
    """
    if distance <= 1:
        return parameters
    return HardwareParameters(
        cswap_time_us=parameters.cswap_time_us,
        intra_node_swap_time_us=parameters.intra_node_swap_time_us,
        cswap_error=logical_error_rate(parameters.cswap_error, distance, threshold),
        inter_node_swap_error=logical_error_rate(
            parameters.inter_node_swap_error, distance, threshold
        ),
        intra_node_swap_error=logical_error_rate(
            parameters.intra_node_swap_error, distance, threshold
        ),
    )


def encoded_infidelity(
    architecture: str,
    capacity: int,
    distance: int,
    parameters: HardwareParameters = DEFAULT_PARAMETERS,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Query (or circuit) infidelity when every gate is encoded at ``distance``.

    The architecture-level infidelity expressions of Sec. 8.1 are reused with
    the physical error rates replaced by logical ones; ``distance = 1`` is
    the exact unencoded bound.
    """
    effective = encoded_parameters(parameters, distance, threshold)
    if architecture == "Fat-Tree":
        return fat_tree_query_infidelity(capacity, effective)
    if architecture == "BB":
        return bb_query_infidelity(capacity, effective)
    if architecture == "GC":
        return generic_circuit_infidelity(capacity, effective)
    raise KeyError(f"unknown architecture {architecture!r}")


def fig11_series(
    tree_depths: Sequence[int] = tuple(range(2, 19, 2)),
    distances: Sequence[int] = (1, 3, 5),
    base_error: float = 1e-3,
) -> dict[str, list[float]]:
    """Infidelity vs tree depth for Fat-Tree / BB / generic circuits (Fig. 11).

    Keys are ``"{architecture} d={distance}"`` with ``d=1`` meaning no QEC.
    """
    parameters = HardwareParameters(
        cswap_error=base_error,
        inter_node_swap_error=base_error,
        intra_node_swap_error=base_error / 2.0,
    )
    series: dict[str, list[float]] = {}
    for architecture in ("Fat-Tree", "BB", "GC"):
        for distance in distances:
            label = f"{architecture} d={distance}"
            series[label] = [
                encoded_infidelity(architecture, 2**n, distance, parameters)
                for n in tree_depths
            ]
    series["tree_depth"] = [float(n) for n in tree_depths]
    return series


def max_depth_below_infidelity(
    architecture: str,
    distance: int,
    target_infidelity: float,
    max_depth: int = 24,
    parameters: HardwareParameters | None = None,
) -> int:
    """Largest tree depth whose infidelity stays below the target.

    Reproduces the Sec. 8.3 comparison: at distance 3 and the default
    parameters, a generic circuit is limited to a much smaller depth than a
    QRAM circuit for the same infidelity budget.
    """
    params = parameters or HardwareParameters(
        cswap_error=1e-3, inter_node_swap_error=1e-3, intra_node_swap_error=5e-4
    )
    best = 0
    for n in range(1, max_depth + 1):
        if encoded_infidelity(architecture, 2**n, distance, params) < target_infidelity:
            best = n
        else:
            break
    return best


def table5_rows(capacity: int, code: QECCode) -> list[dict[str, object]]:
    """Error-corrected query on a noisy QRAM vs an encoded BB QRAM (Table 5).

    Fat-Tree pipelines the ``m`` physical qubits of each encoded address
    qubit as ``m`` queries, so ``floor(log2(N) / m)`` logical queries run in
    parallel on ``N``-scale physical hardware, with logical query latency
    ``D log2(N) + m``; the encoded BB QRAM needs ``m N`` physical qubits and
    has latency ``D log2(N)`` with no parallelism.
    """
    n = validate_capacity(capacity)
    m = code.physical_qubits
    d = code.syndrome_depth
    return [
        {
            "architecture": "Fat-Tree (noisy QRAM, encoded addresses)",
            "physical_qubits": capacity,
            "logical_query_parallelism": max(0, n // m),
            "logical_query_latency": d * n + m,
        },
        {
            "architecture": "BB (fully encoded QRAM)",
            "physical_qubits": m * capacity,
            "logical_query_parallelism": 1,
            "logical_query_latency": d * n,
        },
    ]

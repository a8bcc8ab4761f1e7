"""QRAM bandwidth (Table 2, Fig. 8).

Bandwidth is the rate at which data qubits are written into bus qubits
(qubits/second); it equals ``bus_width / amortized_query_latency`` at the
hardware clock speed (CLOPS).  The paper's numbers use a 1 us CSWAP
(CLOPS = 1e6) and bus width 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.registry import architecture_names, build_architecture
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters


def bandwidth_qubits_per_second(
    name: str,
    capacity: int,
    parameters: HardwareParameters = DEFAULT_PARAMETERS,
    bus_width: int = 1,
) -> float:
    """Bandwidth of one architecture at one capacity (Table 2 / Fig. 8)."""
    qram = build_architecture(name, capacity)
    return bus_width * qram.bandwidth(parameters.clops)


def bandwidth_scaling(
    capacities: Sequence[int],
    architectures: Sequence[str] | None = None,
    parameters: HardwareParameters = DEFAULT_PARAMETERS,
) -> dict[str, list[float]]:
    """Bandwidth of every architecture across capacities (Fig. 8 series)."""
    names = list(architectures) if architectures else architecture_names()
    return {
        name: [bandwidth_qubits_per_second(name, c, parameters) for c in capacities]
        for name in names
    }


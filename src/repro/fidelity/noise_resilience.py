"""Analytic noise-resilience bounds for QRAM queries (Sec. 8.1, Table 3).

The paper's bound: with per-gate error channels of rates ``eps0`` (CSWAP),
``eps1`` (inter-node SWAP) and ``eps2`` (intra-node SWAP), a Fat-Tree query
has fidelity

    F >= 1 - 2 log2(N)^2 (eps0 + eps1 + eps2),

while BB QRAM (which has no intra-node SWAPs) obeys the same bound without
``eps2``.  Table 3 evaluates the Fat-Tree bound with ``eps1 = eps0`` and
``eps2 = eps0 / 2`` (the ratio of the experimentally reported rates), giving
infidelity ``5 eps0 log2(N)^2``: 0.045 / 0.08 / 0.125 / 0.18 for N = 8..64 at
``eps0 = 1e-3``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bucket_brigade.tree import validate_capacity
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters


def fat_tree_query_infidelity(
    capacity: int, parameters: HardwareParameters = DEFAULT_PARAMETERS
) -> float:
    """Upper bound on Fat-Tree query infidelity: ``2 n^2 (eps0+eps1+eps2)``."""
    n = validate_capacity(capacity)
    return min(1.0, 2.0 * n * n * parameters.total_gate_error)


def bb_query_infidelity(
    capacity: int, parameters: HardwareParameters = DEFAULT_PARAMETERS
) -> float:
    """Upper bound on BB query infidelity: ``2 n^2 (eps0 + eps1)``."""
    n = validate_capacity(capacity)
    rate = parameters.cswap_error + parameters.inter_node_swap_error
    return min(1.0, 2.0 * n * n * rate)


def generic_circuit_infidelity(
    capacity: int, parameters: HardwareParameters = DEFAULT_PARAMETERS
) -> float:
    """Worst-case infidelity of a generic circuit of the same size.

    A generic circuit touching all ``O(N)`` qubits has infidelity growing
    linearly with its gate count (~``2 N`` CSWAP-equivalents for a QRAM-sized
    circuit), i.e. exponentially in the tree depth ``n`` — the comparison
    curve of Fig. 11.
    """
    capacity = int(capacity)
    validate_capacity(capacity)
    return min(1.0, 2.0 * capacity * parameters.total_gate_error)


def table3_rows(
    capacities: Sequence[int] = (8, 16, 32, 64),
    base_error_rates: Sequence[float] = (1e-3, 1e-4, 1e-5),
) -> list[dict[str, float | int]]:
    """Query infidelity of Fat-Tree QRAM for Table 3.

    ``eps1 = eps0`` and ``eps2 = eps0 / 2`` as in the paper's parameter set.
    """
    rows = []
    for capacity in capacities:
        row: dict[str, float | int] = {"capacity": capacity}
        for eps0 in base_error_rates:
            params = HardwareParameters(
                cswap_error=eps0,
                inter_node_swap_error=eps0,
                intra_node_swap_error=eps0 / 2.0,
            )
            row[f"infidelity_eps0_{eps0:g}"] = fat_tree_query_infidelity(
                capacity, params
            )
        rows.append(row)
    return rows

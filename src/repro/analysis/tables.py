"""Regenerate Table 5 of the paper.

Tables 1-4 come straight from their modules: ``metrics.resources.table1_rows``,
``metrics.spacetime.table2_rows``, ``fidelity.noise_resilience.table3_rows``
and ``fidelity.distillation.table4_comparison``.
"""

from __future__ import annotations

from repro.fidelity.qec import QECCode, table5_rows


def generate_table5(
    capacity: int = 1024, physical_qubits: int = 5, distance: int = 3
) -> list[dict[str, object]]:
    """Table 5: error-corrected queries with a noisy Fat-Tree QRAM."""
    code = QECCode(physical_qubits=physical_qubits, distance=distance)
    return table5_rows(capacity, code)

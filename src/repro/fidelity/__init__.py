"""Error robustness of Fat-Tree QRAM (Sec. 8).

* :mod:`repro.fidelity.noise_resilience` — analytic query-fidelity bounds
  (Sec. 8.1, Table 3).
* :mod:`repro.fidelity.distillation` — virtual distillation with parallel
  queries (Sec. 8.2, Table 4).
* :mod:`repro.fidelity.qec` — QEC overhead analysis: encoded QRAM (Fig. 11)
  and error-corrected queries on a noisy QRAM (Table 5).
"""

from repro.fidelity.noise_resilience import (
    bb_query_infidelity,
    fat_tree_query_infidelity,
    generic_circuit_infidelity,
    table3_rows,
)
from repro.fidelity.distillation import (
    distilled_infidelity,
    table4_comparison,
    virtual_distillation_fidelity,
)
from repro.fidelity.qec import (
    QECCode,
    encoded_infidelity,
    encoded_parameters,
    fig11_series,
    logical_error_rate,
    table5_rows,
)

__all__ = [
    "fat_tree_query_infidelity",
    "bb_query_infidelity",
    "generic_circuit_infidelity",
    "table3_rows",
    "virtual_distillation_fidelity",
    "distilled_infidelity",
    "table4_comparison",
    "QECCode",
    "logical_error_rate",
    "encoded_infidelity",
    "encoded_parameters",
    "fig11_series",
    "table5_rows",
]

"""Parallel quantum algorithms that consume shared-QRAM queries (Sec. 6.3, 7.3).

Each algorithm model describes how many parallel query streams it issues, how
many queries each stream makes, and how much QPU processing separates
consecutive queries.  :mod:`repro.algorithms.depth_model` maps those query
streams onto a QRAM architecture (one closed-loop serving-engine run) to
obtain the overall circuit depth of Fig. 9; :mod:`repro.algorithms.synthetic`
generates the parameterised workloads of Fig. 10.
"""

from repro.algorithms.profile import AlgorithmProfile
from repro.algorithms.grover import parallel_grover_profile, grover_iterations
from repro.algorithms.ksum import parallel_ksum_profile, ksum_queries
from repro.algorithms.hamiltonian import (
    hamiltonian_simulation_profile,
    hamiltonian_query_count,
)
from repro.algorithms.qsp import parallel_qsp_profile, qsp_query_count
from repro.algorithms.synthetic import SyntheticAlgorithm, synthetic_sweep
from repro.algorithms.depth_model import (
    algorithm_depth,
    fig9_depths,
    asymptotic_depth_reduction,
)

__all__ = [
    "AlgorithmProfile",
    "parallel_grover_profile",
    "grover_iterations",
    "parallel_ksum_profile",
    "ksum_queries",
    "hamiltonian_simulation_profile",
    "hamiltonian_query_count",
    "parallel_qsp_profile",
    "qsp_query_count",
    "SyntheticAlgorithm",
    "synthetic_sweep",
    "algorithm_depth",
    "fig9_depths",
    "asymptotic_depth_reduction",
]

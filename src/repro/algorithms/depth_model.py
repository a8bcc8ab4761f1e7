"""Overall circuit depth of parallel algorithms on shared QRAMs (Fig. 9).

An algorithm profile (``p`` parallel streams, ``Q`` queries per stream,
processing ``d`` between queries) is mapped onto a QRAM architecture by one
closed-loop :class:`repro.engine.ServiceEngine` run: every stream is a
client on its own QPU, and the QRAM's
:class:`~repro.scheduling.contention.QRAMServiceModel` determines how its
queries serialise or pipeline.  The reported
*overall circuit depth* is the completion time of the slowest stream in
weighted circuit layers — exactly the quantity compared in Fig. 9.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.grover import parallel_grover_profile
from repro.algorithms.hamiltonian import hamiltonian_simulation_profile
from repro.algorithms.ksum import parallel_ksum_profile
from repro.algorithms.profile import AlgorithmProfile
from repro.algorithms.qsp import parallel_qsp_profile
from repro.baselines.registry import architecture_names, build_architecture
from repro.bucket_brigade.tree import validate_capacity
from repro.engine import ClosedLoopClient
from repro.scheduling.contention import QRAMServiceModel, serve_closed_loop


def algorithm_depth(profile: AlgorithmProfile, qram) -> float:
    """Overall circuit depth of one algorithm on one QRAM architecture."""
    model = QRAMServiceModel.from_architecture(qram)
    clients = [
        ClosedLoopClient(
            stream,
            queries=profile.queries_per_stream,
            think_layers=profile.processing_layers,
        )
        for stream in range(profile.parallel_streams)
    ]
    return serve_closed_loop(model, clients).overall_depth


def default_profiles(capacity: int, qsp_degree: int = 30) -> list[AlgorithmProfile]:
    """The four Fig. 9 benchmark applications at one capacity."""
    return [
        parallel_grover_profile(capacity),
        parallel_ksum_profile(capacity),
        hamiltonian_simulation_profile(capacity),
        parallel_qsp_profile(capacity, degree=qsp_degree),
    ]


def fig9_depths(
    capacity: int = 1024,
    architectures: Sequence[str] | None = None,
    qsp_degree: int = 30,
) -> dict[str, dict[str, float]]:
    """Overall circuit depth of every benchmark on every architecture.

    Returns:
        ``{algorithm name: {architecture name: depth}}`` — the data behind
        the bar charts of Fig. 9.
    """
    validate_capacity(capacity)
    names = list(architectures) if architectures else architecture_names()
    results: dict[str, dict[str, float]] = {}
    for profile in default_profiles(capacity, qsp_degree):
        row: dict[str, float] = {}
        for name in names:
            qram = build_architecture(name, capacity)
            row[name] = algorithm_depth(profile, qram)
        results[profile.name] = row
    return results


def asymptotic_depth_reduction(capacity: int = 1024) -> dict[str, float]:
    """Depth reduction factor of Fat-Tree over BB per benchmark (<= ~10x)."""
    depths = fig9_depths(capacity, architectures=("Fat-Tree", "BB"))
    return {
        algorithm: row["BB"] / row["Fat-Tree"] for algorithm, row in depths.items()
    }

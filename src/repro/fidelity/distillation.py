"""Virtual distillation using parallel Fat-Tree queries (Sec. 8.2, Table 4).

Virtual distillation estimates observables on the "distilled" state
``rho^k / Tr(rho^k)`` from ``k`` noisy copies of ``rho``.  When the noisy
query state is ``rho = (1 - eps) rho_0 + eps rho_err`` with the error
component spread over states (nearly) orthogonal to the ideal state, the
distilled state's infidelity is suppressed from ``eps`` to approximately
``eps^k`` (exactly ``eps^k / ((1-eps)^k + eps^k)`` for a single orthogonal
error state; the paper quotes the leading-order ``eps^k``).

Fat-Tree QRAM can prepare ``log N`` copies in parallel; with the same qubit
budget (256 qubits), a capacity-16 Fat-Tree prepares 4 copies while two
capacity-16 BB QRAMs prepare only 2, which is where the exponential fidelity
separation of Table 4 comes from.
"""

from __future__ import annotations

import numpy as np

from repro.bucket_brigade.qram import QUBITS_PER_ROUTER
from repro.bucket_brigade.tree import validate_capacity
from repro.fidelity.noise_resilience import (
    bb_query_infidelity,
    fat_tree_query_infidelity,
)
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters


def distilled_infidelity(infidelity: float, copies: int, exact: bool = False) -> float:
    """Infidelity after virtual distillation with ``copies`` noisy copies.

    Args:
        infidelity: per-copy infidelity ``eps``.
        copies: number of parallel copies ``k``.
        exact: use the exact single-orthogonal-error-state expression
            ``eps^k / ((1-eps)^k + eps^k)`` instead of the leading-order
            ``eps^k`` quoted by the paper.
    """
    if not 0.0 <= infidelity <= 1.0:
        raise ValueError("infidelity must be in [0, 1]")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return infidelity
    if exact:
        good = (1.0 - infidelity) ** copies
        bad = infidelity**copies
        return bad / (good + bad)
    return infidelity**copies


def virtual_distillation_fidelity(
    capacity: int,
    copies: int,
    architecture: str = "Fat-Tree",
    parameters: HardwareParameters = DEFAULT_PARAMETERS,
    exact: bool = False,
) -> tuple[float, float]:
    """(fidelity before, fidelity after) distillation for one architecture."""
    if architecture == "Fat-Tree":
        eps = fat_tree_query_infidelity(capacity, parameters)
    elif architecture == "BB":
        eps = bb_query_infidelity(capacity, parameters)
    else:
        raise KeyError(f"unsupported architecture {architecture!r}")
    return 1.0 - eps, 1.0 - distilled_infidelity(eps, copies, exact=exact)


def table4_comparison(
    capacity: int = 16,
    parameters: HardwareParameters = DEFAULT_PARAMETERS,
) -> dict[str, dict[str, float]]:
    """Table 4: Fat-Tree vs two BB QRAMs at equal qubit budget (256 qubits).

    A capacity-16 Fat-Tree (16 N = 256 qubits) pipelines ``log2(16) = 4``
    copies; two capacity-16 BB QRAMs (2 x 8 N = 256 qubits) produce 2 copies.
    """
    n = validate_capacity(capacity)
    fat_tree_copies = n
    bb_copies = 2
    ft_before, ft_after = virtual_distillation_fidelity(
        capacity, fat_tree_copies, "Fat-Tree", parameters
    )
    bb_before, bb_after = virtual_distillation_fidelity(
        capacity, bb_copies, "BB", parameters
    )
    qubits = 2 * QUBITS_PER_ROUTER * capacity
    return {
        "Fat-Tree": {
            "qubits": qubits,
            "copies": fat_tree_copies,
            "fidelity_before": ft_before,
            "fidelity_after": ft_after,
        },
        "2 BB": {
            "qubits": qubits,
            "copies": bb_copies,
            "fidelity_before": bb_before,
            "fidelity_after": bb_after,
        },
    }


def density_matrix_distillation(
    ideal_state: np.ndarray, infidelity: float, copies: int, error_rank: int = 1
) -> float:
    """Exact density-matrix virtual distillation of a small query state.

    Builds ``rho = (1 - eps)|psi><psi| + eps rho_err`` with the error spread
    uniformly over ``error_rank`` orthogonal states, computes
    ``<psi| rho^k |psi> / Tr(rho^k)`` exactly, and returns the distilled
    fidelity.  With ``error_rank = 1`` this reproduces
    :func:`distilled_infidelity` (exact form) identically; spreading the error
    over more orthogonal states only improves the distilled fidelity.
    """
    psi = np.asarray(ideal_state, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    dim = psi.shape[0]
    if dim < 2:
        raise ValueError("need at least a qubit-sized state")
    if not 1 <= error_rank < dim:
        raise ValueError("error_rank must be in [1, dim)")
    projector = np.outer(psi, psi.conj())
    # Orthonormal basis of the orthogonal complement (Gram-Schmidt via QR).
    basis = np.linalg.qr(
        np.eye(dim, dtype=complex) - projector
    )[0]
    complement = [
        v for v in basis.T if abs(np.vdot(psi, v)) < 1e-9 and np.linalg.norm(v) > 1e-9
    ][:error_rank]
    rho_err = sum(np.outer(v, v.conj()) for v in complement) / len(complement)
    rho = (1.0 - infidelity) * projector + infidelity * rho_err
    power = np.linalg.matrix_power(rho, copies)
    return float(np.real(psi.conj() @ power @ psi / np.trace(power)))


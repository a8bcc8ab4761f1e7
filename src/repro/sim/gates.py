"""Gate library shared by all simulators.

Two views of every gate are provided:

* a dense unitary matrix (:func:`gate_unitary`), used by the statevector and
  density-matrix simulators, and
* where applicable, a *classical permutation* action on computational basis
  bits (:meth:`Gate.permute_bits`), used by the sparse basis-state simulator.

QRAM routing circuits consist almost exclusively of permutation gates
(X, CX, CCX, SWAP, CSWAP and classically controlled X), which is what makes the
sparse simulator exact and fast for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _h() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


def _s() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _t() -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def _identity(n_qubits: int) -> np.ndarray:
    return np.eye(2**n_qubits, dtype=complex)


def _controlled(unitary: np.ndarray, n_controls: int = 1) -> np.ndarray:
    """Build a controlled version of ``unitary`` with ``n_controls`` controls.

    Control qubits are the most significant bits of the resulting matrix.
    """
    dim = unitary.shape[0]
    total = dim * (2**n_controls)
    out = np.eye(total, dtype=complex)
    out[total - dim:, total - dim:] = unitary
    return out


def swap_unitary() -> np.ndarray:
    """Two-qubit SWAP."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = 1.0
    out[1, 2] = out[2, 1] = 1.0
    return out


def controlled_swap_unitary() -> np.ndarray:
    """Three-qubit CSWAP (Fredkin) gate, control first."""
    return _controlled(swap_unitary(), n_controls=1)


def ry_unitary(theta: float) -> np.ndarray:
    """Single-qubit rotation about Y by ``theta``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_unitary(theta: float) -> np.ndarray:
    """Single-qubit rotation about Z by ``theta``."""
    return np.array(
        [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]],
        dtype=complex,
    )


@dataclass(frozen=True)
class Gate:
    """Static description of a gate type.

    Attributes:
        name: canonical upper-case gate name.
        n_qubits: number of qubits the gate acts on.
        is_permutation: True when the gate maps computational basis states to
            computational basis states (no superposition is created), so the
            sparse simulator can apply it without branching.
        is_parametric: True for gates that take a ``theta`` parameter.
    """

    name: str
    n_qubits: int
    is_permutation: bool = False
    is_parametric: bool = False
    _aliases: tuple[str, ...] = field(default=())

    def permute_bits(self, bits: tuple[int, ...]) -> tuple[int, ...]:
        """Apply the gate to classical bits (permutation gates only).

        Args:
            bits: the current values of the gate's qubits, in gate order.

        Returns:
            The new values of the gate's qubits.

        Raises:
            ValueError: if the gate is not a permutation gate.
        """
        if not self.is_permutation:
            raise ValueError(f"{self.name} is not a basis-state permutation gate")
        return _PERMUTATION_ACTIONS[self.name](bits)


def _perm_x(bits: tuple[int, ...]) -> tuple[int, ...]:
    return (1 - bits[0],)


def _perm_cx(bits: tuple[int, ...]) -> tuple[int, ...]:
    control, target = bits
    return (control, target ^ control)


def _perm_ccx(bits: tuple[int, ...]) -> tuple[int, ...]:
    c1, c2, target = bits
    return (c1, c2, target ^ (c1 & c2))


def _perm_swap(bits: tuple[int, ...]) -> tuple[int, ...]:
    a, b = bits
    return (b, a)


def _perm_cswap(bits: tuple[int, ...]) -> tuple[int, ...]:
    control, a, b = bits
    if control:
        return (control, b, a)
    return (control, a, b)


def _perm_anti_cswap(bits: tuple[int, ...]) -> tuple[int, ...]:
    """CSWAP that fires when the control is |0> (used for routing left)."""
    control, a, b = bits
    if not control:
        return (control, b, a)
    return (control, a, b)


def _perm_identity(bits: tuple[int, ...]) -> tuple[int, ...]:
    return bits


_PERMUTATION_ACTIONS = {
    "X": _perm_x,
    "CX": _perm_cx,
    "CCX": _perm_ccx,
    "SWAP": _perm_swap,
    "CSWAP": _perm_cswap,
    "ANTI_CSWAP": _perm_anti_cswap,
    "I": _perm_identity,
}


GATES: dict[str, Gate] = {
    "I": Gate("I", 1, is_permutation=True),
    "X": Gate("X", 1, is_permutation=True),
    "Y": Gate("Y", 1),
    "Z": Gate("Z", 1),
    "H": Gate("H", 1),
    "S": Gate("S", 1),
    "T": Gate("T", 1),
    "RY": Gate("RY", 1, is_parametric=True),
    "RZ": Gate("RZ", 1, is_parametric=True),
    "CX": Gate("CX", 2, is_permutation=True),
    "CZ": Gate("CZ", 2),
    "SWAP": Gate("SWAP", 2, is_permutation=True),
    "CCX": Gate("CCX", 3, is_permutation=True),
    "CSWAP": Gate("CSWAP", 3, is_permutation=True),
    "ANTI_CSWAP": Gate("ANTI_CSWAP", 3, is_permutation=True),
}


def gate_unitary(name: str, theta: float | None = None) -> np.ndarray:
    """Return the dense unitary for gate ``name``.

    Args:
        name: gate name (case insensitive), one of the keys of :data:`GATES`.
        theta: rotation angle, required for RY/RZ.

    Raises:
        KeyError: for unknown gate names.
        ValueError: if a parametric gate is requested without ``theta``.
    """
    key = name.upper()
    if key not in GATES:
        raise KeyError(f"unknown gate: {name!r}")
    if GATES[key].is_parametric:
        if theta is None:
            raise ValueError(f"gate {key} requires a theta parameter")
        return {"RY": ry_unitary, "RZ": rz_unitary}[key](theta)

    builders = {
        "I": lambda: _identity(1),
        "X": _x,
        "Y": _y,
        "Z": _z,
        "H": _h,
        "S": _s,
        "T": _t,
        "CX": lambda: _controlled(_x()),
        "CZ": lambda: _controlled(_z()),
        "SWAP": swap_unitary,
        "CCX": lambda: _controlled(_x(), n_controls=2),
        "CSWAP": controlled_swap_unitary,
        "ANTI_CSWAP": _anti_cswap_unitary,
    }
    return builders[key]()


def _anti_cswap_unitary() -> np.ndarray:
    """CSWAP controlled on |0> instead of |1>."""
    out = np.eye(8, dtype=complex)
    # Swap targets within the control=0 block (rows/cols 0..3).
    out[1, 1] = out[2, 2] = 0.0
    out[1, 2] = out[2, 1] = 1.0
    return out

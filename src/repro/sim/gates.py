"""Gate library shared by all simulators.

Two views of every gate are provided:

* a dense unitary matrix (:func:`gate_unitary`), used by the statevector and
  density-matrix simulators, and
* where applicable, a *classical permutation* action on computational basis
  bits (:meth:`Gate.permute_bits`), used by the sparse simulator's dict
  reference storage.

The table holds what QRAM programs and Pauli errors apply: routing and
transport are permutation gates (SWAP, CSWAP, ANTI_CSWAP), the classical
data enters as Z phase kickback on the leaf cells, H changes the bus basis,
and X, Y and Z are the Pauli errors.  Every gate but H maps a basis state
to one basis state up to a phase, which is what makes the sparse simulator
exact and fast for QRAM circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def swap_unitary() -> np.ndarray:
    """Two-qubit SWAP."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = 1.0
    out[1, 2] = out[2, 1] = 1.0
    return out


def controlled_swap_unitary() -> np.ndarray:
    """Three-qubit CSWAP (Fredkin) gate, control first (the most
    significant bit): SWAP on the control=1 block."""
    out = np.eye(8, dtype=complex)
    out[4:, 4:] = swap_unitary()
    return out


@dataclass(frozen=True)
class Gate:
    """Static description of a gate type.

    Attributes:
        name: the gate name, upper case, as callers pass it.
        n_qubits: number of qubits the gate acts on.
        is_permutation: True when the gate maps computational basis states to
            computational basis states (no superposition is created), so the
            sparse simulator can apply it without branching.
    """

    name: str
    n_qubits: int
    is_permutation: bool = False

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


_PERMUTATION_ACTIONS = {
    "X": _perm_x,
    "SWAP": _perm_swap,
    "CSWAP": _perm_cswap,
    "ANTI_CSWAP": _perm_anti_cswap,
}


GATES: dict[str, Gate] = {
    "X": Gate("X", 1, is_permutation=True),
    "Y": Gate("Y", 1),
    "Z": Gate("Z", 1),
    "H": Gate("H", 1),
    "SWAP": Gate("SWAP", 2, is_permutation=True),
    "CSWAP": Gate("CSWAP", 3, is_permutation=True),
    "ANTI_CSWAP": Gate("ANTI_CSWAP", 3, is_permutation=True),
}


def gate_unitary(name: str) -> np.ndarray:
    """Return the dense unitary for gate ``name``.

    Args:
        name: gate name, one of the keys of :data:`GATES`.

    Raises:
        KeyError: for unknown gate names.
    """
    if name not in GATES:
        raise KeyError(f"unknown gate: {name!r}")
    builders = {
        "X": _x,
        "Y": _y,
        "Z": _z,
        "H": _h,
        "SWAP": swap_unitary,
        "CSWAP": controlled_swap_unitary,
        "ANTI_CSWAP": _anti_cswap_unitary,
    }
    return builders[name]()


def _anti_cswap_unitary() -> np.ndarray:
    """CSWAP controlled on |0> instead of |1>: SWAP on the control=0
    block."""
    out = np.eye(8, dtype=complex)
    out[:4, :4] = swap_unitary()
    return out

"""Dense statevector simulator.

Used to cross-validate the sparse simulator on small systems (<= ~20 qubits):
the tests apply the same gates to both and compare the statevectors.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import numpy as np

from repro.sim.gates import gate_unitary

Qubit = Hashable


class StatevectorSimulator:
    """Dense statevector over named qubits.

    Qubit 0 in the internal ordering is the most significant bit of the basis
    index, matching :meth:`repro.sim.sparse.SparseState.to_statevector`.
    """

    def __init__(self, qubits: Sequence[Qubit]) -> None:
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit labels")
        self._qubits = list(qubits)
        self._index = {q: i for i, q in enumerate(self._qubits)}
        self._state = np.zeros(2 ** len(self._qubits), dtype=complex)
        self._state[0] = 1.0

    @property
    def qubits(self) -> list[Qubit]:
        return list(self._qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    @property
    def state(self) -> np.ndarray:
        """The statevector (copy)."""
        return self._state.copy()

    def set_register(self, qubits: Sequence[Qubit], value: int) -> None:
        """Prepare the whole system in |0..0> with ``qubits`` set to ``value``."""
        if not np.isclose(abs(self._state[0]), 1.0):
            raise ValueError("set_register requires the all-zero state")
        index = 0
        width = len(qubits)
        for offset, q in enumerate(qubits):
            bit = (value >> (width - 1 - offset)) & 1
            if bit:
                index |= 1 << (self.num_qubits - 1 - self._index[q])
        self._state = np.zeros_like(self._state)
        self._state[index] = 1.0

    def apply_gate(self, gate: str, qubits: Sequence[Qubit]) -> None:
        """Apply a named gate to the given qubits."""
        matrix = gate_unitary(gate)
        self._apply_matrix(matrix, [self._index[q] for q in qubits])

    def _apply_matrix(self, matrix: np.ndarray, targets: list[int]) -> None:
        n = self.num_qubits
        k = len(targets)
        tensor = self._state.reshape([2] * n)
        # Move target axes to the front, apply, and move them back.
        perm = targets + [i for i in range(n) if i not in targets]
        tensor = np.transpose(tensor, perm)
        tensor = tensor.reshape(2**k, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape([2] * n)
        tensor = np.transpose(tensor, np.argsort(perm))
        self._state = tensor.reshape(-1)

    # ------------------------------------------------------------- inspection
    def probability(self, assignment: Mapping[Qubit, int]) -> float:
        """Probability of measuring the given partial assignment."""
        mask = 0
        want = 0
        n = self.num_qubits
        for q, v in assignment.items():
            bit = 1 << (n - 1 - self._index[q])
            mask |= bit
            if v:
                want |= bit
        probs = np.abs(self._state) ** 2
        indices = np.arange(len(self._state))
        return float(probs[(indices & mask) == want].sum())

    def marginal_distribution(self, qubits: Sequence[Qubit]) -> dict[int, float]:
        """Distribution over a register (MSB first), marginalising the rest."""
        n = self.num_qubits
        shifts = [n - 1 - self._index[q] for q in qubits]
        probs = np.abs(self._state) ** 2
        dist: dict[int, float] = {}
        for index, p in enumerate(probs):
            if p < 1e-15:
                continue
            value = 0
            for s in shifts:
                value = (value << 1) | ((index >> s) & 1)
            dist[value] = dist.get(value, 0.0) + float(p)
        return dist

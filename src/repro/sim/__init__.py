"""Quantum simulation substrate for the Fat-Tree QRAM reproduction.

This subpackage is a small, self-contained quantum circuit toolkit:

* :mod:`repro.sim.gates` — gate definitions (unitaries and classical
  permutation semantics).
* :mod:`repro.sim.sparse` — a sparse basis-state simulator.  QRAM routing
  circuits are permutations of computational basis states, so a query on an
  address superposition of ``N`` branches never needs more than ``N`` terms.
* :mod:`repro.sim.statevector` — a dense statevector simulator used to
  cross-validate the sparse simulator on small systems.
* :mod:`repro.sim.density` — a density-matrix simulator with noise channels.
* :mod:`repro.sim.noise` — Kraus channels (depolarizing, bit/phase flip ...).
"""

from repro.sim.gates import Gate, GATES, controlled_swap_unitary, gate_unitary
from repro.sim.sparse import SparseState
from repro.sim.statevector import StatevectorSimulator
from repro.sim.density import DensityMatrixSimulator
from repro.sim.noise import (
    NoiseChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_flip_channel,
)

__all__ = [
    "Gate",
    "GATES",
    "gate_unitary",
    "controlled_swap_unitary",
    "SparseState",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "NoiseChannel",
    "depolarizing_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
]

"""Tests for the dense statevector and density-matrix simulators."""

import math

import numpy as np
import pytest

from repro.sim.density import DensityMatrixSimulator
from repro.sim.noise import (
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    generic_kraus_channel,
    phase_flip_channel,
)
from repro.sim.statevector import StatevectorSimulator


#: ``(gate, qubits)`` pairs preparing (|001> + |110>)/sqrt(2): a Bell pair
#: on q0, q1, with q2 the complement of q1.
BELL = [("H", ("q0",)), ("X", ("q2",)), ("CSWAP", ("q0", "q1", "q2"))]
QUBITS = ["q0", "q1", "q2"]


def run(sim, gates) -> None:
    for gate, qubits in gates:
        sim.apply_gate(gate, qubits)


def test_statevector_bell_state():
    sim = StatevectorSimulator(QUBITS)
    run(sim, BELL)
    dist = sim.marginal_distribution(["q0", "q1"])
    assert dist[0] == pytest.approx(0.5)
    assert dist[3] == pytest.approx(0.5)
    assert sim.probability({"q0": 0, "q1": 1}) == pytest.approx(0.0)


def test_statevector_set_register():
    sim = StatevectorSimulator(["a", "b", "c"])
    sim.set_register(["a", "b", "c"], 5)
    assert sim.probability({"a": 1, "b": 0, "c": 1}) == pytest.approx(1.0)


def test_statevector_cswap_routing():
    sim = StatevectorSimulator(["r", "in", "out"])
    sim.set_register(["r", "in", "out"], 0b110)
    sim.apply_gate("CSWAP", ["r", "in", "out"])
    assert sim.probability({"in": 0, "out": 1}) == pytest.approx(1.0)


def test_density_matrix_matches_statevector_when_noiseless():
    dense = StatevectorSimulator(QUBITS)
    run(dense, BELL)
    rho_sim = DensityMatrixSimulator(QUBITS)
    run(rho_sim, BELL)
    assert rho_sim.fidelity_with_state(dense.state) == pytest.approx(1.0)
    assert rho_sim.purity() == pytest.approx(1.0)


def test_density_matrix_noise_reduces_fidelity_and_purity():
    noisy = DensityMatrixSimulator(QUBITS, gate_noise=depolarizing_channel(0.02))
    run(noisy, BELL)
    dense = StatevectorSimulator(QUBITS)
    run(dense, BELL)
    fidelity = noisy.fidelity_with_state(dense.state)
    assert 0.8 < fidelity < 1.0
    assert noisy.purity() < 1.0


@pytest.mark.parametrize(
    "channel",
    [
        bit_flip_channel(0.1),
        phase_flip_channel(0.1),
        depolarizing_channel(0.1),
        amplitude_damping_channel(0.1),
        generic_kraus_channel(0.1, np.array([[0, 1], [1, 0]])),
    ],
)
def test_channels_are_trace_preserving(channel):
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    out = channel.apply(rho)
    assert np.isclose(np.trace(out).real, 1.0)


def test_bit_flip_probability_appears_in_population():
    sim = DensityMatrixSimulator(["q"])
    sim.apply_channel(bit_flip_channel(0.25), "q")
    assert sim.probability({"q": 1}) == pytest.approx(0.25)


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        bit_flip_channel(1.5)


def test_density_simulator_qubit_limit():
    with pytest.raises(ValueError):
        DensityMatrixSimulator([f"q{i}" for i in range(13)])


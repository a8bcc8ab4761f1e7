"""Unit and property tests for the sparse basis-state simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.gates import GATES
from repro.sim.sparse import QubitLayout, SparseState, SparseStateScalar
from repro.sim.statevector import StatevectorSimulator


def _state(*qubits, storage=SparseState):
    """A state over ``qubits``, all |0>."""
    return storage.from_layout(QubitLayout(qubits))


def test_single_qubit_gates_match_statevector():
    """Every gate of ``GATES``, on the sparse and the dense simulator."""
    gates = [
        ("H", ("a",)),
        ("Y", ("a",)),
        ("H", ("b",)),
        ("X", ("c",)),
        ("CSWAP", ("a", "b", "c")),
        ("Z", ("b",)),
        ("ANTI_CSWAP", ("b", "a", "c")),
        ("SWAP", ("a", "c")),
    ]
    assert {gate for gate, _ in gates} == set(GATES)
    sparse = _state("a", "b", "c")
    dense = StatevectorSimulator(["a", "b", "c"])
    for gate, qubits in gates:
        sparse.apply_gate(gate, qubits)
        dense.apply_gate(gate, qubits)
    assert np.allclose(
        sparse.to_statevector(["a", "b", "c"]), dense.state, atol=1e-12
    )


def test_permutation_gates_preserve_term_count():
    state = _state("a", "b", "c")
    state.prepare_superposition(["a", "b"], {0: 1, 1: 1, 2: 1, 3: 1})
    before = state.num_terms
    state.apply_gate("CSWAP", ["a", "b", "c"])
    state.apply_gate("SWAP", ["b", "c"])
    state.apply_gate("ANTI_CSWAP", ["a", "b", "c"])
    assert state.num_terms == before
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-12)


def test_prepare_superposition_normalises():
    state = _state("x0", "x1")
    state.prepare_superposition(["x0", "x1"], {0: 3, 3: 4})
    dist = state.marginal_distribution(["x0", "x1"])
    assert math.isclose(dist[0], 9 / 25, abs_tol=1e-12)
    assert math.isclose(dist[3], 16 / 25, abs_tol=1e-12)


def test_prepare_superposition_requires_fresh_register():
    state = _state("x")
    state.apply_gate("X", ["x"])
    with pytest.raises(ValueError):
        state.prepare_superposition(["x"], {0: 1, 1: 1})


def test_register_amplitudes_product_state():
    state = _state("a0", "a1", "b0")
    state.prepare_superposition(["a0", "a1"], {0: 1, 3: 1})
    state.prepare_superposition(["b0"], {0: 1, 1: -1})
    amps = state.register_amplitudes(["a0", "a1"])
    assert set(amps) == {0, 3}
    assert math.isclose(abs(amps[0]), 1 / math.sqrt(2), abs_tol=1e-9)


def test_register_amplitudes_detects_entanglement():
    state = _state("a", "b", "c")
    state.apply_gate("H", ["a"])
    state.apply_gate("X", ["c"])
    state.apply_gate("CSWAP", ["a", "b", "c"])  # |001> + |110>
    with pytest.raises(ValueError):
        state.register_amplitudes(["a"])


def test_register_amplitudes_detects_phase_entanglement():
    state = _state("a", "b", "c")
    state.apply_gate("H", ["a"])
    state.apply_gate("H", ["b"])
    # A controlled Z on (a, b) through the |0> ancilla c: b moves into c
    # where a is 1, takes the phase there and moves back.
    state.apply_gate("CSWAP", ["a", "b", "c"])
    state.apply_gate("Z", ["c"])
    state.apply_gate("CSWAP", ["a", "b", "c"])
    assert state.qubit_values() is None
    assert state.probability({"c": 0}) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state.register_amplitudes(["a"])


def test_fidelity_with_self_and_orthogonal():
    plus = _state("q")
    plus.apply_gate("H", ["q"])
    minus = _state("q")
    minus.apply_gate("X", ["q"])
    minus.apply_gate("H", ["q"])
    assert math.isclose(plus.fidelity_with(plus), 1.0, abs_tol=1e-12)
    assert math.isclose(plus.fidelity_with(minus), 0.0, abs_tol=1e-12)


@pytest.mark.parametrize("storage", [SparseState, SparseStateScalar])
def test_apply_gate_rejects_bad_calls(storage):
    """An unknown gate name, the wrong number of qubits and a repeated
    qubit are refused before the gate touches the state."""
    state = _state("a", "b", storage=storage)
    for gate, qubits in [
        ("NOPE", ("a",)),
        ("h", ("a",)),
        ("SWAP", ("a",)),
        ("SWAP", ("a", "a")),
    ]:
        with pytest.raises(ValueError):
            state.apply_gate(gate, qubits)
    assert state.qubit_values() == {"a": 0, "b": 0}


@pytest.mark.parametrize("storage", [SparseState, SparseStateScalar])
def test_unknown_qubits_are_rejected(storage):
    """A state's qubits are its layout's: a gate, a preparation or a
    register set on any other qubit names it and leaves the state as it
    was."""
    state = _state("a", "b", storage=storage)
    calls = [
        lambda: state.apply_gate("X", ("z",)),
        lambda: state.apply_gate("SWAP", ("a", "z")),
        lambda: state.prepare_superposition(["a", "z"], {0: 1, 3: 1}),
        lambda: state.set_register(["z"], 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown qubit 'z'"):
            call()
    assert state.qubits == ["a", "b"]
    assert state.qubit_values() == {"a": 0, "b": 0}


@settings(max_examples=25, deadline=None)
@given(
    gates=st.lists(
        st.sampled_from(["X", "SWAP", "CSWAP", "ANTI_CSWAP"]), min_size=1, max_size=20
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_random_permutation_circuits_preserve_norm_and_sparsity(gates, seed):
    """Permutation circuits never change the number of terms or the norm."""
    rng = np.random.default_rng(seed)
    qubits = [f"q{i}" for i in range(5)]
    state = _state(*qubits)
    state.prepare_superposition(qubits[:2], {0: 1, 1: 1j, 2: -1})
    before_terms = state.num_terms
    for name in gates:
        arity = GATES[name].n_qubits
        targets = rng.choice(len(qubits), size=arity, replace=False)
        state.apply_gate(name, [qubits[i] for i in targets])
    assert state.num_terms == before_terms
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=15),
)
def test_set_register_roundtrip(value):
    qubits = [f"r{i}" for i in range(4)]
    state = _state(*qubits)
    state.set_register(qubits, value)
    assert state.marginal_distribution(qubits) == {value: pytest.approx(1.0)}


@pytest.mark.parametrize("storage", [SparseState, SparseStateScalar])
@pytest.mark.parametrize(
    "gate, qubits",
    [
        ("CSWAP", ["a", "a", "b"]),
        ("ANTI_CSWAP", ["a", "b", "a"]),
        ("SWAP", ["b", "b"]),
        ("CSWAP", ["a", "b", "b"]),
    ],
)
def test_repeated_qubits_are_rejected(storage, gate, qubits):
    """A gate on a repeated qubit is not unitary on basis branches (a
    control that is also a target, or a SWAP of a qubit with itself); both
    storages refuse it unchanged."""
    state = _state("a", "b", storage=storage)
    state.apply_gate("H", ["a"])
    before = list(state.items())
    with pytest.raises(ValueError, match="duplicate qubits"):
        state.apply_gate(gate, qubits)
    assert list(state.items()) == before
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("storage", [SparseState, SparseStateScalar])
def test_states_from_one_layout_share_its_resolution_memo(storage):
    """States built from one layout resolve each distinct gate call once."""
    layout = QubitLayout(["a", "b", "c"])
    first = storage.from_layout(layout)
    assert first.qubits == ["a", "b", "c"]
    assert list(first.items()) == [((0, 0, 0), 1.0 + 0.0j)]
    first.apply_gate("H", ("a",))
    first.apply_gate("SWAP", ("a", "c"))
    assert layout.resolved == {
        ("H", ("a",)): (0,),
        ("SWAP", ("a", "c")): (0, 2),
    }
    second = storage.from_layout(layout)
    second.apply_gate("H", ("a",))
    second.apply_gate("SWAP", ("a", "c"))
    assert list(second.items()) == list(first.items())
    assert len(layout.resolved) == 2
    first.apply_gate("CSWAP", ("a", "b", "c"))
    assert ("CSWAP", ("a", "b", "c")) in layout.resolved
    # A memo hit skips validation, so a bad call is never memoized.
    with pytest.raises(ValueError, match="duplicate qubits"):
        first.apply_gate("SWAP", ("a", "a"))
    with pytest.raises(ValueError, match="duplicate qubits"):
        first.apply_gate("SWAP", ("a", "a"))


def test_layout_names_every_qubit_once():
    with pytest.raises(ValueError, match="once"):
        QubitLayout(["a", "b", "a"])

"""Bit-identity pins for the vectorized window hot path.

The serving hot path evaluates all of a window's slots in single array
expressions (:func:`repro.backends.noise.pipelined_fidelities`, the
adapters' ``_window_offsets``) and generates traces through scalar/block
RNG fast paths.  Every one of those rewrites carries an evaluation-order
contract: the vectorized result must equal the original scalar loop **bit
for bit**, so recorded trajectories (makespans, fidelities, percentiles)
stay byte-identical across the optimization.  This module pins that
contract:

* vectorized vs scalar ``pipelined_fidelities`` across every registered
  architecture, encoded variants included, at every window occupancy;
* a property-style sweep over randomized window shapes;
* an end-to-end serve with the scalar oracle substituted for the
  vectorized kernel — full retention, every record compared;
* single-address draws against the historical array draw, block shard
  draws against scalar draws, and a Poisson trace's times, tenants and
  shards against the historical per-request loop (its superpositions
  against a restatement of the keyed block stream);
* the bit-sliced :class:`~repro.sim.sparse.SparseState` against the
  dict-backed :class:`~repro.sim.sparse.SparseStateScalar` — random
  circuits, every gate on either side of the 64-branch word boundary,
  every Fat-Tree window occupancy, BB queries and a whole functional
  serve; H on a column that is constant across rows, signed zeros
  included, and register amplitudes read from the branch matrix, against
  the generic view;
* deferred Z gates against the dict storage's immediate products: every
  reader that lands them, Z gates since the last permutation replayed
  rather than cancelled, a Z right after a preparation, a window-shaped
  program around the 64-branch word, and gate dispatch after a state
  leaves a shared layout memo.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.backends.noise import (
    pipelined_fidelities,
    pipelined_fidelities_scalar,
)
from repro.baselines.registry import build_backend
from repro.engine import ServiceEngine, StreamingTraceSource
from repro.schedule_cache import default_registry
from repro.service.service import QRAMService
from repro.workloads.generators import (
    iter_poisson_trace,
    random_address_superposition,
)
from repro.workloads.arrivals import iter_exponential_times
from repro.core.query import QueryRequest, ideal_query_output, output_fidelity
from repro.bucket_brigade.executor import BBExecutor
from repro.core.executor import FatTreeExecutor
from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec
from repro.sim.gates import GATES
from repro.sim.sparse import QubitLayout, SparseState, SparseStateScalar, _SparseView
from repro.sweep.engine import report_digest
import repro.bucket_brigade.instructions as window_module

#: Every registered architecture plus encoded variants at two distances —
#: the full set of `_window_offsets` / `_infidelity_bounds` combinations
#: the serving layer can produce.
ALL_ARCHITECTURES = [
    "Fat-Tree",
    "BB",
    "Virtual",
    "D-Fat-Tree",
    "D-BB",
    "Fat-Tree@d3",
    "BB@d3",
    "Virtual@d5",
    "D-Fat-Tree@d5",
    "D-BB@d3",
]


def _bits(values):
    """Floats as IEEE-754 hex strings: equality means bitwise identity."""
    return [float(v).hex() for v in values]


# --------------------------------------------------------------------------
# pipelined_fidelities: vectorized == scalar oracle
# --------------------------------------------------------------------------
@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
@pytest.mark.parametrize("capacity", [8, 32])
def test_pipelined_fidelities_bitwise_parity(architecture, capacity):
    """Vectorized kernel == scalar loop on every backend's real offsets."""
    backend = build_backend(architecture, capacity, [0] * capacity)
    base, crosstalk = backend._infidelity_bounds(backend.parameters)
    occupancies = range(1, min(backend.query_parallelism, 16) + 1)
    for occupancy in occupancies:
        _, _, starts, finishes = backend._window_offsets(occupancy)
        vectorized = pipelined_fidelities(base, crosstalk, starts, finishes)
        scalar = pipelined_fidelities_scalar(base, crosstalk, starts, finishes)
        assert _bits(vectorized) == _bits(scalar), (
            f"{architecture} capacity={capacity} occupancy={occupancy}"
        )


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_predicted_fidelities_identical_across_replicas(architecture):
    """Two replicas of one configuration predict identical vectors.

    Each replica derives its own per-occupancy windows; the derivation is
    deterministic, so a memoized prediction and a fresh derivation on a
    twin agree exactly.
    """
    capacity = 8
    first = build_backend(architecture, capacity, [0] * capacity)
    second = build_backend(architecture, capacity, [0] * capacity)
    for occupancy in range(1, min(first.query_parallelism, 8) + 1):
        _, _, starts, finishes = second._window_offsets(occupancy)
        assert first.predicted_window_fidelities(occupancy) == (
            second._compute_window_fidelities(occupancy, starts, finishes)
        )


def test_pipelined_fidelities_random_window_sweep():
    """Property-style sweep: random window shapes, bitwise parity."""
    rng = np.random.default_rng(1234)
    for _ in range(300):
        count = int(rng.integers(1, 40))
        starts = np.round(rng.uniform(0.0, 50.0, size=count), 3)
        lifetimes = np.round(rng.uniform(1.0, 30.0, size=count), 3)
        finishes = starts + lifetimes
        base = float(rng.uniform(0.0, 0.02))
        crosstalk = float(rng.uniform(0.0, 1e-4))
        vectorized = pipelined_fidelities(
            base, crosstalk, tuple(starts), tuple(finishes)
        )
        scalar = pipelined_fidelities_scalar(
            base, crosstalk, tuple(starts), tuple(finishes)
        )
        assert _bits(vectorized) == _bits(scalar)


def test_end_to_end_serve_matches_scalar_oracle(monkeypatch):
    """A full-retention serve is record-identical under the scalar kernel.

    The scalar oracle is substituted for the vectorized kernel everywhere
    it is referenced, all shared caches are dropped, and the same trace is
    served again: every served record, window record and summary statistic
    must match the vectorized run exactly.
    """
    import repro.backends.analytic as analytic
    import repro.backends.noise as noise

    def serve():
        trace = iter_poisson_trace(
            8, 400, mean_interarrival=14.0, addresses_per_query=1,
            num_tenants=4, num_shards=2, seed=5,
        )
        service = QRAMService(8, num_shards=2, functional=False)
        return ServiceEngine(service, retention="full").run(StreamingTraceSource(trace))

    default_registry().clear()
    vectorized = serve()
    monkeypatch.setattr(noise, "pipelined_fidelities", pipelined_fidelities_scalar)
    monkeypatch.setattr(
        analytic, "pipelined_fidelities", pipelined_fidelities_scalar
    )
    default_registry().clear()
    scalar = serve()
    default_registry().clear()

    assert scalar.served == vectorized.served
    assert scalar.windows == vectorized.windows
    assert scalar.stats == vectorized.stats


# --------------------------------------------------------------------------
# Trace generators: scalar fast paths == historical array draws
# --------------------------------------------------------------------------
def _superposition_reference(capacity, num_addresses, seed):
    """The historical array-path draw, verbatim (the pinned oracle)."""
    rng = np.random.default_rng(seed)
    addresses = rng.choice(capacity, size=num_addresses, replace=False)
    raw = rng.normal(size=num_addresses) + 1j * rng.normal(size=num_addresses)
    norm = np.linalg.norm(raw)
    return {int(a): complex(x / norm) for a, x in zip(addresses, raw)}


def _amplitude_bits(amplitudes):
    return {
        address: (value.real.hex(), value.imag.hex())
        for address, value in amplitudes.items()
    }


@pytest.mark.parametrize("capacity", [2, 4, 8, 64, 256])
def test_single_address_draw_bitwise_parity(capacity):
    """The ``num_addresses == 1`` scalar fast path matches the array path."""
    for seed in range(500):
        fast = random_address_superposition(capacity, 1, seed=seed)
        reference = _superposition_reference(capacity, 1, seed)
        assert _amplitude_bits(fast) == _amplitude_bits(reference)


def test_multi_address_draw_unchanged():
    """Draws of more than one address still use the array path verbatim."""
    for num_addresses in (2, 3, 5):
        for seed in range(50):
            drawn = random_address_superposition(8, num_addresses, seed=seed)
            reference = _superposition_reference(8, num_addresses, seed)
            assert _amplitude_bits(drawn) == _amplitude_bits(reference)


def test_block_shard_draws_match_scalar_draws():
    """``integers(n, size=B)`` consumes the stream like B scalar draws."""
    for num_shards in (1, 2, 4, 8):
        for seed in (0, 1, 5, 123):
            block_rng = np.random.default_rng(seed)
            scalar_rng = np.random.default_rng(seed)
            block = block_rng.integers(num_shards, size=512).tolist()
            scalar = [int(scalar_rng.integers(num_shards)) for _ in range(512)]
            assert block == scalar
            assert (
                block_rng.bit_generator.state == scalar_rng.bit_generator.state
            )


def _keyed_single_address_reference(seed, position, local_capacity):
    """Position ``position`` of the keyed superposition stream of ``seed``
    for one address per query, restated from its definition: block ``b``
    holds 1024 rows drawn from ``default_rng([seed, 104729, b])`` — the
    local addresses, then every real part, then every imaginary part —
    and each row is divided by its own norm."""
    block, row = divmod(position, 1024)
    rng = np.random.default_rng([seed, 104729, block])
    address = int(rng.integers(local_capacity, size=1024)[row])
    re = float(rng.normal(size=1024)[row])
    im = float(rng.normal(size=1024)[row])
    norm = math.sqrt(re * re + im * im)
    return address, complex(re / norm, im / norm)


def _trace_reference(
    capacity, num_queries, mean_interarrival, addresses_per_query,
    num_tenants, num_shards, seed, shards=None,
):
    """The historical per-request arrival loop (pinned oracle for times,
    tenants and shards), with each superposition taken from the keyed
    block stream instead of the historical ``seed + i`` draw."""
    assert addresses_per_query == 1
    owned = None if shards is None else frozenset(int(s) for s in shards)
    rng = np.random.default_rng(seed)
    times = iter_exponential_times(num_queries, mean_interarrival, seed)
    for i, t in enumerate(times):
        shard = int(rng.integers(num_shards))
        if owned is not None and shard not in owned:
            continue
        address, amplitude = _keyed_single_address_reference(
            seed, i, capacity // num_shards
        )
        yield QueryRequest(
            query_id=i,
            address_amplitudes={address * num_shards + shard: amplitude},
            request_time=float(t),
            qpu=i % num_tenants,
            deadline=None,
            min_fidelity=None,
        )


@pytest.mark.parametrize("shards", [None, (0,), (1, 3)])
def test_poisson_trace_bitwise_parity_with_reference(shards):
    """Block shard draws leave every request's id, time, tenant and shard
    byte-identical to the historical loop, restricted streams included (a
    parallel worker regenerates the same partition), and every
    superposition is the keyed stream's row for its position."""
    kwargs = dict(
        capacity=16, num_queries=2500, mean_interarrival=9.0,
        addresses_per_query=1, num_tenants=3, num_shards=4, seed=7,
    )
    generated = list(iter_poisson_trace(**kwargs, shards=shards))
    reference = list(_trace_reference(**kwargs, shards=shards))
    assert len(generated) == len(reference)
    for produced, expected in zip(generated, reference):
        assert produced.query_id == expected.query_id
        assert produced.request_time.hex() == expected.request_time.hex()
        assert produced.qpu == expected.qpu
        assert {a % 4 for a in produced.address_amplitudes} == {
            a % 4 for a in expected.address_amplitudes
        }
        assert _amplitude_bits(produced.address_amplitudes) == (
            _amplitude_bits(expected.address_amplitudes)
        )


def test_timing_window_is_memoized_and_consistent():
    """`run_window(functional=False)` serves one shared WindowResult per
    occupancy whose fidelities are exactly the predicted vector."""
    for architecture in ALL_ARCHITECTURES:
        backend = build_backend(architecture, 8, [0] * 8)
        occupancy = min(backend.query_parallelism, 4)
        requests = [
            QueryRequest(i, {i % 8: 1.0}, request_time=0.0)
            for i in range(occupancy)
        ]
        first = backend.run_window(requests, functional=False)
        second = backend.run_window(requests, functional=False)
        assert first is second, architecture
        assert first.fidelities == backend.predicted_window_fidelities(occupancy)
        assert first.outputs == (None,) * occupancy


# --------------------------------------------------------------------------
# Sparse simulator: array storage == dict storage
# --------------------------------------------------------------------------
def _branches(state):
    return [
        (basis, amp.real.hex(), amp.imag.hex()) for basis, amp in state.items()
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_state_matches_scalar_on_random_circuits(data):
    """Random circuits over every gate, with fresh registers prepared in
    superposition between the gates.

    After every step both storages hold the same basis tuples in the same
    order with bit-identical amplitudes, signed zeros included.  The
    inspections derived from the amplitudes (norm, marginals, register
    amplitudes) are compared within 1e-12 instead: the array view always
    yields ``np.complex128`` scalars, while the dict holds Python complex
    values until its first H/Y, and the two types round a complex
    division differently.
    """
    labels = ["q0", "q1", "q2", "q3"]
    steps = data.draw(st.integers(1, 25), label="steps")
    # Every register a step may prepare, and the final readout's.
    fresh = [f"p{step}.{bit}" for step in range(steps) for bit in (0, 1)]
    layout = QubitLayout(labels + fresh + ["r0", "r1"])
    array, scalar = SparseState.from_layout(layout), SparseStateScalar.from_layout(layout)
    amplitude = st.complex_numbers(
        max_magnitude=4.0, allow_nan=False, allow_infinity=False
    )
    for step in range(steps):
        action = data.draw(st.sampled_from(sorted(GATES) + ["prepare"]))
        if action == "prepare":
            register = [f"p{step}.0", f"p{step}.1"]
            amplitudes = data.draw(
                st.dictionaries(st.integers(0, 3), amplitude, min_size=1)
            )
            assume(math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values())) > 1e-6)
            labels.extend(register)
            for state in (array, scalar):
                state.prepare_superposition(register, amplitudes)
        else:
            qubits = data.draw(st.permutations(labels))[: GATES[action].n_qubits]
            for state in (array, scalar):
                state.apply_gate(action, qubits)
        assert array.num_terms == scalar.num_terms
        assert _branches(array) == _branches(scalar)
        assert math.isclose(array.norm(), scalar.norm(), abs_tol=1e-12)
    assert array.qubits == scalar.qubits
    register = array.qubits[:3]
    marginal = array.marginal_distribution(register)
    for value, probability in scalar.marginal_distribution(register).items():
        assert math.isclose(marginal[value], probability, abs_tol=1e-12)
    product = {0: 0.6, 3: 0.8j}
    for state in (array, scalar):
        state.prepare_superposition(["r0", "r1"], product)
    expected = scalar.register_amplitudes(["r0", "r1"])
    actual = array.register_amplitudes(["r0", "r1"])
    assert actual.keys() == expected.keys()
    for value, amp in expected.items():
        assert abs(actual[value] - amp) <= 1e-12


def _prepare_negative_zero(state):
    """Amplitudes with -0.0 parts: Z on |1> after a -1 amplitude."""
    state.prepare_superposition(["a", "c"], {0: 0.6, 1: -0.8, 3: -0.5j})
    state.apply_gate("Z", ["c"])


#: The qubits of :data:`_CONSTANT_COLUMN_CASES`; ``b`` and ``d`` stay
#: constant until the gate under test.
_CONSTANT_COLUMN_LAYOUT = QubitLayout(
    ["a", "c", *(f"r{i}" for i in range(6)), "b", "d"]
)

#: States whose ``b`` is a fresh |0>, or a |1> prepared without a
#: permutation (so the work a preparation leaves is still pending).
_CONSTANT_COLUMN_CASES = {
    "fresh-0": lambda s: (
        s.prepare_superposition(["r0", "r1", "r2"], {0: 1, 3: 1j, 5: -1, 6: 0.5}),
    ),
    "fresh-1": lambda s: (
        s.prepare_superposition(["r0", "r1", "r2"], {0: 1, 3: 1j, 5: -1, 6: 0.5}),
        s.prepare_superposition(["b"], {1: 1}),
    ),
    "constant-1-many-rows": lambda s: (
        s.prepare_superposition(
            [f"r{i}" for i in range(6)],
            {v: complex(math.cos(v), -math.sin(3 * v)) for v in range(0, 64, 3)},
        ),
        s.apply_gate("X", ["b"]),
    ),
    "negative-zero-fresh-0": lambda s: (_prepare_negative_zero(s),),
    "negative-zero-fresh-1": lambda s: (
        _prepare_negative_zero(s),
        s.prepare_superposition(["b"], {1: 1}),
    ),
}


@pytest.mark.parametrize("case", sorted(_CONSTANT_COLUMN_CASES))
@pytest.mark.parametrize("gate", ["H", "Y"])
def test_constant_column_single_qubit_gate_matches_scalar(case, gate):
    """A superposing gate on a qubit that is constant across rows (such
    as the bus basis change of a fresh query) merges no rows; its
    amplitudes equal the dict storage's ``0.0 + amp`` accumulation, signed
    zeros included."""
    array, scalar = (
        storage.from_layout(_CONSTANT_COLUMN_LAYOUT)
        for storage in (SparseState, SparseStateScalar)
    )
    for state in (array, scalar):
        _CONSTANT_COLUMN_CASES[case](state)
    assert _branches(array) == _branches(scalar)
    for state in (array, scalar):
        state.apply_gate(gate, ["b"])
    assert array.num_terms == scalar.num_terms
    assert _branches(array) == _branches(scalar)
    # Once more on the now-mixed column, then on a fresh constant one.
    for state in (array, scalar):
        state.apply_gate(gate, ["b"])
        state.apply_gate(gate, ["d"])
    assert _branches(array) == _branches(scalar)


def _register_columns(state, register):
    """Both ``register_amplitudes`` paths of the array storage, exactly:
    items in order, with the amplitudes' bits and types."""
    paths = []
    for read in (state.register_amplitudes, lambda r: _SparseView.register_amplitudes(state, r)):
        try:
            column = read(register)
        except ValueError as error:
            paths.append(str(error))
            continue
        paths.append(
            [
                (value, type(amp), amp.real.hex(), amp.imag.hex())
                for value, amp in column.items()
            ]
        )
    return paths


@pytest.mark.parametrize("seed", range(12))
def test_array_register_amplitudes_equal_the_view_path(seed):
    """The bit-matrix readout builds the same (register, rest) rows in the
    same order as the generic view, so the returned dict, its order, its
    bits and the entanglement verdicts are identical."""
    rng = np.random.default_rng(seed)
    state = SparseState.from_layout(
        QubitLayout([*(f"q{i}" for i in range(5)), "a0", "a1", "a2"])
    )
    state.prepare_superposition(
        ["a0", "a1", "a2"],
        {int(v): complex(*rng.normal(size=2)) for v in rng.choice(8, 4, replace=False)},
    )
    for _ in range(12):
        gate = str(rng.choice(["H", "SWAP", "CSWAP", "Z", "X", "Y"]))
        labels = list(rng.permutation(state.qubits))[: GATES[gate].n_qubits]
        state.apply_gate(gate, labels)
    for width in (1, 2, 3):
        for start in range(0, state.num_qubits - width + 1, 2):
            register = state.qubits[start : start + width]
            array, view = _register_columns(state, register)
            assert array == view, register


def test_array_register_amplitudes_tie_break_like_the_view():
    """All eight rest branches tie on weight but not on phase (Y makes
    them +-i, Z flips half of them): the reference branch, and with it the
    phase convention, is the one the view path picks, pinned at its
    historical value (the first tied branch in set order, whose phase is
    -i; the first in branch order has +i)."""
    state = SparseState.from_layout(QubitLayout(["r", "s0", "s1", "s2"]))
    for gate, qubit in [("H", "r"), ("H", "s0"), ("H", "s1"), ("H", "s2")]:
        state.apply_gate(gate, [qubit])
    state.apply_gate("Y", ["s0"])
    state.apply_gate("Z", ["s2"])
    array, view = _register_columns(state, ["r"])
    assert array == view
    minus_i = ("0x0.0p+0", "-0x1.6a09e667f3bcdp-1")
    assert [entry[:1] + entry[2:] for entry in array] == [(0, *minus_i), (1, *minus_i)]


def _run_both(monkeypatch, run):
    """``run()`` on the array storage, then with the window replay's
    SparseState swapped for the dict storage."""
    array = run()
    with monkeypatch.context() as patched:
        patched.setattr(window_module, "SparseState", SparseStateScalar)
        scalar = run()
    return array, scalar


@pytest.mark.parametrize("capacity", [4, 8, 16])
def test_fat_tree_windows_match_scalar_storage(monkeypatch, capacity):
    """Every window occupancy up to the query parallelism: outputs and
    fidelities equal bit for bit, and the tree ends clean."""
    data = [int(b) for b in np.random.default_rng(capacity).integers(2, size=capacity)]
    for occupancy in range(1, int(math.log2(capacity)) + 1):
        requests = [
            QueryRequest(
                query_id=q,
                address_amplitudes=random_address_superposition(
                    capacity, 2, seed=100 * capacity + 10 * occupancy + q
                ),
            )
            for q in range(occupancy)
        ]

        def run():
            executor = FatTreeExecutor(capacity, data)
            _, outputs = executor.run_pipelined_queries(requests)
            program = executor.window_program(
                occupancy, executor.minimum_feasible_interval(occupancy)
            )
            _, state = program.replay(
                [(r.address_amplitudes, r.initial_bus) for r in requests]
            )
            assert program.tree_is_clean(state)
            fidelities = [
                executor.query_fidelity(r, outputs[r.query_id]) for r in requests
            ]
            return outputs, fidelities

        array, scalar = _run_both(monkeypatch, run)
        assert array == scalar, (capacity, occupancy)
        assert all(math.isclose(f, 1.0, abs_tol=1e-9) for f in array[1])


@pytest.mark.parametrize("capacity", [4, 8, 16])
def test_bb_queries_match_scalar_storage(monkeypatch, capacity):
    data = [int(b) for b in np.random.default_rng(capacity).integers(2, size=capacity)]
    amplitudes = random_address_superposition(capacity, 3, seed=capacity)

    def run():
        executor = BBExecutor(capacity, data)
        program = executor.window_program()
        (output,), state = program.replay([(amplitudes, 1)])
        assert program.tree_is_clean(state)
        assert executor.run_query(amplitudes, initial_bus=1) == output
        ideal = ideal_query_output(data, amplitudes, initial_bus=1)
        return output, output_fidelity(ideal, output)

    array, scalar = _run_both(monkeypatch, run)
    assert array == scalar


def test_functional_serve_matches_scalar_storage(monkeypatch):
    """The benchmark's functional-gate scenario (seed 1) served with the
    dict storage in both executors has the same report digest."""
    spec = ScenarioSpec(
        name="functional-gate",
        fleet=FleetSpec(
            capacity=16,
            shards=("Fat-Tree", "Fat-Tree"),
            functional=True,
            data="random",
            data_seed=3,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=200,
            mean_interarrival=4.0,
            addresses_per_query=2,
            seed=1,
        ),
        run=RunSpec(retention="full", workers=0, sanitize=False, profile=False),
    )

    def serve():
        default_registry().clear()
        return report_digest(spec.execute())

    array, scalar = _run_both(monkeypatch, serve)
    default_registry().clear()
    assert array == scalar


def _word_boundary_pair(terms):
    """Both storages with exactly ``terms`` branches: a register of fresh
    qubits prepared over ``terms`` values (every fourth amplitude a pure
    +-1, so Z produces signed zeros), plus ``a`` and ``c`` in
    |0>, ``b`` prepared in |1> and a fresh ``bus``."""
    width = max(1, (terms - 1).bit_length())
    register = [f"r{i}" for i in range(width)]
    amplitudes = {v: complex(math.cos(v), -math.sin(3 * v)) for v in range(terms)}
    amplitudes.update({v: (-1.0) ** (v // 4) for v in range(0, terms, 4)})
    layout = QubitLayout([*register, "a", "b", "c", "bus"])
    states = SparseState.from_layout(layout), SparseStateScalar.from_layout(layout)
    for state in states:
        state.prepare_superposition(register, amplitudes)
        state.prepare_superposition(["b"], {1: 1})
    return states, register


def _every_gate_sequence(register):
    """Each gate of ``GATES`` once or more: permutations, then Z gates,
    permutations again (the settle after a Z), the superposing gates, and
    permutations on the merged rows."""
    r = register
    return [
        ("X", ["a"]),
        ("CSWAP", [r[-1], "a", "b"]),
        ("ANTI_CSWAP", [r[0], r[-1], "c"]),
        ("SWAP", [r[0], "a"]),
        ("CSWAP", [r[-1], r[0], "b"]),
        ("ANTI_CSWAP", [r[0], r[-1], "c"]),
        ("Z", [r[-1]]),
        ("Z", ["b"]),
        ("Z", [r[0]]),
        ("Z", ["c"]),
        ("X", ["a"]),
        ("CSWAP", ["a", r[-1], "c"]),
        ("H", ["c"]),
        ("Y", [r[0]]),
        ("Y", ["a"]),
        ("ANTI_CSWAP", ["b", r[-1], "a"]),
        ("H", [r[-1]]),
        ("SWAP", ["c", r[0]]),
    ]


@pytest.mark.parametrize("terms", [63, 64, 65, 128, 1024])
def test_array_state_matches_scalar_across_the_word_boundary(terms):
    """Branch counts on either side of 64 (one machine word of branch
    bits) and well past it: every gate of ``GATES`` keeps the storages
    bit-identical, signed zeros included, after every step."""
    (array, scalar), register = _word_boundary_pair(terms)
    assert array.num_terms == scalar.num_terms == terms
    assert _branches(array) == _branches(scalar)
    sequence = _every_gate_sequence(register)
    assert {gate for gate, _ in sequence} == set(GATES)
    for gate, qubits in sequence:
        for state in (array, scalar):
            state.apply_gate(gate, qubits)
        assert array.num_terms == scalar.num_terms, gate
        assert _branches(array) == _branches(scalar), gate
    assert array.num_terms > terms


# --------------------------------------------------------------------------
# Deferred Z signs: SparseState records a Z's column and applies it only
# when the amplitudes are read; these pin every reader, signed zeros
# included, against the dict storage, which multiplies at once.
# --------------------------------------------------------------------------
def _signed_zero_pair():
    """Both storages over pure real and pure imaginary amplitudes (so -0.0
    parts arise), left unsettled by a Z right after the preparation: the
    state a deferred Z meets in a window, except that the amplitudes are
    np.complex128 after an H."""
    layout = QubitLayout(["x", "a", "b", "c", "p0", "p1", "bus"])
    states = SparseState.from_layout(layout), SparseStateScalar.from_layout(layout)
    for state in states:
        state.apply_gate("H", ["x"])
        state.prepare_superposition(
            ["a", "b", "c"],
            {0: 1, 1: -1j, 2: 1j, 3: -1, 5: 0.5 - 0.5j, 6: -0.25, 7: 0.75j},
        )
        state.apply_gate("Z", ["b"])
    return states


#: Z patterns after :func:`_signed_zero_pair`: a tail only (no permutation
#: since the Z gates), signs settled by a permutation, and both at once.
_Z_PATTERNS = {
    "tail": [("Z", ["c"]), ("Z", ["c"]), ("Z", ["a"])],
    "settled": [("Z", ["c"]), ("Z", ["a"]), ("SWAP", ["a", "b"])],
    "settled-then-tail": [
        ("Z", ["c"]),
        ("CSWAP", ["c", "a", "b"]),
        ("Z", ["a"]),
        ("ANTI_CSWAP", ["c", "a", "b"]),
        ("Z", ["b"]),
        ("Z", ["b"]),
    ],
}

#: The first reader after the Z gates: each must see every deferred sign.
_Z_READERS = {
    "H": lambda s: s.apply_gate("H", ["c"]),
    "prepare": lambda s: s.prepare_superposition(["p0", "p1"], {0: 0.6, 3: -0.8j}),
    "Y": lambda s: s.apply_gate("Y", ["a"]),
    "Y-fresh": lambda s: s.apply_gate("Y", ["bus"]),
    "register": lambda s: s.register_amplitudes(["x"]),
    "items": lambda s: list(s.items()),
}


def _hex_column(column):
    return [(value, amp.real.hex(), amp.imag.hex()) for value, amp in column.items()]


@pytest.mark.parametrize("reader", sorted(_Z_READERS))
@pytest.mark.parametrize("pattern", sorted(_Z_PATTERNS))
def test_deferred_z_matches_scalar_at_every_reader(pattern, reader):
    """Z gates recorded and then read by H, a preparation, Y (merging
    rows, or splitting a fresh constant column), a register readout or
    the basis view: the storages agree bit for bit, signed zeros
    included, before and after the reader."""
    array, scalar = _signed_zero_pair()
    for gate, qubits in _Z_PATTERNS[pattern]:
        for state in (array, scalar):
            state.apply_gate(gate, qubits)
    read_array = _Z_READERS[reader](array)
    read_scalar = _Z_READERS[reader](scalar)
    if reader == "register":
        assert _hex_column(read_array) == _hex_column(read_scalar)
        assert all(type(amp) is np.complex128 for amp in read_array.values())
    assert _branches(array) == _branches(scalar)
    # A permutation and one more readout settle whatever is left.
    for state in (array, scalar):
        state.apply_gate("CSWAP", ["x", "a", "b"])
    assert _branches(array) == _branches(scalar)


def test_two_z_gates_are_replayed_not_cancelled():
    """Two Z gates on one column are not the identity on signed zeros:
    (0.0, -s) comes out as (-0.0, -s), while (0.0, s) comes back as
    (0.0, s).  With no permutation after them they are replayed one by
    one, not cancelled."""
    layout = QubitLayout(["x", "a", "y"])
    array, scalar = SparseState.from_layout(layout), SparseStateScalar.from_layout(layout)
    for state in (array, scalar):
        state.prepare_superposition(["x"], {0: -1j, 1: 1j})  # (0.0, -s), (0.0, s)
        state.prepare_superposition(["a"], {1: 1})
        state.apply_gate("Z", ["y"])  # prunes, multiplies by 1 + 0j
    before = _branches(scalar)
    assert [(re, im[0]) for _, re, im in before] == [("0x0.0p+0", "-"), ("0x0.0p+0", "0")]
    assert _branches(array) == before
    for state in (array, scalar):
        state.apply_gate("Z", ["a"])
        state.apply_gate("Z", ["a"])
    after = _branches(scalar)
    assert [(re, im[0]) for _, re, im in after] == [("-0x0.0p+0", "-"), ("0x0.0p+0", "0")]
    assert _branches(array) == after


def test_z_right_after_a_preparation_prunes_like_the_scalar():
    """A preparation can leave |amp| <= 1e-12 branches; a Z right after it
    prunes them at once, as the dict storage's Z does."""
    layout = QubitLayout(["a", "b"])
    array, scalar = SparseState.from_layout(layout), SparseStateScalar.from_layout(layout)
    for state in (array, scalar):
        state.prepare_superposition(["a"], {0: 1, 1: 9e-7})
        state.prepare_superposition(["b"], {0: 1, 1: 9e-7})
    assert array.num_terms == scalar.num_terms == 4
    for state in (array, scalar):
        state.apply_gate("Z", ["b"])
    assert array.num_terms == scalar.num_terms == 3
    assert _branches(array) == _branches(scalar)
    for state in (array, scalar):
        state.apply_gate("Z", ["a"])
        state.apply_gate("SWAP", ["a", "b"])
        state.apply_gate("Z", ["b"])
    assert _branches(array) == _branches(scalar)


def _window_sequence(register):
    """A query-shaped program on :func:`_word_boundary_pair`'s qubits with
    the bus in |1>: the bus basis change, routing, Z gates both between
    permutations and back to back, the routing undone, and the bus basis
    change again, with nothing read in between."""
    r = register
    route = [
        ("SWAP", [r[0], "a"]),
        ("CSWAP", ["a", r[-1], "c"]),
        ("ANTI_CSWAP", ["a", "b", "c"]),
        ("X", ["b"]),
        ("ANTI_CSWAP", [r[0], r[-1], "a"]),
    ]
    middle = [
        ("Z", ["c"]),
        ("CSWAP", ["c", "bus", "b"]),
        ("Z", ["b"]),
        ("Z", ["a"]),
        ("CSWAP", ["c", "bus", "b"]),
        ("Z", ["bus"]),
        ("Z", ["bus"]),
        ("Z", ["c"]),
    ]
    tail = [("Z", [r[-1]]), ("Z", [r[0]]), ("Z", [r[0]])]
    return [("H", ["bus"])] + route + middle + route[::-1] + tail + [("H", ["bus"])]


@pytest.mark.parametrize("terms", [63, 64, 65, 1024])
def test_deferred_z_window_matches_scalar_across_the_word_boundary(terms):
    """A window-shaped gate sequence on either side of 64 branches and at
    1,024: branches, amplitudes and the register readout are bit-identical
    to the dict storage, signed zeros included."""
    (array, scalar), register = _word_boundary_pair(terms)
    *sequence, last = _window_sequence(register)
    for state in (array, scalar):
        state.prepare_superposition(["bus"], {1: 1})
        for gate, qubits in sequence:
            state.apply_gate(gate, qubits)
    # Read before the last H merges rows (and with them signed zeros).
    assert _branches(array) == _branches(scalar)
    for state in (array, scalar):
        state.apply_gate(*last)
    assert _branches(array) == _branches(scalar)
    assert array.num_terms == scalar.num_terms
    query = [*register, "bus"]
    column = array.register_amplitudes(query)
    assert _hex_column(column) == _hex_column(scalar.register_amplitudes(query))
    assert all(type(amp) is np.complex128 for amp in column.values())


@pytest.mark.parametrize("gate", ["H", "Y"])
@pytest.mark.parametrize("bus", [0, 1])
def test_constant_column_gate_from_the_column_layout_matches_scalar(gate, bus):
    """H/Y on a constant column of a state held as columns, with Z
    signs both settled and pending: the merge-free split equals the dict
    storage's ``0.0 + coeff * amp``, signed zeros included."""
    array, scalar = _signed_zero_pair()
    for state in (array, scalar):
        if bus:
            state.apply_gate("X", ["bus"])
        state.apply_gate("Z", ["a"])
        state.apply_gate("SWAP", ["a", "b"])
        state.apply_gate("Z", ["c"])
        assert isinstance(state, SparseStateScalar) or state._columns is not None
        state.apply_gate(gate, ["bus"])
    assert array.num_terms == scalar.num_terms
    assert _branches(array) == _branches(scalar)


def test_gates_dispatch_alike_from_a_shared_layout():
    """States sharing a layout's memo dispatch every gate of ``GATES``
    correctly: with list and with tuple qubits, both storages hold the
    same branches after every gate."""
    layout = QubitLayout(["r0", "r1", "a", "b", "c"])
    states = {}
    for storage in (SparseState, SparseStateScalar):
        for kind in (list, tuple):
            state = storage.from_layout(layout)
            state.apply_gate("H", ("r0",))
            state.apply_gate("SWAP", ["r0", "r1"])
            state.apply_gate("X", ["b"])
            states[storage, kind] = state
    assert len(layout.resolved) == 3
    sequence = _every_gate_sequence(["r0", "r1"])
    assert {gate for gate, _ in sequence} == set(GATES)
    for gate, qubits in sequence:
        for (_, kind), state in states.items():
            state.apply_gate(gate, kind(qubits))
        first, *others = (_branches(state) for state in states.values())
        assert all(branches == first for branches in others), gate
    # Every distinct call was resolved once, into the one shared memo.
    calls = {("H", ("r0",)), ("SWAP", ("r0", "r1")), ("X", ("b",))}
    calls.update((gate, tuple(qubits)) for gate, qubits in sequence)
    assert set(layout.resolved) == calls

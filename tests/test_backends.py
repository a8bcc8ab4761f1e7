"""Backend protocol conformance and multi-backend serving integration."""

import pytest

from repro import (
    QRAMService,
    QueryRequest,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
    build_backend,
)
from repro.backends import QRAMBackend, WindowResult
from repro.baselines.registry import (
    architecture_names,
    backend_names,
    build_architecture,
    resolve_architecture,
)
from repro.scheduling.policy import (
    FIFOPolicy,
    PriorityPolicy,
    as_policy,
)
from repro.workloads import iter_poisson_trace, random_data

CAPACITY = 8
ALL_BACKENDS = backend_names()


# ----------------------------------------------------------------- protocol
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_protocol_surface(name):
    data = random_data(CAPACITY, seed=1)
    backend = build_backend(name, CAPACITY, data)
    assert isinstance(backend, QRAMBackend)
    assert backend.name == name
    assert backend.capacity == CAPACITY
    assert backend.data == list(data)
    assert backend.query_parallelism >= 1
    assert backend.qubit_count > 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_matches_architecture_model(name):
    """The backend serves the same architecture the registry tabulates."""
    data = random_data(CAPACITY, seed=2)
    backend = build_backend(name, CAPACITY, data)
    model = build_architecture(name, CAPACITY, data)
    assert backend.qubit_count == model.qubit_count
    assert backend.query_parallelism == model.query_parallelism


def test_registry_backend_views_stay_coherent():
    """backend_names() and build_backend derive from the same spec field."""
    from repro.baselines.registry import ARCHITECTURES, ArchitectureSpec

    ARCHITECTURES["No-Backend"] = ArchitectureSpec(
        "No-Backend", lambda capacity, data=None: None, "O(N)"
    )
    try:
        assert "No-Backend" in architecture_names()
        assert "No-Backend" not in backend_names()
        with pytest.raises(KeyError, match="no execution backend"):
            build_backend("No-Backend", CAPACITY)
    finally:
        del ARCHITECTURES["No-Backend"]
    # Every advertised backend name actually builds.
    for name in backend_names():
        assert build_backend(name, CAPACITY).name == name


def test_registry_resolves_any_capitalization():
    assert resolve_architecture("fat-tree").name == "Fat-Tree"
    assert resolve_architecture("VIRTUAL").name == "Virtual"
    with pytest.raises(KeyError):
        resolve_architecture("Hyper-Tree")
    with pytest.raises(KeyError):
        build_backend("Hyper-Tree", CAPACITY)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_window_functional_outputs(name):
    data = random_data(CAPACITY, seed=3)
    backend = build_backend(name, CAPACITY, data)
    requests = [
        QueryRequest(0, {1: 0.6, 5: 0.8}),
        QueryRequest(1, {2: 1.0}, initial_bus=1),
    ]
    result = backend.run_window(requests, functional=True)
    assert isinstance(result, WindowResult)
    assert len(result.start_offsets) == 2
    assert result.total_layers >= max(result.finish_offsets)
    for slot, request in enumerate(requests):
        assert result.fidelities[slot] == pytest.approx(1.0)
        for (address, bus), _amp in result.outputs[slot].items():
            assert bus == data[address] ^ request.initial_bus
        assert result.finish_offsets[slot] > result.start_offsets[slot] > 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_window_timing_only(name):
    """Functional and timing-only windows share one timing model at every
    occupancy the backend admits."""
    backend = build_backend(name, CAPACITY)
    for occupancy in range(1, min(backend.query_parallelism, 8) + 1):
        requests = [QueryRequest(i, {0: 1.0}) for i in range(occupancy)]
        functional = backend.run_window(requests, functional=True)
        timing = backend.run_window(requests, functional=False)
        assert timing.outputs == (None,) * occupancy
        # Timing-only windows report the analytic *predicted* fidelity in
        # place of the measured one — the serving stack is never blind to
        # quality.
        assert timing.fidelities == timing.predicted_fidelities
        assert all(0.0 <= f < 1.0 for f in timing.fidelities)
        assert timing.predicted_fidelities == functional.predicted_fidelities
        assert timing.start_offsets == functional.start_offsets
        assert timing.finish_offsets == functional.finish_offsets
        assert timing.interval == functional.interval
        assert timing.total_layers == functional.total_layers
    with pytest.raises(ValueError):
        backend.run_window([])


def test_bb_backend_is_sequential():
    backend = build_backend("BB", CAPACITY)
    assert backend.query_parallelism == 1
    lifetime = backend.model.raw_query_layers
    result = backend.run_window(
        [QueryRequest(i, {0: 1.0}) for i in range(3)], functional=False
    )
    assert result.interval == lifetime
    assert result.total_layers == 3 * lifetime
    assert result.start_offsets == (1.0, lifetime + 1.0, 2 * lifetime + 1.0)


def test_bb_cached_executor_reused():
    backend = build_backend("BB", CAPACITY)
    first = backend.model.cached_executor()
    assert backend.model.cached_executor() is first


# ---------------------------------------------------------------- integration
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_service_serves_trace_on_every_architecture(name):
    """Acceptance: QRAMService drains a functional trace on all five."""
    capacity = 16
    data = random_data(capacity, seed=4)
    service = QRAMService(capacity, num_shards=2, data=data, architecture=name)
    trace = list(iter_poisson_trace(
        capacity, 10, mean_interarrival=12.0, num_tenants=2, num_shards=2, seed=6
    ))
    report = ServiceEngine(service).run(TraceSource(trace))
    assert report.stats.total_queries == 10
    assert list(report.stats.per_backend) == [name]
    backend_stats = report.stats.per_backend[name]
    assert backend_stats.queries == 10
    assert backend_stats.shards == 2
    assert backend_stats.busy_layers > 0
    for record in report.served:
        assert record.architecture == name
        assert record.fidelity == pytest.approx(1.0)
    for request in trace:
        for (address, bus), _amp in report.outputs[request.query_id].items():
            assert bus == data[address]


def test_service_mixed_fleet_reports_per_backend_stats():
    """Acceptance: one heterogeneous fleet, per-backend stats split."""
    capacity = 16
    data = random_data(capacity, seed=5)
    service = QRAMService(
        capacity, num_shards=2, data=data, architectures=["Fat-Tree", "BB"]
    )
    assert service.architectures == ["Fat-Tree", "BB"]
    assert service.window_sizes == [3, 1]    # log2(8) vs sequential
    trace = list(iter_poisson_trace(
        capacity, 16, mean_interarrival=8.0, num_tenants=2, num_shards=2, seed=7
    ))
    report = ServiceEngine(service).run(TraceSource(trace))
    stats = report.stats
    assert sorted(stats.per_backend) == ["BB", "Fat-Tree"]
    assert sum(b.queries for b in stats.per_backend.values()) == 16
    assert stats.per_shard[0].architecture == "Fat-Tree"
    assert stats.per_shard[1].architecture == "BB"
    for record in report.served:
        assert record.fidelity == pytest.approx(1.0)
        assert record.architecture == service.architectures[record.shard]
    # BB windows are single-query; Fat-Tree windows may batch.
    assert all(
        w.batch_size == 1 for w in report.windows if w.architecture == "BB"
    )


def test_service_rejects_mismatched_fleet_configuration():
    with pytest.raises(ValueError, match="one backend per shard"):
        QRAMService(16, num_shards=2, architectures=["Fat-Tree"])
    with pytest.raises(ValueError, match="placement"):
        QRAMService(16, num_shards=2, placement="round-robin")
    with pytest.raises(KeyError):
        QRAMService(16, num_shards=2, architecture="Hyper-Tree")


def test_service_shortest_queue_replication():
    """Replicated fleets spread full-range superpositions over shards."""
    capacity = 16
    data = random_data(capacity, seed=8)
    service = QRAMService(
        capacity,
        num_shards=3,
        data=data,
        architecture="Fat-Tree",
        placement="shortest-queue",
    )
    # Superpositions are NOT shard-aligned: replication allows any shard.
    trace = list(iter_poisson_trace(
        capacity, 12, mean_interarrival=4.0, num_shards=1, seed=9
    ))
    report = ServiceEngine(service).run(TraceSource(trace))
    assert report.stats.total_queries == 12
    assert len({r.shard for r in report.served}) > 1
    for record in report.served:
        assert record.fidelity == pytest.approx(1.0)
    for request in trace:
        for (address, bus), _amp in report.outputs[request.query_id].items():
            assert bus == data[address]


def test_service_priority_policy_admits_high_priority_first():
    requests = [
        QueryRequest(i, {0: 1.0}, request_time=0.0, priority=(1 if i >= 3 else 0))
        for i in range(6)
    ]
    service = QRAMService(
        8, num_shards=1, policy=PriorityPolicy(), functional=False, window_size=1
    )
    report = ServiceEngine(service).run(TraceSource(requests))
    order = [r.query_id for r in sorted(report.served, key=lambda s: s.start_layer)]
    assert order == [3, 4, 5, 0, 1, 2]


def test_policy_coercion_accepts_names_and_objects():
    assert isinstance(as_policy("fifo"), FIFOPolicy)
    assert as_policy("LIFO").name == "lifo"
    assert as_policy("random", seed=3).name == "random"
    existing = PriorityPolicy()
    assert as_policy(existing) is existing
    with pytest.raises(KeyError):
        as_policy("deadline")
    with pytest.raises(TypeError):
        as_policy(42)


def test_policy_names_vocabulary():
    from repro.scheduling.policy import policy_names

    assert policy_names() == ("edf", "fifo", "lifo", "priority", "random")


# -------------------------------------------------------- predicted fidelity
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_predicted_fidelity_surface(name):
    """Every backend predicts a per-slot fidelity for any window shape."""
    backend = build_backend(name, CAPACITY)
    solo = backend.predicted_query_fidelity()
    assert 0.0 < solo < 1.0
    assert backend.predicted_window_fidelities(1) == (solo,)
    window = backend.predicted_window_fidelities(3)
    assert len(window) == 3
    # Pipelining-depth degradation never *improves* a slot over a lone query.
    assert all(0.0 <= f <= solo for f in window)
    with pytest.raises(ValueError):
        backend.predicted_window_fidelities(0)


def test_fat_tree_prediction_matches_table3_bound():
    """A lone query predicts exactly the Sec. 8.1 / Table 3 bound."""
    from repro.fidelity.noise_resilience import fat_tree_query_infidelity
    from repro.hardware.parameters import TABLE3_PARAMETERS

    params = TABLE3_PARAMETERS[1e-3]
    backend = build_backend("Fat-Tree", 16, parameters=params)
    assert backend.predicted_query_fidelity() == pytest.approx(
        1.0 - fat_tree_query_infidelity(16, params)
    )
    assert backend.predicted_query_fidelity() == pytest.approx(1.0 - 0.08)


def test_fat_tree_pipelining_degrades_interior_slots():
    backend = build_backend("Fat-Tree", 16)
    solo = backend.predicted_query_fidelity()
    window = backend.predicted_window_fidelities(4)
    # Interior slots overlap more in-flight neighbours than the edges.
    assert window[1] < window[0] < solo
    assert window[1] == pytest.approx(window[2])    # symmetric overlap


def test_bb_sequential_windows_never_degrade():
    """BB admits queries one full lifetime apart: zero overlap, zero
    pipelining degradation at any batch size."""
    backend = build_backend("BB", CAPACITY)
    solo = backend.predicted_query_fidelity()
    assert backend.predicted_window_fidelities(5) == (solo,) * 5


def test_distributed_crosstalk_is_per_copy():
    """Slots on different hardware copies never degrade each other: a batch
    no larger than the copy count predicts the lone-query bound."""
    backend = build_backend("D-Fat-Tree", 16)
    copies = backend.model.num_copies
    solo = backend.predicted_query_fidelity()
    assert backend.predicted_window_fidelities(copies) == (solo,) * copies
    # One more query makes exactly one copy pipeline two queries.
    overloaded = backend.predicted_window_fidelities(copies + 1)
    assert overloaded[0] < solo and overloaded[copies] < solo
    assert all(f == solo for f in overloaded[1:copies])


def test_served_requests_always_carry_predicted_fidelity():
    """Timing-only serving populates ServedQuery.fidelity with the
    prediction instead of None."""
    capacity = 16
    trace = list(iter_poisson_trace(
        capacity, 12, mean_interarrival=5.0, num_shards=2, seed=4
    ))
    service = QRAMService(capacity, num_shards=2, functional=False)
    report = ServiceEngine(service).run(TraceSource(trace))
    for record in report.served:
        assert record.fidelity is not None
        assert record.predicted_fidelity is not None
        assert 0.0 < record.predicted_fidelity < 1.0
    stats = report.stats
    assert stats.mean_fidelity is not None
    assert stats.min_fidelity is not None
    assert 0.0 < stats.min_fidelity <= stats.mean_fidelity < 1.0
    for backend_stats in stats.per_backend.values():
        assert backend_stats.mean_fidelity is not None
    for shard_stats in stats.per_shard.values():
        assert shard_stats.min_fidelity is not None


# ------------------------------------------------------------- QEC encoding
def test_encoded_backend_registry_names():
    from repro.backends import encoded_backend_name, parse_encoded_name

    assert encoded_backend_name("Fat-Tree", 3) == "Fat-Tree@d3"
    assert parse_encoded_name("Fat-Tree@d3") == ("Fat-Tree", 3)
    assert parse_encoded_name("BB") == ("BB", 1)
    with pytest.raises(ValueError):
        parse_encoded_name("Fat-Tree@dx")
    with pytest.raises(ValueError):
        parse_encoded_name("Fat-Tree@d0")
    with pytest.raises(KeyError):
        build_backend("Hyper-Tree@d3", CAPACITY)


def test_build_backend_distance_knob():
    """The ``@d<k>`` suffix is the one distance knob: a bare name and
    ``@d1`` build the bare adapter, ``@d<k>`` (k >= 2) the encoded one."""
    from repro.backends import EncodedBackend

    bare = build_backend("Fat-Tree", CAPACITY)
    encoded = build_backend("Fat-Tree@d3", CAPACITY)
    assert isinstance(encoded, EncodedBackend)
    assert isinstance(encoded, QRAMBackend)
    assert encoded.name == "Fat-Tree@d3" and encoded.distance == 3
    assert not isinstance(build_backend("Fat-Tree@d1", CAPACITY), EncodedBackend)
    assert build_backend("Fat-Tree@d5", CAPACITY).name == "Fat-Tree@d5"
    assert bare.capacity == encoded.capacity


def test_encoded_backend_table5_resources_and_timing():
    """Distance d costs m = d^2 qubits per logical qubit, divides the
    logical parallelism and stretches layers by the syndrome depth D,
    trailing m pipelined physical queries (Table 5)."""
    capacity = 16
    bare = build_backend("Fat-Tree", capacity)
    encoded = build_backend("Fat-Tree@d3", capacity)
    m = encoded.code.physical_qubits
    depth = encoded.code.syndrome_depth
    assert m == 9 and encoded.code.distance == 3
    assert encoded.qubit_count == m * bare.qubit_count
    assert encoded.query_parallelism == max(1, bare.query_parallelism // m)
    assert encoded.timing_window(2).interval == depth * bare.timing_window(2).interval
    request = [QueryRequest(0, {1: 1.0})]
    bare_window = bare.run_window(request, functional=False)
    encoded_window = encoded.run_window(request, functional=False)
    assert encoded_window.total_layers == depth * bare_window.total_layers + m
    assert encoded_window.finish_offsets[0] == depth * bare_window.finish_offsets[0] + m


def test_encoded_backend_improves_fidelity_below_threshold():
    """Below the code threshold, an encoded replica predicts (much) higher
    fidelity than its bare twin — the Fig. 11 separation, servable."""
    from repro.hardware.parameters import TABLE3_PARAMETERS

    params = TABLE3_PARAMETERS[1e-4]
    bare = build_backend("Fat-Tree", 16, parameters=params)
    encoded = build_backend("Fat-Tree@d3", 16, parameters=params)
    assert encoded.predicted_query_fidelity() > bare.predicted_query_fidelity()
    assert encoded.predicted_query_fidelity() > 0.999
    # Functional windows pass outputs through but report the prediction:
    # the gate-level simulation is of the bare circuit.
    result = encoded.run_window([QueryRequest(0, {1: 1.0})], functional=True)
    assert result.outputs[0] is not None
    assert result.fidelities == result.predicted_fidelities
    assert result.fidelities[0] == pytest.approx(encoded.predicted_query_fidelity())


def test_encoded_backend_rejects_distance_one():
    from repro.backends import EncodedBackend

    with pytest.raises(ValueError):
        EncodedBackend(build_backend("BB", CAPACITY), distance=1)


# --------------------------------------------------------- prediction caches
@pytest.mark.parametrize("name", ALL_BACKENDS + ["Fat-Tree@d3"])
@pytest.mark.parametrize("functional", [False, True])
def test_window_predictions_equal_predicted_window_fidelities(name, functional):
    """A window carries exactly the occupancy's predictions, so the engine
    can read them off the result instead of looking them up again."""
    backend = build_backend(name, CAPACITY, random_data(CAPACITY, seed=4))
    fresh = build_backend(name, CAPACITY, random_data(CAPACITY, seed=4))
    for occupancy in range(1, max(2, backend.query_parallelism) + 1):
        requests = [
            QueryRequest(i, {i % CAPACITY: 1.0}) for i in range(occupancy)
        ]
        result = backend.run_window(requests, functional=functional)
        assert result.predicted_fidelities == (
            backend.predicted_window_fidelities(occupancy)
        )
        assert result.predicted_fidelities == (
            fresh.predicted_window_fidelities(occupancy)
        )


def test_serving_never_derives_window_predictions(monkeypatch):
    """Fleet build derives every admissible occupancy's window; a
    timing-only serve afterwards only reads the per-backend memo."""
    from repro.backends.analytic import _DistributedBackend
    from repro.backends.noise import PredictedFidelityMixin

    calls = []

    def spy(cls):
        original = vars(cls)["_compute_window_fidelities"]

        def counted(self, batch_size, starts, finishes):
            calls.append((self.name, batch_size))
            return original(self, batch_size, starts, finishes)

        monkeypatch.setattr(cls, "_compute_window_fidelities", counted)

    for cls in (PredictedFidelityMixin, _DistributedBackend):
        spy(cls)
    capacity = 16
    service = QRAMService(
        capacity,
        num_shards=3,
        architectures=["Fat-Tree", "D-Fat-Tree", "Fat-Tree@d3"],
        placement="shortest-queue",
        functional=False,
    )
    assert {name for name, _ in calls} == set(service.architectures)
    calls.clear()
    trace = iter_poisson_trace(
        capacity, 500, mean_interarrival=2.0, num_shards=1, seed=5
    )
    report = ServiceEngine(service, workers=0).run(StreamingTraceSource(trace))
    assert report.stats.total_queries == 500
    assert len({record.shard for record in report.served}) == 3
    assert calls == []


@pytest.mark.parametrize("name", ["Fat-Tree", "BB", "D-Fat-Tree", "Fat-Tree@d3"])
def test_timing_window_miss_evaluates_offsets_once(name, monkeypatch):
    """A memo miss evaluates the window's offsets once and hands them to
    the prediction hook; a hit evaluates nothing."""
    backend = build_backend(name, 16, random_data(16, seed=3))
    backend.__dict__.pop("_window_cache", None)
    cls = type(backend)
    original = cls._window_offsets
    calls = []

    def counted(self, batch_size):
        calls.append(batch_size)
        return original(self, batch_size)

    monkeypatch.setattr(cls, "_window_offsets", counted)
    occupancies = range(1, max(2, backend.query_parallelism) + 1)
    for occupancy in occupancies:
        backend.timing_window(occupancy)
        backend.timing_window(occupancy)
    assert calls == list(occupancies)


def test_distributed_subbatch_sizes_iterate_deterministically():
    """Regression: per-copy sub-batch sizes are visited via sorted(set(...)),
    never raw set order, so the prediction is a pure function of batch size."""
    copies = build_backend("D-Fat-Tree", 16).model.num_copies
    assert copies >= 2
    batch = copies + 1  # copy 0 gets two local slots, every other copy one
    runs = [
        build_backend("D-Fat-Tree", 16).predicted_window_fidelities(batch)
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    fids = runs[0]
    # Slots 1..copies-1 are singleton sub-batches: identical fidelity.
    assert len(set(fids[1:copies])) == 1
    # Copy 0's two slots (0 and `copies`) share a sub-batch; pipelining
    # crosstalk degrades both below the singleton prediction.
    assert fids[0] == fids[copies] < fids[1]

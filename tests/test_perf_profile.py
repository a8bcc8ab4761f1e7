"""The hot-path profiler: observational by contract, and the hot-path
allocation trims it guided.

``REPRO_PROFILE=1`` (or ``ServiceEngine(profile=True)``) must land a
stage-time table on the report without perturbing a single simulated
value — the engine wraps its stage methods but never changes them.  These
tests pin that contract, the profiler/StageProfile mechanics, and the
bit-exactness of the allocation trims the profile motivated (fast record
construction, the interleaved route fast path).
"""

from __future__ import annotations

import pickle

import pytest

import repro.perf.profiler as profiler_module
from repro.engine import ServiceEngine, StreamingTraceSource
from repro.metrics.service_stats import ServedQuery, WindowRecord
from repro.perf import HotPathProfiler, StageProfile
from repro.service.service import QRAMService
from repro.service.sharding import InterleavedShardMap
from repro.workloads.generators import iter_poisson_trace


def _serve(profile=None, retention="full"):
    trace = iter_poisson_trace(
        8, 300, mean_interarrival=14.0, addresses_per_query=1,
        num_tenants=4, num_shards=2, seed=5,
    )
    service = QRAMService(8, num_shards=2, functional=False)
    return ServiceEngine(
        service, retention=retention, telemetry_interval=2000.0, profile=profile
    ).run(StreamingTraceSource(trace))


# --------------------------------------------------------------------------
# Observational contract
# --------------------------------------------------------------------------
def test_profiled_run_is_observational():
    """profile=True changes nothing but the report's profile field."""
    plain = _serve(profile=False)
    profiled = _serve(profile=True)
    assert plain.profile is None
    assert profiled.profile is not None
    assert profiled.served == plain.served
    assert profiled.windows == plain.windows
    assert profiled.stats == plain.stats
    assert profiled.telemetry == plain.telemetry


def test_profile_counts_match_run_shape():
    """Stage counts equal the run's actual event counts."""
    report = _serve(profile=True)
    counts = report.profile.counts
    assert counts["admission"] == 300
    assert counts["sketch_update"] == len(report.served) == 300
    assert counts["window_execute"] == len(report.windows)
    assert counts["run_window"] == len(report.windows)
    # No wall clock was injected: counting only, zero seconds.
    assert not report.profile.timed
    assert all(spent == 0.0 for spent in report.profile.seconds.values())


def test_env_variable_enables_profiling(monkeypatch):
    monkeypatch.setenv(profiler_module.PROFILE_ENV, "1")
    report = _serve(profile=None)
    assert report.profile is not None
    monkeypatch.setenv(profiler_module.PROFILE_ENV, "0")
    assert _serve(profile=None).profile is None


def test_engine_reusable_after_profiled_run():
    """A second run on the same engine must not double-count stages."""
    from repro.engine.core import ServiceEngine

    service = QRAMService(8, num_shards=2, functional=False)
    engine = ServiceEngine(service, retention="full", profile=True)

    def trace():
        return iter_poisson_trace(
            8, 100, mean_interarrival=14.0, addresses_per_query=1,
            num_tenants=2, num_shards=2, seed=3,
        )

    first = engine.run(StreamingTraceSource(trace()))
    second = engine.run(StreamingTraceSource(trace()))
    assert first.profile.counts == second.profile.counts
    assert first.stats == second.stats


# --------------------------------------------------------------------------
# Profiler / StageProfile mechanics
# --------------------------------------------------------------------------
def test_profiler_counts_without_clock():
    profiler = HotPathProfiler()
    work = profiler.timed("stage", lambda x: x + 1)
    assert work(1) == 2 and work(2) == 3
    snapshot = profiler.snapshot()
    assert snapshot.counts == {"stage": 2}
    assert not snapshot.timed


def test_profiler_times_with_injected_clock(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(profiler_module, "host_clock", lambda: float(next(ticks)))
    profiler = HotPathProfiler()
    assert profiler.call("once", lambda: "done") == "done"
    wrapped = profiler.timed("wrapped", lambda: None)
    wrapped()
    snapshot = profiler.snapshot()
    assert snapshot.timed
    assert snapshot.counts == {"once": 1, "wrapped": 1}
    assert snapshot.seconds["once"] == 1.0
    assert snapshot.seconds["wrapped"] == 1.0


def test_stage_profile_merge_and_table():
    first = StageProfile(counts={"a": 2, "b": 1}, seconds={"a": 0.5}, timed=True)
    second = StageProfile(counts={"a": 3, "c": 4}, seconds={"a": 0.25, "c": 1.0})
    merged = first.merged(second)
    assert merged.counts == {"a": 5, "b": 1, "c": 4}
    assert merged.seconds == {"a": 0.75, "c": 1.0}
    assert merged.timed
    table = merged.table()
    assert "stage" in table and "a" in table and "c" in table
    assert StageProfile().table() == "(no profiled stages)"
    assert pickle.loads(pickle.dumps(merged)) == merged


# --------------------------------------------------------------------------
# Hot-path trim parity (profile-guided allocation trims)
# --------------------------------------------------------------------------
def test_fast_record_constructors_equal_normal_construction():
    fields = dict(
        query_id=7, tenant=1, shard=0, request_time=10.0, admit_layer=12.0,
        start_layer=13.0, finish_layer=20.0, fidelity=0.99,
        architecture="Fat-Tree", deadline=None, predicted_fidelity=0.99,
        min_fidelity=None, distillation_copies=1,
    )
    fast = ServedQuery._from_fields(**fields)
    normal = ServedQuery(**fields)
    assert fast == normal
    assert hash(fast) == hash(normal)
    assert fast.latency_layers == normal.latency_layers
    assert pickle.loads(pickle.dumps(fast)) == normal

    window_fields = dict(
        shard=0, admit_layer=5.0, batch_size=4, interval=3,
        total_layers=30.0, architecture="BB",
    )
    assert WindowRecord._from_fields(**window_fields) == WindowRecord(
        **window_fields
    )


def test_interleaved_route_single_address_fast_path():
    shard_map = InterleavedShardMap(16, 4)
    for address in range(16):
        amplitudes = {address: 0.6 + 0.8j}
        assert shard_map.route(amplitudes) == (
            address % 4, {address // 4: 0.6 + 0.8j}
        )
    with pytest.raises(ValueError):
        shard_map.route({16: 1.0})
    # Multi-address superpositions still validate shard alignment.
    assert shard_map.route({1: 0.5, 5: 0.5}) == (1, {0: 0.5, 1: 0.5})
    with pytest.raises(ValueError):
        shard_map.route({0: 0.5, 1: 0.5})

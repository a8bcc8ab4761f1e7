"""Runtime sanitizer: every invariant trips on a violation and never on a
healthy run.

Healthy-path tests prove sanitizing changes nothing (identical reports);
violation tests corrupt one invariant at a time — NaN timestamps, a
non-heap-ordered event list, a clock that runs backwards, dropped served
records, a window admitted on a busy shard — and pin the diagnostic.
"""

import math

import pytest

from repro import QRAMService, QueryRequest, ServiceEngine, TraceSource
from repro.engine import SANITIZE_ENV, SanitizerViolation
from repro.engine.events import EventHeap, ScaleCheck
from repro.workloads import closed_loop_source, iter_poisson_trace

CAPACITY = 16


def _service(**kwargs):
    return QRAMService(CAPACITY, num_shards=2, functional=False, **kwargs)


def _trace(seed=5, queries=20):
    return list(iter_poisson_trace(
        CAPACITY, queries, mean_interarrival=6.0, num_shards=2, seed=seed
    ))


def _timing_signature(report):
    return [
        (s.query_id, s.tenant, s.shard, s.request_time, s.admit_layer,
         s.start_layer, s.finish_layer)
        for s in report.served
    ]


# --------------------------------------------------------------- healthy path
def test_sanitized_run_is_bit_identical_to_unsanitized():
    trace = _trace()
    plain = ServiceEngine(_service(), sanitize=False).run(TraceSource(trace))
    checked = ServiceEngine(_service(), sanitize=True).run(TraceSource(trace))
    assert _timing_signature(plain) == _timing_signature(checked)
    assert plain.stats == checked.stats


def test_sanitized_closed_loop_run_passes():
    source = closed_loop_source(
        CAPACITY, num_clients=4, queries_per_client=5, think_layers=30.0,
        num_shards=2, seed=11,
    )
    report = ServiceEngine(_service(), sanitize=True).run(source)
    assert report.stats.total_queries == 20


def test_sanitizer_defaults_off_and_reads_environment(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert ServiceEngine(_service()).sanitize is False
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert ServiceEngine(_service()).sanitize is True
    monkeypatch.setenv(SANITIZE_ENV, "off")
    assert ServiceEngine(_service()).sanitize is False
    # An explicit argument always beats the environment.
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert ServiceEngine(_service(), sanitize=False).sanitize is False


# ----------------------------------------------------------------- event heap
def test_nan_timestamp_rejected_only_under_sanitizer():
    heap = EventHeap(sanitize=True)
    with pytest.raises(SanitizerViolation, match="NaN"):
        heap.push(math.nan, ScaleCheck())
    # The unsanitized heap stays permissive (zero-overhead default path).
    EventHeap().push(math.nan, ScaleCheck())


def test_corrupted_heap_ordering_detected():
    heap = EventHeap(sanitize=True)
    heap.push(5.0, ScaleCheck())
    heap.push(1.0, ScaleCheck())
    heap._heap.reverse()  # break the heap invariant behind the API's back
    heap.pop()
    with pytest.raises(SanitizerViolation, match="nondecreasing"):
        heap.pop()


# ------------------------------------------------------------ engine tripwires
class _LIFOStubHeap:
    """Drop-in EventHeap that pops newest-first: time runs backwards."""

    def __init__(self, sanitize=False, profiler=None):
        self._items = []

    def push(self, time, event):
        self._items.append((time, event))

    def pop(self):
        return self._items.pop()

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)


def test_backwards_clock_detected(monkeypatch):
    monkeypatch.setattr("repro.engine.core.EventHeap", _LIFOStubHeap)
    engine = ServiceEngine(_service(), sanitize=True)
    with pytest.raises(SanitizerViolation, match="backwards"):
        engine.run(TraceSource(_trace()))


def test_lost_served_records_break_conservation():
    # workers=0 pins the oracle path: the instance-level patch below can
    # only break *this* engine, never the fresh per-shard child engines
    # REPRO_WORKERS-driven partitioned runs would serve with.
    engine = ServiceEngine(_service(), sanitize=True, workers=0)
    engine._record_served = lambda record: None  # silently drop every result
    with pytest.raises(SanitizerViolation, match="conservation"):
        engine.run(TraceSource(_trace()))


def test_window_admission_on_busy_shard_detected():
    # workers=0 here and below: these tests reach into the oracle engine's
    # internals, which a REPRO_WORKERS-partitioned run never populates.
    engine = ServiceEngine(_service(), sanitize=True, workers=0)
    engine.run(TraceSource(_trace()))
    engine._busy_until[0] = 100.0
    with pytest.raises(SanitizerViolation, match="busy"):
        engine._execute_window(0, [], admit=5.0)


def test_unsanitized_engine_tolerates_the_same_fault():
    # The conservation fault from above passes silently without the
    # sanitizer: dropped records *reduce* served counts but nothing checks.
    engine = ServiceEngine(_service(), sanitize=False, workers=0)
    engine._record_served = lambda record: None
    # With zero served and zero rejected records the plain engine can only
    # misdiagnose the fault as an empty workload.
    with pytest.raises(ValueError, match="produced no requests"):
        engine.run(TraceSource(_trace()))


def test_queries_left_queued_detected():
    engine = ServiceEngine(_service(), sanitize=True, workers=0)

    def leak(shard, now):  # never start windows: arrivals stay queued forever
        return None

    engine._maybe_start = leak
    with pytest.raises(SanitizerViolation, match="queued"):
        engine.run(TraceSource(_trace()))


# ----------------------------------------------------------- request counting
def test_offered_counts_validated_arrivals():
    engine = ServiceEngine(_service(), sanitize=True, workers=0)
    report = engine.run(TraceSource(_trace(queries=15)))
    assert engine._offered == 15
    assert report.stats.offered_queries == 15
    total_rejected = report.stats.rejected_queries + report.stats.shed_queries
    assert report.stats.total_queries + total_rejected == 15

"""Per-layer host-time ledger of one traced operation.

The ledger times the calls into each layer's public functions from the
outside: :meth:`Ledger.installed` wraps those functions and methods in
nested spans for the duration of one operation and restores the
originals afterwards, so untraced runs execute the unmodified program.

Spans nest: a span's *self* time is its duration minus the durations of
the spans opened inside it.  Every span name maps to one ``*_s`` metric
(:data:`SPAN_METRICS`), so the self times plus ``unattributed_s`` (time
inside the traced operation but outside every span) add up to the traced
wall time.  Spans are aggregated on exit into per-name totals and a
``(parent, name)`` call tree rather than stored one by one, which keeps a
60k-request trace in constant memory.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

from repro.backends import (
    BBBackend,
    DistributedBBBackend,
    DistributedFatTreeBackend,
    EncodedBackend,
    FatTreeBackend,
    PredictedFidelityMixin,
    VirtualBackend,
)
from repro.core.executor import FatTreeExecutor
from repro.engine import core as engine_core
from repro.engine.events import EventHeap
from repro.metrics import service_stats
from repro.metrics.streaming import StreamingServiceAggregator
from repro.scenarios.spec import ScenarioSpec
from repro.schedule_cache import CacheStats, ScheduleCacheRegistry
from repro.scheduling.policy import AdmissionPolicy
from repro.service.service import QRAMService
from repro.service.sharding import InterleavedShardMap, ReplicatedShardMap
from repro.sim.sparse import SparseState
from repro.sweep import engine as sweep_engine
from repro.sweep import pareto
from repro.workloads import generators

#: Span name -> the self-time metric it is reported under.
SPAN_METRICS = {
    "workloads.gen": "workloads.gen_s",
    "scenarios.build": "scenarios.build_s",
    "service.fleet_build": "service.fleet_build_s",
    "service.route": "service.route_s",
    "schedule_cache.prewarm": "schedule_cache.prewarm_s",
    "engine.run": "engine.self_s",
    "engine.heap": "engine.heap_s",
    "scheduling.select": "scheduling.select_s",
    "backends.run_window": "backends.run_window_s",
    "backends.predict": "backends.predict_s",
    "core.pipelined": "core.pipelined_s",
    "sim.gate": "sim.gate_s",
    "metrics.observe": "metrics.observe_s",
    "metrics.summarize": "metrics.summarize_s",
    "sweep.run": "sweep.self_s",
    "sweep.digest": "sweep.digest_s",
    "sweep.frontier": "sweep.frontier_s",
}

#: Percentiles tried, highest first, for the window-time tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Spans beyond a tail percentile must number at least this many.
TAIL_MIN_BEYOND = 10

_BACKENDS = (
    FatTreeBackend,
    BBBackend,
    VirtualBackend,
    DistributedFatTreeBackend,
    DistributedBBBackend,
    EncodedBackend,
)


class Tracer:
    """Nested host-time spans, aggregated as they close."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: (parent span or None, span) -> [calls, inclusive seconds].
        self.tree: dict[tuple[str | None, str], list[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: Inclusive seconds of spans opened outside any other span.
        self.root_s = 0.0
        self._stack: list[list[Any]] = []

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; return its duration."""
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            edge = self.tree[(parent[0], name)]
        else:
            self.root_s += duration
            edge = self.tree[(None, name)]
        edge[0] += 1
        edge[1] += duration
        return duration


class _TracedIterator:
    """A request iterator whose every ``next`` is a ``workloads.gen`` span."""

    def __init__(self, iterator: Iterator[Any], ledger: "Ledger") -> None:
        self._iterator = iterator
        self._ledger = ledger

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._ledger.tracer
        tracer.enter("workloads.gen")
        try:
            item = next(self._iterator)
            self._ledger.requests += 1
            return item
        finally:
            tracer.exit()


class Ledger:
    """Installs the layer spans and turns them into per-layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.requests = 0
        self.window_s: list[float] = []
        self.batch_fill: list[float] = []
        self.peak_terms = 0
        self._originals: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- wrappers
    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        enter, exit_ = self.tracer.enter, self.tracer.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def _generator(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        # The generators are lazy: all their work happens in next().
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> _TracedIterator:
            return _TracedIterator(fn(*args, **kwargs), self)

        return traced

    def _select(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        ledger, tracer = self, self.tracer

        @functools.wraps(fn)
        def traced(policy: Any, queue: Any, count: int, now: float) -> Any:
            tracer.enter("scheduling.select")
            try:
                batch = fn(policy, queue, count, now)
                ledger.batch_fill.append(len(batch) / count)
                return batch
            finally:
                tracer.exit()

        return traced

    def _run_window(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        ledger, tracer = self, self.tracer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # An encoded backend runs its inner backend's window inside its
            # own: only the outermost span is a served window.
            outermost = tracer.parent != "backends.run_window"
            tracer.enter("backends.run_window")
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.exit()
                if outermost:
                    ledger.window_s.append(duration)

        return traced

    def _gate(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        ledger, tracer = self, self.tracer

        @functools.wraps(fn)
        def traced(state: SparseState, *args: Any, **kwargs: Any) -> Any:
            tracer.enter("sim.gate")
            try:
                return fn(state, *args, **kwargs)
            finally:
                if state.num_terms > ledger.peak_terms:
                    ledger.peak_terms = state.num_terms
                tracer.exit()

        return traced

    # ---------------------------------------------------------- installation
    def _targets(self) -> list[tuple[Any, str, Callable[..., Any]]]:
        """(owner, attribute, wrapper factory) for every traced entry."""
        span = self._span
        targets: list[tuple[Any, str, Callable[..., Any]]] = [
            (generators, "iter_poisson_trace", self._generator),
            (generators, "iter_flash_crowd_trace", self._generator),
            (ScenarioSpec, "build", functools.partial(span, "scenarios.build")),
            (QRAMService, "__init__",
             functools.partial(span, "service.fleet_build")),
            (ScheduleCacheRegistry, "prewarm",
             functools.partial(span, "schedule_cache.prewarm")),
            (engine_core.ServiceEngine, "run",
             functools.partial(span, "engine.run")),
            (EventHeap, "push", functools.partial(span, "engine.heap")),
            (EventHeap, "pop", functools.partial(span, "engine.heap")),
            (PredictedFidelityMixin, "predicted_window_fidelities",
             functools.partial(span, "backends.predict")),
            (FatTreeExecutor, "run_pipelined_queries",
             functools.partial(span, "core.pipelined")),
            (SparseState, "apply_gate", self._gate),
            (service_stats, "summarize_service",
             functools.partial(span, "metrics.summarize")),
            (engine_core, "summarize_service",
             functools.partial(span, "metrics.summarize")),
            (StreamingServiceAggregator, "to_stats",
             functools.partial(span, "metrics.summarize")),
            (sweep_engine, "run_sweep", functools.partial(span, "sweep.run")),
            (sweep_engine, "report_digest",
             functools.partial(span, "sweep.digest")),
            (pareto, "frontier_report",
             functools.partial(span, "sweep.frontier")),
        ]
        for shard_map in (InterleavedShardMap, ReplicatedShardMap):
            targets.append(
                (shard_map, "route", functools.partial(span, "service.route"))
            )
        for policy in AdmissionPolicy.__subclasses__():
            if "select" in vars(policy):
                targets.append((policy, "select", self._select))
        for backend in _BACKENDS:
            for cls in backend.__mro__:
                if "run_window" in vars(cls):
                    targets.append((cls, "run_window", self._run_window))
                    break
        for name in ("observe_served", "observe_window", "observe_rejected"):
            targets.append(
                (StreamingServiceAggregator, name,
                 functools.partial(span, "metrics.observe"))
            )
        return targets

    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Trace every layer entry point inside the ``with`` block."""
        seen: set[tuple[int, str]] = set()
        try:
            for owner, attr, factory in self._targets():
                if (id(owner), attr) in seen:
                    continue
                seen.add((id(owner), attr))
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    # --------------------------------------------------------------- metrics
    def metrics(self, wall_s: float, cache: CacheStats) -> dict[str, float]:
        """Every per-layer metric of the traced operation."""
        tracer = self.tracer
        out: dict[str, float] = {
            metric: tracer.self_s.get(span, 0.0)
            for span, metric in SPAN_METRICS.items()
        }
        calls = tracer.calls
        windows = sorted(self.window_s)
        tail_pct = next(
            (p for p in TAIL_PERCENTILES
             if len(windows) * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND),
            50.0,
        )
        out.update({
            "workloads.requests": self.requests,
            "scenarios.builds": calls.get("scenarios.build", 0),
            "service.routes": calls.get("service.route", 0),
            "schedule_cache.hits": cache.hits,
            "schedule_cache.misses": cache.misses,
            "schedule_cache.hit_rate": cache.hit_rate,
            "engine.heap_ops": calls.get("engine.heap", 0),
            "scheduling.selects": calls.get("scheduling.select", 0),
            "scheduling.batch_fill": (
                sum(self.batch_fill) / len(self.batch_fill)
                if self.batch_fill else 0.0
            ),
            "backends.windows": len(windows),
            "backends.window_p50_ms": 1e3 * _percentile(windows, 50.0),
            "backends.window_tail_ms": 1e3 * _percentile(windows, tail_pct),
            "backends.window_tail_pct": tail_pct,
            "sim.gates": calls.get("sim.gate", 0),
            "sim.peak_terms": self.peak_terms,
            "metrics.observations": calls.get("metrics.observe", 0),
            "unattributed_s": wall_s - sum(tracer.self_s.values()),
            "traced_wall_s": wall_s,
        })
        return out

    def self_checks(
        self, wall_s: float, counts: dict[str, int]
    ) -> list[str]:
        """Consistency of the ledger with itself and with the report."""
        tracer = self.tracer
        problems = []
        if tracer.open_spans:
            problems.append(f"{tracer.open_spans} span(s) never closed")
        unknown = sorted(set(tracer.self_s) - set(SPAN_METRICS))
        if unknown:
            problems.append(f"spans without a metric: {unknown}")
        attributed = sum(tracer.self_s.values())
        if abs(attributed - tracer.root_s) > 1e-6 * max(1.0, wall_s):
            problems.append(
                f"self times sum to {attributed} s but the outermost spans "
                f"cover {tracer.root_s} s"
            )
        if tracer.root_s > wall_s:
            problems.append(
                f"spans cover {tracer.root_s} s of a {wall_s} s traced run"
            )
        expected = {
            "backends.windows": (len(self.window_s), counts["windows"]),
            "scheduling.selects": (
                tracer.calls.get("scheduling.select", 0), counts["windows"]
            ),
            "metrics.observations": (
                tracer.calls.get("metrics.observe", 0), counts["records"]
            ),
            "workloads.requests": (self.requests, counts["offered"]),
        }
        for name, (traced, reported) in expected.items():
            if traced != reported:
                problems.append(
                    f"{name}: traced {traced}, report says {reported}"
                )
        return problems

    def call_tree(self) -> list[str]:
        """The aggregated span tree, one ``parent > span`` line per edge."""
        lines = []
        for (parent, name), (calls, seconds) in sorted(
            self.tracer.tree.items(), key=lambda item: -item[1][1]
        ):
            lines.append(
                f"{parent or '(root)':>24} > {name:<24} {int(calls):>9} "
                f"calls {seconds:10.4f} s"
            )
        return lines


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

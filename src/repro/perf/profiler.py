"""A lightweight hot-path stage profiler for the serving engine.

The engine's per-event cost is spread over a handful of named stages —
admission, placement, ``run_window``, fidelity prediction, sketch/record
updates, heap operations — and optimizing one blind is how the others
regress.  :class:`HotPathProfiler` attributes work to those stages with
the cheapest possible instrumentation: a wrapped stage costs one closure
call and one dict increment per invocation, and wall time is only read
when a harness has injected a :data:`host_clock`.

Stages nest (window execution wraps ``run_window`` and the record
updates), so each is charged its *self* time, nested stages excluded.
The engine runs its whole drain as the root stage :data:`UNATTRIBUTED`,
whose self time is what no named stage claimed: a run's self times sum
to its wall time, and the table's shares to 100%.

Profiling is *observational by contract*: a profiled run must produce a
report identical to an unprofiled one (pinned in
``tests/test_perf_profile.py``).  The engine guarantees that by wrapping
methods without changing them; this module guarantees it by never
touching simulation state.

Wall-clock discipline: the clock is **injected** by harnesses
(benchmarks, CLI tools) rather than read from the wall here — ``import
time`` in simulation code is what simlint's SIM001 exists to prevent.
:data:`host_clock` is the one injection point: the partitioned parallel
path reads it too, for ``ParallelRunInfo.worker_seconds``.  Without an
injected clock the profiler still counts stage invocations, so
``REPRO_PROFILE=1`` under the test suite exercises the full wiring
deterministically.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, TypeVar

__all__ = [
    "PROFILE_ENV",
    "UNATTRIBUTED",
    "HotPathProfiler",
    "StageProfile",
    "host_clock",
]

#: Environment switch for engine profiling (``ServiceEngine(profile=None)``
#: reads it, mirroring ``REPRO_SANITIZE`` / ``REPRO_WORKERS``).
PROFILE_ENV = "REPRO_PROFILE"

#: Host wall clock used to time stages and parallel workers, e.g.
#: ``time.perf_counter``.  ``None`` (the default) keeps simulation runs
#: wall-clock-free: stages are counted but not timed, and
#: ``ParallelRunInfo.worker_seconds`` reports zeros.  Benchmarks inject a
#: real clock::
#:
#:     import repro.perf.profiler
#:     repro.perf.profiler.host_clock = time.perf_counter
host_clock: Callable[[], float] | None = None

#: The root stage of a profiled run: its self time is the run's wall time
#: not attributed to any named stage.
UNATTRIBUTED = "(unattributed)"

_T = TypeVar("_T")


@dataclass(frozen=True)
class StageProfile:
    """The stage-time table of one (or several merged) profiled runs.

    Attributes:
        counts: stage name -> number of invocations.
        seconds: stage name -> self wall seconds (nested stages' time
            excluded, so the values sum to the profiled wall time); empty
            unless a :data:`host_clock` was injected for the run.
        timed: whether a host clock was available (i.e. whether
            ``seconds`` is meaningful).
    """

    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    timed: bool = False

    def merged(self, other: StageProfile) -> StageProfile:
        """Combine two profiles stage by stage (parallel-worker merge)."""
        counts = dict(self.counts)
        for stage, count in other.counts.items():
            counts[stage] = counts.get(stage, 0) + count
        seconds = dict(self.seconds)
        for stage, spent in other.seconds.items():
            seconds[stage] = seconds.get(stage, 0.0) + spent
        return StageProfile(
            counts=counts,
            seconds=seconds,
            timed=self.timed or other.timed,
        )

    def table(self) -> str:
        """The profile as an aligned text table, hottest stage first."""
        if not self.counts:
            return "(no profiled stages)"
        if self.timed:
            order = sorted(
                self.counts,
                key=lambda stage: self.seconds.get(stage, 0.0),
                reverse=True,
            )
        else:
            order = sorted(self.counts, key=self.counts.__getitem__, reverse=True)
        total = sum(self.seconds.values())
        width = max(len(stage) for stage in order)
        lines = [f"{'stage':<{width}}  {'calls':>10}  {'seconds':>10}  {'share':>6}"]
        for stage in order:
            spent = self.seconds.get(stage, 0.0)
            share = f"{spent / total:6.1%}" if total > 0 else "   n/a"
            lines.append(
                f"{stage:<{width}}  {self.counts[stage]:>10}  {spent:>10.4f}  {share}"
            )
        return "\n".join(lines)


class HotPathProfiler:
    """Counts (and optionally wall-times) named engine stages.

    One profiler instance covers one engine run; the engine creates it in
    ``_reset`` and snapshots it into the report.  ``timed`` wraps a
    callable so every invocation is attributed to a stage; ``call``
    attributes a single invocation (for stages inside a larger wrapped
    one, like the backend ``run_window`` inside window execution, and for
    the run's :data:`UNATTRIBUTED` root).
    """

    __slots__ = ("_counts", "_seconds", "_clock", "_nested")

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        # Snapshot the module global once so a run is consistently timed
        # or consistently count-only.
        self._clock = host_clock
        # One entry per open timed stage: wall seconds its nested stages
        # have spent so far.
        self._nested: list[float] = []

    def timed(self, stage: str, fn: Callable[..., _T]) -> Callable[..., _T]:
        """``fn`` wrapped to attribute every invocation to ``stage``."""
        counts = self._counts
        counts.setdefault(stage, 0)
        if self._clock is None:

            def counted(*args: Any, **kwargs: Any) -> _T:
                counts[stage] += 1
                return fn(*args, **kwargs)

            return counted

        def walled(*args: Any, **kwargs: Any) -> _T:
            return self.call(stage, fn, *args, **kwargs)

        return walled

    def call(
        self, stage: str, fn: Callable[..., _T], *args: Any, **kwargs: Any
    ) -> _T:
        """Run ``fn(*args, **kwargs)`` attributed to ``stage`` once."""
        self._counts[stage] = self._counts.get(stage, 0) + 1
        clock = self._clock
        if clock is None:
            return fn(*args, **kwargs)
        nested = self._nested
        nested.append(0.0)
        begin = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - begin
            self._seconds[stage] = (
                self._seconds.get(stage, 0.0) + elapsed - nested.pop()
            )
            if nested:
                nested[-1] += elapsed

    def snapshot(self) -> StageProfile:
        """The accumulated stage table (dicts copied, safe to pickle)."""
        return StageProfile(
            counts=dict(self._counts),
            seconds=dict(self._seconds),
            timed=self._clock is not None,
        )

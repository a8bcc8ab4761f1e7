"""A lightweight hot-path stage profiler for the serving engine.

The engine's per-event cost is spread over a handful of named stages —
the workload source, admission, placement, ``run_window``, fidelity
prediction, sketch/record updates, heap operations — and optimizing one
blind is how the others regress.  :class:`HotPathProfiler` attributes
work to those stages through explicit spans: the engine (and its event
heap) calls :meth:`~HotPathProfiler.enter` and
:meth:`~HotPathProfiler.exit` at each stage boundary, behind one ``is not
None`` test, so an unprofiled run pays nothing but that test.  A span
costs one dict increment, and wall time is only read when a harness has
injected a :data:`host_clock`.

Spans nest (window execution encloses ``run_window`` and the record
updates), so each stage is charged its *self* time, nested spans
excluded.  The engine runs its whole drain as the root span
:data:`UNATTRIBUTED`, whose self time is what no named stage claimed: a
run's self times sum to its wall time, and the table's shares to 100%.
Spans are not closed in ``finally`` blocks: an exception aborts the run,
and the run's profiler is discarded with it.

Profiling is *observational by contract*: a profiled run must produce a
report identical to an unprofiled one (pinned in
``tests/test_perf_profile.py``).  Spans only count and time; they never
touch simulation state.

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
    ``_reset`` and snapshots it into the report.  Every stage boundary is
    an :meth:`enter` / :meth:`exit` pair; pairs nest like calls.
    """

    __slots__ = ("_counts", "_seconds", "_clock", "_open", "_nested")

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        # Snapshot the module global once so a run is consistently timed
        # or consistently count-only.
        self._clock = host_clock
        # One entry per open timed span: its stage and start time, and
        # the wall seconds its nested spans have spent so far.
        self._open: list[tuple[str, float]] = []
        self._nested: list[float] = []

    def enter(self, stage: str) -> None:
        """Open one span of ``stage``; the matching :meth:`exit` closes it."""
        self._counts[stage] = self._counts.get(stage, 0) + 1
        clock = self._clock
        if clock is not None:
            self._nested.append(0.0)
            self._open.append((stage, clock()))

    def exit(self) -> None:
        """Close the innermost open span, charging its self time."""
        clock = self._clock
        if clock is None:
            return
        stage, begin = self._open.pop()
        elapsed = clock() - begin
        nested = self._nested
        self._seconds[stage] = self._seconds.get(stage, 0.0) + elapsed - nested.pop()
        if nested:
            nested[-1] += elapsed

    def snapshot(self) -> StageProfile:
        """The accumulated stage table (dicts copied, safe to pickle)."""
        return StageProfile(
            counts=dict(self._counts),
            seconds=dict(self._seconds),
            timed=self._clock is not None,
        )

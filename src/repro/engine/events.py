"""Typed events and the virtual-time event heap of the serving engine.

The engine advances one virtual clock (raw circuit layers) over a heap of
typed events.  Events at the same timestamp are ordered by a per-type
priority so that one instant unfolds deterministically and exactly like the
legacy batch-window loop did:

1. :class:`ClientThink` — every request that arrives at time ``t`` is
   enqueued before any window admits at ``t``.  A think event *is* an
   arrival: a closed-loop client issues its next request the moment its
   think time elapses, and an open-loop trace is paced the same way, one
   pending request at a time.  (Priority 0 belonged to a retired
   per-request arrival event; the others keep their numbers, which stay
   unique as simlint's SIM004 enforces.)
2. :class:`WindowDrain` — shards that finish at ``t`` free up before new
   windows are considered;
3. :class:`ScaleCheck` — the autoscaler observes the post-drain queue
   depths;
4. :class:`WindowStart` — idle shards with queued work admit one pipeline
   window each;
5. :class:`TelemetryTick` — the periodic telemetry flush observes the
   instant last, after every admission at ``t`` has resolved, so its
   queue-depth snapshot never counts work a window at the same instant
   already absorbed.

Ties within a priority level resolve in scheduling order (a monotone
sequence number), so every run is exactly reproducible.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Union

if TYPE_CHECKING:
    from repro.perf.profiler import HotPathProfiler


@dataclass(frozen=True)
class ClientThink:
    """A closed-loop client finishes thinking and issues its next request."""

    client_id: int
    PRIORITY: ClassVar[int] = 1


@dataclass(frozen=True)
class WindowDrain:
    """A shard's in-flight pipeline window fully drains; the shard is free."""

    shard: int
    PRIORITY: ClassVar[int] = 2


@dataclass(frozen=True)
class ScaleCheck:
    """Periodic autoscaler tick: compare queue depths against watermarks."""

    PRIORITY: ClassVar[int] = 3


@dataclass(frozen=True)
class WindowStart:
    """An idle shard with queued work admits one pipeline window."""

    shard: int
    PRIORITY: ClassVar[int] = 4


@dataclass(frozen=True)
class TelemetryTick:
    """Periodic telemetry flush: emit one time-windowed interval sample."""

    PRIORITY: ClassVar[int] = 5


Event = Union[ClientThink, WindowDrain, ScaleCheck, WindowStart, TelemetryTick]


class SanitizerViolation(AssertionError):
    """A runtime simulation invariant was broken.

    Raised only in sanitizer mode (``ServiceEngine(sanitize=True)`` /
    ``REPRO_SANITIZE=1``): clock monotonicity, heap-key ordering, window
    admission on a busy shard, or the request-conservation invariant.
    """


def check_nondecreasing(
    streams: Sequence[Sequence[Any]],
    key: Callable[[Any], Any],
    description: str = "record",
) -> None:
    """Sanitizer check that every record stream is nondecreasing under ``key``.

    A run's retained window and rejection streams are recorded in event
    order, so their timestamps never decrease; the report builder checks
    each stream it is handed — the oracle's one, or every partition's as
    it comes back across the worker boundary — before sorting them into
    canonical order, where an out-of-order stream would silently corrupt
    the merged timeline.

    Raises:
        SanitizerViolation: when a stream's keys are not nondecreasing.
    """
    for index, stream in enumerate(streams):
        last: Any = None
        for record in stream:
            current = key(record)
            if last is not None and current < last:
                raise SanitizerViolation(
                    f"{description} stream {index} is not nondecreasing: "
                    f"key {current!r} after {last!r}"
                )
            last = current


class EventHeap:
    """A min-heap of events keyed on ``(time, type priority, sequence)``.

    The sequence number both breaks ties deterministically and keeps the
    heap from ever comparing event payloads.

    Args:
        sanitize: verify on every operation that timestamps are finite
            numbers and that popped keys come out in nondecreasing
            ``(time, priority, sequence)`` order.
        profiler: the run's profiler, if it is profiled: every push and
            pop is one ``heap_push`` / ``heap_pop`` span.
    """

    def __init__(
        self, sanitize: bool = False, profiler: HotPathProfiler | None = None
    ) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._sanitize = sanitize
        self._profiler = profiler
        self._last_key: tuple[float, int, int] | None = None

    def push(self, time: float, event: Event) -> None:
        """Schedule an event at an absolute virtual time (raw layers)."""
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("heap_push")
        if self._sanitize and not time == time:  # NaN defeats heap ordering
            raise SanitizerViolation(
                f"event {type(event).__name__} scheduled at NaN"
            )
        heapq.heappush(self._heap, (time, event.PRIORITY, self._sequence, event))
        self._sequence += 1
        if profiler is not None:
            profiler.exit()

    def pop(self) -> tuple[float, Event]:
        """Remove and return the next ``(time, event)`` pair."""
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("heap_pop")
        time, priority, sequence, event = heapq.heappop(self._heap)
        if self._sanitize:
            key = (time, priority, sequence)
            if self._last_key is not None and key < self._last_key:
                raise SanitizerViolation(
                    f"heap popped key {key} after {self._last_key}: "
                    "event order is not nondecreasing"
                )
            self._last_key = key
        if profiler is not None:
            profiler.exit()
        return time, event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

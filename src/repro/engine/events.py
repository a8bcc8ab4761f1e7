"""Typed events and the virtual-time event heap of the serving engine.

The engine advances one virtual clock (raw circuit layers) over a heap of
typed events.  Events at the same timestamp are ordered by a per-type
priority so that one instant unfolds deterministically and exactly like the
legacy batch-window loop did:

1. :class:`ClientThink` — every request that arrives at time ``t`` is
   enqueued before any window admits at ``t``.  A think event *is* an
   arrival: a closed-loop client issues its next request the moment its
   think time elapses.  An open-loop trace is paced at the same priority,
   one pending request at a time, but its arrival never enters the heap:
   :meth:`EventHeap.hold_arrival` keeps it beside the heap under the key
   a pushed :class:`ClientThink` would have had, and
   :meth:`EventHeap.next_event` hands it out when that key is the
   smallest.  (Priorities 0 and 3 belonged to retired event types; the
   others keep their numbers, which stay unique as simlint's SIM004
   enforces.)
2. :class:`WindowDrain` — shards that finish at ``t`` free up before new
   windows are considered;
4. :class:`WindowStart` — idle shards with queued work admit one pipeline
   window each.  A start that would be the very next pop is never pushed:
   :meth:`EventHeap.claim` consumes it where it is scheduled, and the
   engine admits the window at once;
5. :class:`TelemetryTick` — the periodic telemetry flush observes the
   instant last, after every admission at ``t`` has resolved, so its
   queue-depth snapshot never counts work a window at the same instant
   already absorbed.

Ties within a priority level resolve in scheduling order (a monotone
sequence number), so every run is exactly reproducible.

**Rounds.**  Handling an event can schedule another at the very instant
being unfolded, with a lower priority than the event just popped: a
:class:`WindowStart` that sheds an expired request hands its closed-loop
client a :class:`ClientThink` at ``t``, after ``(t, 4)`` has already
popped.  Such an event cannot go back to round 0 of the instant, which has
moved past its priority; it opens the next *round* at ``t`` instead.  The
heap key's second component is the rank ``priority + ROUND * round``, so a
later round unfolds after everything left of the earlier one at ``t``, in
the same priority order, and popped keys never decrease.  An event
pushed for a later time, or at a priority round 0 of its instant has not
yet passed, stays in round 0, so a run without such same-instant
feedback keeps its historical order exactly.  A held arrival and a
claimed start take their keys by the same rule, and taking or claiming
one moves the instant and its rank exactly as popping it would, so the
unfolding order is that of pushing and popping them.
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
class WindowStart:
    """An idle shard with queued work admits one pipeline window."""

    shard: int
    PRIORITY: ClassVar[int] = 4


@dataclass(frozen=True)
class TelemetryTick:
    """Periodic telemetry flush: emit one time-windowed interval sample."""

    PRIORITY: ClassVar[int] = 5


Event = Union[ClientThink, WindowDrain, WindowStart, TelemetryTick]

#: Rank stride of one round at an instant; above every event priority.
ROUND = 8


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
    """A min-heap of events keyed on ``(time, rank, sequence)``.

    The rank is the event type's priority, plus :data:`ROUND` for each
    round the event opened at its instant (module docstring, "Rounds").
    The sequence number both breaks ties deterministically and keeps the
    heap from ever comparing event payloads.

    Beside the heap it holds at most one open-loop arrival
    (:meth:`hold_arrival`), keyed as a :class:`ClientThink` pushed at the
    same moment.  A drain loop takes events with :meth:`next_event`,
    which hands out the held arrival or pops the heap; :meth:`pop` sees
    the heap alone.

    Args:
        sanitize: verify on every operation that timestamps are finite
            numbers and that popped, taken and claimed keys come out in
            nondecreasing ``(time, priority, sequence)`` order.
        profiler: the run's profiler, if it is profiled: every push and
            pop is one ``heap_push`` / ``heap_pop`` span (held arrivals
            and claimed events are not heap operations and open none).
    """

    def __init__(
        self, sanitize: bool = False, profiler: HotPathProfiler | None = None
    ) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._sanitize = sanitize
        self._profiler = profiler
        self._last_key: tuple[float, int, int] | None = None
        # Time and rank of the last pop: the instant being unfolded and
        # how far it has got.
        self._now = 0.0
        self._floor = 0
        # Key of the held open-loop arrival, if any.
        self._arrival: tuple[float, int, int] | None = None

    def _next_round(self, rank: int) -> int:
        """The rank of a priority pushed at the instant being unfolded,
        behind its last pop: the first round at this instant that has not
        passed the priority yet."""
        floor = self._floor
        rank += floor - floor % ROUND
        if rank < floor:
            rank += ROUND
        return rank

    def _check_order(self, key: tuple[float, int, int]) -> None:
        """Sanitizer check that a key leaving the heap is not below the
        last one that left."""
        if self._last_key is not None and key < self._last_key:
            raise SanitizerViolation(
                f"heap popped key {key} after {self._last_key}: "
                "event order is not nondecreasing"
            )
        self._last_key = key

    def push(self, time: float, event: Event) -> None:
        """Schedule an event at an absolute virtual time (raw layers)."""
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("heap_push")
        if self._sanitize and not time == time:  # NaN defeats heap ordering
            raise SanitizerViolation(
                f"event {type(event).__name__} scheduled at NaN"
            )
        rank = event.PRIORITY
        # The priority compare comes first: it settles the common case.
        if rank < self._floor and time == self._now:
            rank = self._next_round(rank)
        heapq.heappush(self._heap, (time, rank, self._sequence, event))
        self._sequence += 1
        if profiler is not None:
            profiler.exit()

    def pop(self) -> tuple[float, Event]:
        """Remove and return the heap's next ``(time, event)`` pair (the
        held arrival is :meth:`next_event`'s to hand out)."""
        profiler = self._profiler
        if profiler is not None:
            profiler.enter("heap_pop")
        time, rank, sequence, event = heapq.heappop(self._heap)
        self._now = time
        self._floor = rank
        if self._sanitize:
            self._check_order((time, rank, sequence))
        if profiler is not None:
            profiler.exit()
        return time, event

    def hold_arrival(self, time: float) -> None:
        """Hold the next open-loop arrival beside the heap, keyed as a
        :class:`ClientThink` pushed at ``time`` now would be."""
        if self._arrival is not None:
            raise ValueError("an arrival is already held")
        if self._sanitize and not time == time:
            raise SanitizerViolation("arrival scheduled at NaN")
        rank = ClientThink.PRIORITY
        if rank < self._floor and time == self._now:
            rank = self._next_round(rank)
        self._arrival = (time, rank, self._sequence)
        self._sequence += 1

    def next_event(self) -> tuple[float, Event | None] | None:
        """Remove and return the next ``(time, event)`` pair, the event
        ``None`` for the held arrival; ``None`` once nothing is left."""
        arrival = self._arrival
        heap = self._heap
        if arrival is None or (heap and heap[0] < arrival):
            return self.pop() if heap else None
        self._arrival = None
        time, self._floor, _ = arrival
        self._now = time
        if self._sanitize:
            self._check_order(arrival)
        return time, None

    def claim(self, time: float, event: Event) -> bool:
        """Consume ``event`` where it is scheduled if, pushed at ``time``
        now, it would be the next to leave (the held arrival counted):
        advance as its pop would and return True.  Otherwise change
        nothing and return False, for the caller to push it."""
        rank = event.PRIORITY
        if rank < self._floor and time == self._now:
            rank = self._next_round(rank)
        key = (time, rank, self._sequence)
        if (self._heap and self._heap[0] < key) or (
            self._arrival is not None and self._arrival < key
        ):
            return False
        self._sequence += 1
        self._now = time
        self._floor = rank
        if self._sanitize:
            self._check_order(key)
        return True

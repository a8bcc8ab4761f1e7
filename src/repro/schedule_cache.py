"""Process-wide registry of shared gate-level schedule executors.

Every replica of the same QRAM configuration derives the *same* executor
state — relative schedules, lowered gate sequences, minimum feasible
admission intervals — and that derivation is the expensive part of a
fleet build (milliseconds per Fat-Tree executor).
:class:`ScheduleCacheRegistry` hoists the executor behind a process-wide
table keyed by ``(kind, capacity, memory image)``:

* ``kind`` — the architecture family deriving the schedule ("Fat-Tree",
  "BB"); Virtual pages and Distributed copies reuse these two, and encoded
  backends resolve their inner bare architecture's executor.
* ``capacity`` / memory image — executors embed the classical memory, so
  the cache key is the *content* of the memory, not the replica holding
  it.  A replica's memory is fixed when it is built, so an entry never
  goes stale: every replica of one image shares it for its lifetime.

Per-window occupancy does not appear in the key: each executor already
memoizes its schedule / lowering / interval caches per occupancy
internally, so sharing the executor shares those too.  Analytic window
predictions are not held here: each backend memoizes one
:class:`~repro.backends.protocol.WindowResult` per occupancy itself
(:mod:`repro.backends.noise`), which is cheap to derive from the warm
executor.

The registry is *per process*.  :class:`~repro.service.QRAMService`
pre-warms it at fleet build, so forked serving workers inherit the warm
table by copy-on-write and no replica re-derives a schedule another
already paid for.  Hit /
miss / prewarm counters make the sharing observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CacheStats",
    "ScheduleCacheRegistry",
    "default_registry",
]

#: One executor entry key: (kind, capacity, memory image).
_Key = tuple[str, int, tuple[int, ...]]

#: Most executors a registry keeps.
MAX_ENTRIES = 64


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`ScheduleCacheRegistry` (a snapshot).

    Attributes:
        hits: lookups served from the shared table.
        misses: lookups that built a fresh executor.
        prewarms: executors actually *built* by eager warming at fleet
            build.  A warm rebuild of a known
            configuration hits the shared table and does not count, so
            across a sweep of scenarios sharing fleets this counter
            stays flat at (unique configurations) while ``hits`` climbs
            — the cross-run reuse proof.
        entries: executors currently in the table.
    """

    hits: int = 0
    misses: int = 0
    prewarms: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def delta(self, baseline: "CacheStats") -> "CacheStats":
        """The counter movement since ``baseline`` (an earlier snapshot).

        Every field subtracts, the table-size gauge ``entries`` included:
        it becomes the table's net growth, so the deltas of consecutive
        executions add up.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            prewarms=self.prewarms - baseline.prewarms,
            entries=self.entries - baseline.entries,
        )

    def summary(self) -> str:
        """One observability line (profiled runs and the sweep CLI)."""
        return (
            f"schedule cache: hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.3f} prewarms={self.prewarms} "
            f"entries={self.entries}"
        )


class ScheduleCacheRegistry:
    """Bounded LRU table of shared, content-addressed schedule executors.

    Holds at most :data:`MAX_ENTRIES` executors; the least recently used
    entry is evicted beyond that, which bounds the distinct configurations
    (architecture, capacity, memory image) a long sweep keeps resident.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[_Key, Any] = OrderedDict()
        # Guards the table for same-process concurrent use; forked workers
        # each get their own (unlocked) copy of the registry.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._prewarms = 0

    def executor(
        self,
        kind: str,
        capacity: int,
        data: Sequence[int],
        factory: Callable[[], Any],
    ) -> Any:
        """The shared executor of one configuration (built on first use).

        ``factory`` must build an executor that *copies* ``data`` (both
        gate-level executors do), so the shared entry never aliases the
        caller's memory list.
        """
        key = (kind, capacity, tuple(int(x) & 1 for x in data))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        built = factory()
        with self._lock:
            # A concurrent builder may have raced us; last insert wins and
            # both callers hold functionally identical executors.
            self._entries[key] = built
            self._entries.move_to_end(key)
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
        return built

    def prewarm(self, backends: Iterable[Any]) -> int:
        """Warm every backend's schedule caches through the registry.

        Calls each backend's ``warm_schedule_caches()`` hook (all five
        adapters and the encoded wrapper provide one); backends without the
        hook are skipped.  Returns the number of backends warmed.
        :class:`~repro.service.QRAMService` runs it at fleet build; forked
        serving workers start after the fleet build, so they inherit the
        warm table copy-on-write.

        The ``prewarms`` counter moves only by the number of executors the
        warming actually *built* (the misses its lookups took): warming a
        configuration the table already holds is pure hits, so repeated
        fleet builds over the same designs — a sweep — leave the counter
        flat while ``hits`` climbs.
        """
        warmed = 0
        with self._lock:
            misses_before = self._misses
        for backend in backends:
            hook = getattr(backend, "warm_schedule_caches", None)
            if hook is None:
                continue
            hook()
            warmed += 1
        with self._lock:
            self._prewarms += self._misses - misses_before
        return warmed

    def clear(self) -> None:
        """Drop every entry and reset the counters (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._prewarms = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the registry counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                prewarms=self._prewarms,
                entries=len(self._entries),
            )


# The one registry of this process.  Assigned once at import; all mutation
# happens inside the instance behind its lock, and forked serving workers
# inherit the warm table copy-on-write.
_DEFAULT = ScheduleCacheRegistry()


def default_registry() -> ScheduleCacheRegistry:
    """The process-wide registry the QRAM classes share."""
    return _DEFAULT


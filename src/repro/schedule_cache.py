"""Process-wide registry of shared gate-level schedule caches.

Every replica of the same QRAM configuration derives the *same* executor
state — relative schedules, lowered gate sequences, minimum feasible
admission intervals — yet before this registry each
:class:`~repro.core.qram.FatTreeQRAM` /
:class:`~repro.bucket_brigade.qram.BucketBrigadeQRAM` built its own
executor from a cold cache.  An autoscaled fleet paid that derivation again
for every replica it added, and the parallel serving core would have paid
it once per worker per replica.

:class:`ScheduleCacheRegistry` hoists the executor behind a process-wide
table keyed by ``(kind, capacity, memory image, distance)``:

* ``kind`` — the architecture family deriving the schedule ("Fat-Tree",
  "BB"); Virtual pages and Distributed copies reuse these two, and encoded
  backends key their inner bare architecture.
* ``capacity`` / memory image — executors embed the classical memory, so
  the cache key is the *content* of the memory, not the replica holding
  it.  That content-addressing is also the write-invalidation story: a
  ``write_memory`` changes the image, the owning QRAM drops its local
  executor pointer (see :meth:`note_invalidation`), and its next lookup
  misses into a fresh executor under the new key — while replicas still
  holding the old image keep hitting the old entry, which ages out of the
  bounded table by LRU once nobody re-keys it.
* ``distance`` — reserved dimension for QEC-encoded variants whose
  schedule differs at equal capacity (bare architectures use 0; encoded
  backends today wrap a bare inner backend, which keys itself).

Per-window occupancy does not appear in the executor key: each executor
already memoizes its schedule / lowering / interval caches per occupancy
internally, so sharing the executor shares those too.

Alongside the executors the registry holds a second, finer-grained table
of **per-occupancy fidelity vectors** — the analytic per-slot predictions
of :mod:`repro.backends.noise`, keyed ``(arch, capacity, occupancy,
distance, extra)`` where ``extra`` is the backend's hashable prediction
profile (noise parameters plus structural counts).  Predictions are
independent of the memory image, so the key carries no data: a
``write_memory`` never stales a shared vector, and write-invalidation
only drops the writing backend's instance memos.  Fleet-build prewarming
(:meth:`ScheduleCacheRegistry.prewarm`) derives both tables once per
configuration, so autoscaled replicas and forked workers inherit warm
predictions as well as warm schedules.

The registry is *per process*.  The parallel serving core pre-warms it at
fleet build, before worker processes fork, so every worker inherits the
warm table by copy-on-write and no worker re-derives a schedule another
replica already paid for.  Hit / miss / prewarm counters make the sharing
observable (asserted by ``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CacheStats",
    "ScheduleCacheRegistry",
    "default_registry",
    "shared_executor",
]

#: One executor entry key: (kind, capacity, memory image, distance).
_Key = tuple[str, int, tuple[int, ...], int]

#: One fidelity-vector key: (arch, capacity, occupancy, distance, profile).
_FidelityKey = tuple[str, int, int, int, Hashable]

#: Most executors a registry keeps.
MAX_ENTRIES = 64

#: Most fidelity vectors a registry keeps.  They are tiny tuples, so their
#: table is bounded far looser than the executor table.
MAX_FIDELITY_ENTRIES = 4096


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`ScheduleCacheRegistry` (a snapshot).

    Attributes:
        hits: lookups served from the shared table.
        misses: lookups that built a fresh executor.
        prewarms: executors actually *built* by eager warming at fleet
            build / worker spawn.  A warm rebuild of a known
            configuration hits the shared table and does not count, so
            across a sweep of scenarios sharing fleets this counter
            stays flat at (unique configurations) while ``hits`` climbs
            — the cross-run reuse proof.
        invalidations: backend-local executor pointers dropped by writes.
        entries: executors currently in the table.
        fidelity_hits: per-occupancy fidelity vectors served shared.
        fidelity_misses: fidelity vectors derived fresh.
        fidelity_entries: fidelity vectors currently in the table.
    """

    hits: int = 0
    misses: int = 0
    prewarms: int = 0
    invalidations: int = 0
    entries: int = 0
    fidelity_hits: int = 0
    fidelity_misses: int = 0
    fidelity_entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def delta(self, baseline: "CacheStats") -> "CacheStats":
        """The counter movement since ``baseline`` (an earlier snapshot).

        Every field subtracts, the table-size gauges (``entries``,
        ``fidelity_entries``) included: they become the table's net
        growth, so the deltas of consecutive executions add up.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            prewarms=self.prewarms - baseline.prewarms,
            invalidations=self.invalidations - baseline.invalidations,
            entries=self.entries - baseline.entries,
            fidelity_hits=self.fidelity_hits - baseline.fidelity_hits,
            fidelity_misses=self.fidelity_misses - baseline.fidelity_misses,
            fidelity_entries=self.fidelity_entries - baseline.fidelity_entries,
        )

    def summary(self) -> str:
        """One observability line (profiled runs and the sweep CLI)."""
        return (
            f"schedule cache: hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.3f} prewarms={self.prewarms} "
            f"entries={self.entries} invalidations={self.invalidations} | "
            f"fidelity: hits={self.fidelity_hits} "
            f"misses={self.fidelity_misses} entries={self.fidelity_entries}"
        )


class ScheduleCacheRegistry:
    """Bounded LRU table of shared, content-addressed schedule executors.

    Holds at most :data:`MAX_ENTRIES` executors and
    :data:`MAX_FIDELITY_ENTRIES` fidelity vectors; the least recently used
    entry is evicted beyond that (stale memory images after writes age
    out here).
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[_Key, Any] = OrderedDict()
        self._fidelity_vectors: OrderedDict[
            _FidelityKey, tuple[float, ...]
        ] = OrderedDict()
        # Guards the tables for same-process concurrent use; forked workers
        # each get their own (unlocked) copy of the registry.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._prewarms = 0
        self._invalidations = 0
        self._fidelity_hits = 0
        self._fidelity_misses = 0

    @staticmethod
    def _key(
        kind: str, capacity: int, data: Sequence[int], distance: int
    ) -> _Key:
        return (kind, capacity, tuple(int(x) & 1 for x in data), distance)

    def executor(
        self,
        kind: str,
        capacity: int,
        data: Sequence[int],
        factory: Callable[[], Any],
        distance: int = 0,
    ) -> Any:
        """The shared executor of one configuration (built on first use).

        ``factory`` must build an executor that *copies* ``data`` (both
        gate-level executors do), so later in-place writes to the caller's
        memory list cannot corrupt the shared entry.
        """
        key = self._key(kind, capacity, data, distance)
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

    def fidelity_vector(
        self,
        arch: str,
        capacity: int,
        occupancy: int,
        factory: Callable[[int], tuple[float, ...]],
        distance: int = 0,
        extra: Hashable = None,
    ) -> tuple[float, ...]:
        """The shared per-occupancy fidelity vector of one configuration.

        Keyed ``(arch, capacity, occupancy, distance, extra)``; ``extra``
        must carry everything else the prediction depends on (noise
        parameters, structural counts) so equal keys imply equal vectors.
        ``factory(occupancy)`` derives the vector on first use; replicas
        of the same configuration — autoscaled, rebuilt, or forked —
        resolve to the shared tuple afterwards.
        """
        key = (arch, capacity, occupancy, distance, extra)
        with self._lock:
            entry = self._fidelity_vectors.get(key)
            if entry is not None:
                self._fidelity_vectors.move_to_end(key)
                self._fidelity_hits += 1
                return entry
            self._fidelity_misses += 1
        built = factory(occupancy)
        with self._lock:
            # A concurrent builder may have raced us; last insert wins and
            # both callers hold equal vectors (the key determines them).
            self._fidelity_vectors[key] = built
            self._fidelity_vectors.move_to_end(key)
            while len(self._fidelity_vectors) > MAX_FIDELITY_ENTRIES:
                self._fidelity_vectors.popitem(last=False)
        return built

    def prewarm(self, backends: Iterable[Any]) -> int:
        """Warm every backend's schedule caches through the registry.

        Calls each backend's ``warm_schedule_caches()`` hook (all five
        adapters and the encoded wrapper provide one); backends without the
        hook are skipped.  Returns the number of backends warmed.  Run at
        fleet build and again immediately before worker processes fork, so
        children inherit a warm table copy-on-write.

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

    def note_invalidation(self) -> None:
        """Record one backend-local executor pointer dropped by a write.

        Content-addressed keys make dropped pointers the whole fan-out: the
        writing replica re-keys under its new memory image on the next
        lookup, while untouched replicas keep their shared entry.
        """
        with self._lock:
            self._invalidations += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._fidelity_vectors.clear()
            self._hits = 0
            self._misses = 0
            self._prewarms = 0
            self._invalidations = 0
            self._fidelity_hits = 0
            self._fidelity_misses = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the registry counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                prewarms=self._prewarms,
                invalidations=self._invalidations,
                entries=len(self._entries),
                fidelity_hits=self._fidelity_hits,
                fidelity_misses=self._fidelity_misses,
                fidelity_entries=len(self._fidelity_vectors),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# The one registry of this process.  Assigned once at import; all mutation
# happens inside the instance behind its lock, and forked serving workers
# inherit the warm table copy-on-write.
_DEFAULT = ScheduleCacheRegistry()


def default_registry() -> ScheduleCacheRegistry:
    """The process-wide registry the QRAM classes share."""
    return _DEFAULT


def shared_executor(
    kind: str,
    capacity: int,
    data: Sequence[int],
    factory: Callable[[], Any],
    distance: int = 0,
) -> Any:
    """Shorthand for ``default_registry().executor(...)``."""
    return _DEFAULT.executor(kind, capacity, data, factory, distance=distance)

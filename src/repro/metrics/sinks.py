"""Record sinks: where the serving engine's per-request records go.

Historically every :class:`~repro.metrics.service_stats.ServedQuery`,
:class:`~repro.metrics.service_stats.WindowRecord` and
:class:`~repro.metrics.service_stats.RejectedQuery` was appended to an
in-memory list, so a run's memory grew with its request count.  The engine
now writes each record to a :class:`RecordSink` chosen by its retention
mode (with the online aggregates always maintained by
:mod:`repro.metrics.streaming`):

* :class:`ListSink` — keep everything (``retention="full"``, the historical
  behaviour; exact batch summaries).
* :class:`NullSink` — drop every record (``retention="none"``: stats only,
  bounded memory at any request count).
* :class:`JsonlSink` — append every record to a JSON-lines file as it
  happens (an *additional* tee for any retention mode: durable full
  telemetry without resident memory).  :func:`load_jsonl` reads the file
  back into typed records.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import IO, Protocol, runtime_checkable

from repro.metrics.service_stats import (
    RejectedQuery,
    ServedQuery,
    WindowRecord,
)

__all__ = [
    "JsonlSink",
    "ListSink",
    "NullSink",
    "RecordSink",
    "load_jsonl",
]

#: Record classes a :class:`JsonlSink` can serialize and
#: :func:`load_jsonl` can reconstruct, keyed by their type tag.
RECORD_TYPES = {
    cls.__name__: cls
    for cls in (ServedQuery, WindowRecord, RejectedQuery)
}


@runtime_checkable
class RecordSink(Protocol):
    """What the engine requires of a record destination."""

    def append(self, record) -> None:
        """Accept one record (a frozen dataclass from ``service_stats``)."""
        ...


class ListSink:
    """Retain every record in insertion order (the historical behaviour)."""

    def __init__(self) -> None:
        self.records: list = []

    def append(self, record) -> None:
        self.records.append(record)


class NullSink:
    """Drop every record (streaming aggregates are the only survivors)."""

    def append(self, record) -> None:
        pass


class JsonlSink:
    """Stream records to a JSON-lines file as they are produced.

    Each line is ``{"type": <record class name>, ...fields}``; every record
    class in :data:`RECORD_TYPES` round-trips exactly through
    :func:`load_jsonl` (all fields are ints, floats, strings or ``None``).
    The sink never retains records in memory — it is the durable
    full-telemetry tee for bounded-memory runs.  Use as a context manager
    or call :meth:`close` to flush.

    A *path* is opened fresh (truncating an existing file): one sink is
    one run's telemetry, so :func:`load_jsonl` reads back exactly that
    run.  To accumulate several runs in one file, pass an open handle
    (e.g. ``open(path, "a")``) instead — handles are written as-is and
    left open on :meth:`close`.
    """

    def __init__(self, path_or_handle: str | IO[str]) -> None:
        if isinstance(path_or_handle, str):
            self._handle: IO[str] = open(path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = path_or_handle
            self._owns_handle = False
        self.written = 0

    def append(self, record) -> None:
        tag = type(record).__name__
        if tag not in RECORD_TYPES:
            raise TypeError(
                f"cannot serialize {tag}; expected one of {sorted(RECORD_TYPES)}"
            )
        line = json.dumps({"type": tag, **asdict(record)}, allow_nan=False)
        self._handle.write(line + "\n")
        self.written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> JsonlSink:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_jsonl(path_or_handle: str | IO[str]) -> list:
    """Read a :class:`JsonlSink` file back into typed records.

    Returns the records in file order; each line's ``type`` tag selects the
    dataclass to reconstruct.
    """
    if isinstance(path_or_handle, str):
        with open(path_or_handle, encoding="utf-8") as handle:
            return load_jsonl(handle)
    records = []
    for line in path_or_handle:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        tag = payload.pop("type")
        try:
            cls = RECORD_TYPES[tag]
        except KeyError:
            raise ValueError(f"unknown record type {tag!r}") from None
        records.append(cls(**payload))
    return records

"""One append-only trajectory format for the ``BENCH_*.json`` records.

A trajectory file is ``{"runs": [row, ...]}``: every full benchmark run
appends one row, and recorded rows are never rewritten.  A
:class:`Trajectory` names the file, the keys every row carries
(``schema``) and the keys a freshly measured row must populate
(``required``).  Loading backfills ``None`` for schema keys that
historical rows predate, so consumers see one row shape; appending checks
the new row against the schema first.

The two trajectories are defined here, next to each other:

* :data:`SCALE` — ``BENCH_service_scale.json``, written by
  ``benchmarks/bench_service_scale.py``.  Rows recorded before the schema
  dropped ``requests_per_second`` (a duplicate of ``requests_per_sec``)
  keep it; new rows must not carry it.
* :data:`SWEEP` — ``BENCH_sweep.json``, written by
  ``benchmarks/bench_sweep.py``.

The module is imported as a sibling by ``python benchmarks/bench_*.py``
(the script's directory is on ``sys.path``), by ``pytest
benchmarks/bench_*.py`` (the ``benchmarks/conftest.py`` rootdir is put on
``sys.path``) and with ``PYTHONPATH=src:benchmarks``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Trajectory:
    """One ``BENCH_*.json`` file and the row schema it records.

    Attributes:
        path: the JSON trajectory file.
        schema: every key a row carries, in write order.
        required: keys a new row must populate (historical rows may hold
            the backfilled ``None``).
        writer: the function that measures a row, named in drift errors.
    """

    path: Path
    schema: tuple[str, ...]
    required: tuple[str, ...]
    writer: str

    def load(self) -> list[dict]:
        """Recorded runs, each backfilled in place to the full schema."""
        if not self.path.exists():
            return []
        runs = json.loads(self.path.read_text(encoding="utf-8"))["runs"]
        for row in runs:
            for key in self.schema:
                row.setdefault(key, None)
        return runs

    def check_row(self, row: dict) -> None:
        """A freshly measured row carries the full schema, nothing ad hoc,
        and populates every required key."""
        missing = [key for key in self.schema if key not in row]
        extra = [key for key in row if key not in self.schema]
        assert not missing and not extra, (
            f"{self.path.name} row schema drift: missing={missing} "
            f"extra={extra} — update the schema alongside {self.writer}()"
        )
        nulled = [key for key in self.required if row[key] is None]
        assert not nulled, (
            f"new {self.path.name} row records null for {nulled} — these "
            f"keys must be populated at write time (only historical rows "
            f"stay null)"
        )

    def append(self, row: dict) -> list[dict]:
        """Check ``row``, append it to the file and return every run."""
        self.check_row(row)
        runs = self.load()
        runs.append(row)
        self.path.write_text(
            json.dumps({"runs": runs}, indent=2) + "\n", encoding="utf-8"
        )
        return runs


#: Historical rows predate some keys (the seed row has no ``cpu_count`` or
#: ``workers_axis``; rows before the profiler have no ``profiled``).
SCALE = Trajectory(
    path=ROOT / "BENCH_service_scale.json",
    schema=(
        "label",
        "cpu_count",
        "requests",
        "workers",
        "wall_seconds",
        "requests_per_sec",
        "peak_rss_mib",
        "retention",
        "makespan_layers",
        "bandwidth_queries_per_sec",
        "mean_latency_layers",
        "p50_latency_layers",
        "p99_latency_layers",
        "telemetry_intervals",
        "bounded_memory_check",
        "workers_axis",
        "profiled",
    ),
    required=("label", "workers", "requests_per_sec"),
    writer="run_scale",
)

_SWEEP_SCHEMA = (
    "label",
    "cpu_count",
    "points",
    "unique_executions",
    "serial_cold_seconds",
    "pool1_seconds",
    "pool8_seconds",
    "speedup_pool1_vs_cold",
    "speedup_pool8_vs_cold",
    "cache_hits",
    "cache_misses",
    "cache_prewarms",
    "cache_hit_rate",
    "rows_identical",
    "frontier_points",
)

#: Every sweep row key is required: the file has no historical nulls.
SWEEP = Trajectory(
    path=ROOT / "BENCH_sweep.json",
    schema=_SWEEP_SCHEMA,
    required=_SWEEP_SCHEMA,
    writer="run_modes",
)

TRAJECTORIES = (SCALE, SWEEP)

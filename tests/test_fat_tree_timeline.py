"""Pins of the Fat-Tree query timeline: migration placement, labels and the
gate-level schedule built on them.

Alg. 1 (``FatTreePipeline``) and the gate-level executor place one query's
sub-QRAM migrations on the same 5-layer cadence, the executor one layer
earlier.  These pins hold the exact label trajectory of both models, the
executor's relative schedule and the minimum feasible admission interval
that the static conflict search derives from it, at every capacity the
serving layer builds.
"""

from __future__ import annotations

import hashlib

from repro.backends.fat_tree import FatTreeBackend
from repro.core.executor import MIGRATION_SKEW, FatTreeExecutor
from repro.core.pipeline import FatTreePipeline, query_label

CAPACITIES = [2**k for k in range(1, 11)]

MINIMUM_FEASIBLE_INTERVAL = {
    2: 10, 4: 12, 8: 22, 16: 22, 32: 32, 64: 32, 128: 42, 256: 42, 512: 52, 1024: 52,
}

#: sha256 over the ``(kind, query, item, level, label, raw_layer)`` tuples of
#: ``relative_schedule(0)`` and ``relative_schedule(5)`` at every capacity.
RELATIVE_SCHEDULE_DIGEST = (
    "dbf06558d3caa76739ebe2973c5f50387b3e67f606da58b969239e31f494ccc7"
)

#: Labels of one N = 8 query at relative layers 1..29 (Alg. 1, skew 0).
ALG1_LABELS_N8 = [
    0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0,
]

#: The executor's N = 8 labels: every migration one layer earlier (skew 1).
EXECUTOR_LABELS_N8 = [
    0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0,
]


def test_minimum_feasible_interval_table():
    assert {
        capacity: FatTreeExecutor(capacity, [0] * capacity).minimum_feasible_interval()
        for capacity in CAPACITIES
    } == MINIMUM_FEASIBLE_INTERVAL


def test_relative_schedule_digest():
    digest = hashlib.sha256()
    for capacity in CAPACITIES:
        executor = FatTreeExecutor(capacity, [0] * capacity)
        for query in (0, 5):
            rows = [
                (i.kind.name, i.query, i.item, i.level, i.label, i.raw_layer)
                for i in executor.relative_schedule(query)
            ]
            digest.update(repr((capacity, query, rows)).encode())
    assert digest.hexdigest() == RELATIVE_SCHEDULE_DIGEST


def test_n8_label_trajectories():
    pipeline = FatTreePipeline(8, num_queries=1)
    assert [pipeline.label_at(0, r) for r in range(0, 31)] == (
        [None] + ALG1_LABELS_N8 + [None]
    )
    assert [query_label(8, r, MIGRATION_SKEW) for r in range(0, 31)] == (
        [None] + EXECUTOR_LABELS_N8 + [None]
    )


def test_backend_window_timing_is_the_compiled_program():
    """One window timing: at every occupancy up to log N, the backend's
    timing window and the executor's compiled program agree on the
    interval and the raw layers until the last query finishes."""
    for capacity in CAPACITIES[:6]:
        backend = FatTreeBackend(capacity)
        executor = backend.model.cached_executor()
        for occupancy in range(1, capacity.bit_length()):
            window = backend.timing_window(occupancy)
            program = executor.window_program(occupancy, window.interval)
            assert window.interval == executor.minimum_feasible_interval(occupancy)
            assert window.total_layers == program.total_layers

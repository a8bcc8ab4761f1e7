"""Closed-form query latencies (Table 1) and their cross-checks.

Every latency is expressed in *weighted circuit layers*: full CSWAP layers
cost 1, intra-node SWAPs / classically controlled gates cost 1/8 (Table 1
footnote).  Multiplying by the CSWAP time (1 us) converts to microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bucket_brigade.schedule import bb_weighted_query_latency
from repro.bucket_brigade.tree import validate_capacity
from repro.core.pipeline import (
    fat_tree_amortized_query_latency,
    fat_tree_parallel_query_latency,
    fat_tree_single_query_latency,
)


@dataclass(frozen=True)
class LatencySummary:
    """Latency rows of Table 1 for one architecture.

    Attributes:
        architecture: architecture name.
        single_query: ``t_1`` in weighted layers.
        parallel_queries: ``t_log(N)`` in weighted layers.
        amortized: amortized per-query latency in weighted layers.
    """

    architecture: str
    single_query: float
    parallel_queries: float
    amortized: float


def closed_form_latency(name: str, capacity: int) -> LatencySummary:
    """Table 1's closed-form latency expressions, evaluated exactly.

    The Virtual QRAM's closed form is
    :meth:`repro.baselines.virtual_qram.VirtualQRAM.paper_closed_form_latency`;
    D-Fat-Tree's latencies come from its model alone (``KeyError`` here).
    """
    n = validate_capacity(capacity)
    if name == "Fat-Tree":
        return LatencySummary(
            name,
            fat_tree_single_query_latency(capacity),
            fat_tree_parallel_query_latency(capacity, n),
            fat_tree_amortized_query_latency(capacity),
        )
    if name == "BB":
        single = bb_weighted_query_latency(capacity)
        return LatencySummary(name, single, n * single, single)
    if name == "D-BB":
        single = bb_weighted_query_latency(capacity)
        return LatencySummary(name, single, single, 8.0 + 0.125 / n)
    raise KeyError(name)


def latency_summary(name: str, capacity: int) -> LatencySummary:
    """Latency summary computed from the architecture models themselves."""
    from repro.baselines.registry import build_architecture

    n = validate_capacity(capacity)
    qram = build_architecture(name, capacity)
    return LatencySummary(
        name,
        qram.single_query_latency(),
        qram.parallel_query_latency(n),
        # Steady-state amortized latency (Table 1 bottom row).
        qram.amortized_query_latency(),
    )


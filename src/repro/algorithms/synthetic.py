"""Synthetic alternating query/processing workloads (Sec. 6.3, Fig. 10).

A synthetic algorithm repeats (query for time ``t1``, process for time ``d``)
ten times; the sweep varies the processing/query ratio ``d / t1`` in [0, 2]
and the number of concurrently running algorithms ``p`` in [1, 30] at
capacity ``N = 1024``, producing the overall-depth and utilization heat maps
of Fig. 10 for BB and Fat-Tree QRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.engine import ClosedLoopClient
from repro.scheduling.contention import QRAMServiceModel, serve_closed_loop


@dataclass(frozen=True)
class SyntheticAlgorithm:
    """One synthetic algorithm instance.

    Attributes:
        rounds: number of (query, processing) repetitions (10 in the paper).
        processing_ratio: ``d / t1``.
    """

    rounds: int = 10
    processing_ratio: float = 0.5

    def clients(self, count: int, weighted_query_latency: float) -> list[ClosedLoopClient]:
        """Materialise ``count`` concurrent copies of this algorithm."""
        d = self.processing_ratio * weighted_query_latency
        return [
            ClosedLoopClient(i, queries=self.rounds, think_layers=d)
            for i in range(count)
        ]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the Fig. 10 heat maps."""

    architecture: str
    processing_ratio: float
    parallel_algorithms: int
    overall_depth: float
    utilization: float


def synthetic_sweep(
    qram,
    processing_ratios: Sequence[float],
    parallel_counts: Sequence[int],
    rounds: int = 10,
) -> list[SweepPoint]:
    """Run the synthetic workload sweep on one QRAM architecture.

    Args:
        qram: any registered architecture instance (BB, Fat-Tree, ...).
        processing_ratios: values of ``d / t1`` to sweep.
        parallel_counts: values of the parallel algorithm count ``p``.
        rounds: query/processing repetitions per algorithm.
    """
    model = QRAMServiceModel.from_architecture(qram)
    points: list[SweepPoint] = []
    for ratio in processing_ratios:
        for count in parallel_counts:
            if count < 1:
                continue
            clients = SyntheticAlgorithm(rounds, ratio).clients(
                count, model.weighted_query_latency
            )
            report = serve_closed_loop(model, clients)
            points.append(
                SweepPoint(
                    architecture=model.name,
                    processing_ratio=ratio,
                    parallel_algorithms=count,
                    overall_depth=report.overall_depth,
                    utilization=report.average_utilization,
                )
            )
    return points


def sweep_to_grids(
    points: Sequence[SweepPoint],
) -> tuple[list[float], list[int], list[list[float]], list[list[float]]]:
    """Convert sweep points to (ratios, counts, depth grid, utilization grid).

    Grids are indexed ``[ratio_index][count_index]`` — the row/column layout
    used when rendering Fig. 10.
    """
    ratios = sorted({p.processing_ratio for p in points})
    counts = sorted({p.parallel_algorithms for p in points})
    index = {(p.processing_ratio, p.parallel_algorithms): p for p in points}
    depth = [
        [index[(r, c)].overall_depth for c in counts] for r in ratios
    ]
    utilization = [
        [index[(r, c)].utilization for c in counts] for r in ratios
    ]
    return ratios, counts, depth, utilization

"""Regenerate the data series behind Figures 2, 6, 7, 8, 10 and 11.

Fig. 9's depths come straight from
:func:`repro.algorithms.depth_model.fig9_depths`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.synthetic import sweep_to_grids, synthetic_sweep
from repro.baselines.registry import build_architecture
from repro.bucket_brigade.schedule import BBQuerySchedule
from repro.core.pipeline import FatTreePipeline
from repro.engine import ClosedLoopClient
from repro.fidelity.qec import fig11_series
from repro.metrics.bandwidth import bandwidth_scaling
from repro.scheduling.contention import QRAMServiceModel, serve_closed_loop


def generate_fig2_milestones(capacity: int = 8) -> dict[str, int]:
    """Fig. 2(a): circuit-layer milestones of one BB QRAM query."""
    return BBQuerySchedule(capacity).milestone_layers()


def generate_fig6_pipeline(capacity: int = 8, num_queries: int = 3) -> dict[str, object]:
    """Fig. 6: pipeline schedule of ``num_queries`` on a capacity-8 Fat-Tree."""
    pipeline = FatTreePipeline(capacity, num_queries=num_queries)
    pipeline.verify_no_conflicts()
    return {
        "per_query_raw_layers": pipeline.query_raw_latency,
        "finish_layers": [t.finish_layer for t in pipeline.timelines()],
        "data_retrieval_layers": [
            t.data_retrieval_layer for t in pipeline.timelines()
        ],
        "total_raw_layers": pipeline.total_raw_layers,
        "bb_single_query_layers": BBQuerySchedule(capacity).raw_layers,
    }


def generate_fig7_schedule(
    capacity: int = 8,
    num_algorithms: int = 3,
    processing_layers: float = 20.0,
    rounds: int = 3,
) -> dict[str, float]:
    """Fig. 7: algorithms alternating queries and processing on a Fat-Tree."""
    qram = build_architecture("Fat-Tree", capacity)
    model = QRAMServiceModel.from_architecture(qram)
    clients = [
        ClosedLoopClient(i, queries=rounds, think_layers=processing_layers)
        for i in range(num_algorithms)
    ]
    report = serve_closed_loop(model, clients)
    return {
        "total_time": report.overall_depth,
        "average_utilization": report.average_utilization,
        "queries_served": report.total_queries,
    }


def generate_fig8_bandwidth(
    capacities: Sequence[int] = (4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> dict[str, list[float]]:
    """Fig. 8: bandwidth vs capacity for all five architectures."""
    series = bandwidth_scaling(capacities)
    series["capacity"] = [float(c) for c in capacities]
    return series


def generate_fig10_synthetic(
    capacity: int = 1024,
    processing_ratios: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    parallel_counts: Sequence[int] = (1, 5, 10, 15, 20, 25, 30),
    rounds: int = 10,
    architectures: Sequence[str] = ("BB", "Fat-Tree"),
) -> dict[str, dict[str, object]]:
    """Fig. 10: synthetic-workload depth and utilization heat maps."""
    out: dict[str, dict[str, object]] = {}
    for name in architectures:
        qram = build_architecture(name, capacity)
        points = synthetic_sweep(qram, processing_ratios, parallel_counts, rounds)
        ratios, counts, depth, utilization = sweep_to_grids(points)
        out[name] = {
            "processing_ratios": ratios,
            "parallel_counts": counts,
            "overall_depth": depth,
            "utilization": utilization,
        }
    return out


def generate_fig11_qec(
    tree_depths: Sequence[int] = tuple(range(2, 19, 2)),
) -> dict[str, list[float]]:
    """Fig. 11: infidelity vs tree depth with and without QEC."""
    return fig11_series(tree_depths)

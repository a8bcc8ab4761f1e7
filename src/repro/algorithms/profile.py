"""Common description of an algorithm's query behaviour."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AlgorithmProfile:
    """Query profile of a (parallel) quantum algorithm.

    Attributes:
        name: algorithm name (used in Fig. 9 labels).
        capacity: QRAM capacity ``N`` the algorithm queries.
        parallel_streams: number of independent query streams ``p`` (parallel
            sub-algorithms / QPUs).
        queries_per_stream: sequential queries each stream performs.
        processing_layers: QPU processing (weighted layers) between a stream's
            consecutive queries.
    """

    name: str
    capacity: int
    parallel_streams: int
    queries_per_stream: int
    processing_layers: float = 0.0

    def __post_init__(self) -> None:
        if self.parallel_streams < 1 or self.queries_per_stream < 1:
            raise ValueError("streams and queries per stream must be >= 1")
        if self.processing_layers < 0:
            raise ValueError("processing_layers must be non-negative")


"""Utilization accounting helpers for shared QRAMs (Sec. 5.1, Fig. 7)."""

from __future__ import annotations


def utilization_from_busy_intervals(
    intervals: list[tuple[float, float]],
    horizon: float,
    parallelism: int = 1,
) -> float:
    """Average utilization from per-query busy intervals.

    Utilization at time ``t`` is (queries in flight) / ``parallelism``; the
    returned value is its time average over ``[0, horizon]``, clipped to 1.

    Args:
        intervals: per-query (start, finish) service intervals.
        horizon: total observation window in weighted layers.
        parallelism: the QRAM's query parallelism.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    busy = sum(max(0.0, min(end, horizon) - max(start, 0.0)) for start, end in intervals)
    return min(1.0, busy / (parallelism * horizon))


def fig7_total_time(address_width: int, processing_layers: float) -> float:
    """Total time of the 3-algorithm example of Fig. 7: ``30 n + 2 d + 17``.

    Three algorithms each run (query, processing, query, processing, query):
    the paper reports a total of ``30 n + 2 d + 17`` raw layers with per-query
    latency ``10 n - 1``.
    """
    return 30 * address_width + 2 * processing_layers + 17

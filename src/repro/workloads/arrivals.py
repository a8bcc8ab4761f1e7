"""Shared arrival-time cores for every trace and arrival-stream generator.

Historically :mod:`repro.scheduling.events` (arrival streams for the
scheduling experiments) and :mod:`repro.workloads.generators` (traces for
the serving layer) each drew their own arrival times — two RNG code paths
that could silently diverge.  Both now call the lazy cores here, so a
Poisson trace and a random arrival stream built from the same
``(num, mean, seed)`` land on *identical* times.

All times are in layers on the caller's clock (weighted layers for the
scheduling streams, raw layers for the serving traces).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np


#: Gaps drawn per RNG call by :func:`iter_exponential_times` — large enough
#: to amortize the call overhead (near-vectorized batch speed), small
#: enough that laziness still means O(1) memory.
_DRAW_BLOCK = 4096


def iter_exponential_times(
    num: int, mean_interarrival: float, seed: int = 0
) -> Iterator[float]:
    """Lazily yield cumulative arrival times with exponential gaps.

    The memoryless online workload of Sec. 5.2: ``num`` (>= 0) draws from
    ``Exp(mean_interarrival)`` accumulated into absolute times.  Gaps are
    drawn in fixed-size vectorized blocks (a block of ``n`` draws consumes
    the Generator's stream exactly like ``n`` scalar draws) and
    accumulated left to right (the order ``np.cumsum`` sums), so the
    stream equals ``np.cumsum(rng.exponential(mean, num))`` bit for bit
    (pinned by test) while a million-arrival stream occupies O(1) memory
    at near-vectorized speed.
    """
    if num < 0:
        raise ValueError("num must be >= 0")
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")

    def generate() -> Iterator[float]:
        rng = np.random.default_rng(seed)
        total = 0.0
        remaining = num
        while remaining > 0:
            block = rng.exponential(
                mean_interarrival, size=min(remaining, _DRAW_BLOCK)
            )
            remaining -= len(block)
            for gap in block:
                total += float(gap)
                yield total

    # Validate eagerly (above) but stream lazily: a bad argument raises at
    # the call site, not deep inside the engine when the trace is first
    # consumed.
    return generate()


def iter_burst_times(
    num_bursts: int, burst_size: int, burst_spacing: float
) -> Iterator[float]:
    """Lazily yield ``burst_size`` (>= 1) simultaneous arrivals every
    ``burst_spacing`` (> 0) layers for ``num_bursts`` (>= 0) bursts — the
    stress pattern for window batching (arguments validated eagerly, at
    the call site)."""
    if num_bursts < 0 or burst_size < 1:
        raise ValueError("num_bursts must be >= 0 and burst_size >= 1")
    if burst_spacing <= 0:
        raise ValueError("burst_spacing must be positive")

    def generate() -> Iterator[float]:
        for burst in range(num_bursts):
            time = float(burst * burst_spacing)
            for _ in range(burst_size):
                yield time

    return generate()


def iter_flash_crowd_times(
    num: int,
    mean_interarrival: float,
    crowd_time: float,
    crowd_size: int,
    crowd_spacing: float = 0.0,
    seed: int = 0,
) -> Iterator[float]:
    """Lazily yield a Poisson baseline with a flash crowd spliced in.

    The baseline is exactly :func:`iter_exponential_times`'s stream of
    ``num`` arrivals; at ``crowd_time`` a crowd of ``crowd_size`` extra
    arrivals lands, spaced ``crowd_spacing`` layers apart (``0.0`` = all
    simultaneous).  The two sorted streams are lazily merged in time
    order (ties resolved baseline-first), so the total yield is
    ``num + crowd_size`` arrivals in O(1) memory.
    """
    if num < 0 or crowd_size < 0:
        raise ValueError("num and crowd_size must be >= 0")
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")
    if crowd_time < 0 or crowd_spacing < 0:
        raise ValueError("crowd_time and crowd_spacing must be >= 0")

    def generate() -> Iterator[float]:
        baseline = iter_exponential_times(num, mean_interarrival, seed)
        crowd = (
            float(crowd_time + k * crowd_spacing) for k in range(crowd_size)
        )
        yield from heapq.merge(baseline, crowd)

    return generate()


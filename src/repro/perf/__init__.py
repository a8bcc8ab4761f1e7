"""Hot-path performance instrumentation for the serving engine.

:mod:`repro.perf.profiler` provides the lightweight stage profiler behind
``ServiceEngine(profile=True)`` / ``REPRO_PROFILE=1``: named hot-path
stages (admission, placement, ``run_window``, fidelity prediction, sketch
updates, heap ops) are counted — and wall-timed when a host clock is
injected — and land as a :class:`~repro.perf.profiler.StageProfile` table
on :class:`~repro.engine.core.ServiceReport`.
"""

from repro.perf.profiler import (
    PROFILE_ENV,
    HotPathProfiler,
    StageProfile,
)

__all__ = [
    "PROFILE_ENV",
    "HotPathProfiler",
    "StageProfile",
]

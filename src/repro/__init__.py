"""Fat-Tree QRAM: a high-bandwidth shared quantum random access memory.

Reproduction of Xu, Lu & Ding, ASPLOS 2025.  The package provides:

* :class:`repro.FatTreeQRAM` — the paper's architecture (query-level
  pipelining of ``log N`` queries on ``O(N)`` qubits),
* :class:`repro.BucketBrigadeQRAM`, :class:`repro.VirtualQRAM` and the
  distributed baselines, behind one architecture interface,
* quantum simulation substrates (:mod:`repro.sim`), the instruction-level
  schedules and gate-level executors, hardware layout models
  (:mod:`repro.hardware`), performance metrics (:mod:`repro.metrics`),
  fidelity / QEC analysis (:mod:`repro.fidelity`), parallel-algorithm and
  synthetic workloads (:mod:`repro.algorithms`) and the table/figure
  regeneration code (:mod:`repro.analysis`).

Quick start::

    from repro import FatTreeQRAM

    qram = FatTreeQRAM(8, data=[1, 0, 1, 1, 0, 0, 1, 0])
    result = qram.query({0: 1, 5: 1})       # superposition of addresses 0, 5
    print(result)                            # {(0, 1): ..., (5, 0): ...}
"""

from repro.bucket_brigade.qram import BucketBrigadeQRAM
from repro.backends import QRAMBackend, WindowResult
from repro.baselines.distributed import DistributedBBQRAM, DistributedFatTreeQRAM
from repro.baselines.registry import (
    ARCHITECTURES,
    architecture_names,
    backend_names,
    build_architecture,
    build_backend,
)
from repro.baselines.virtual_qram import VirtualQRAM
from repro.core.pipeline import FatTreePipeline
from repro.core.qram import FatTreeQRAM
from repro.core.query import QueryRequest, QueryResult
from repro.service import (
    InterleavedShardMap,
    QRAMService,
    ReplicatedShardMap,
    ServiceReport,
)
from repro.engine import (
    SANITIZE_ENV,
    ClosedLoopClient,
    ClosedLoopSource,
    SanitizerViolation,
    ServiceEngine,
    StreamingTraceSource,
    TraceSource,
)

__version__ = "1.2.0"

__all__ = [
    "FatTreeQRAM",
    "BucketBrigadeQRAM",
    "VirtualQRAM",
    "DistributedBBQRAM",
    "DistributedFatTreeQRAM",
    "FatTreePipeline",
    "QueryRequest",
    "QueryResult",
    "QRAMService",
    "ServiceReport",
    "ServiceEngine",
    "SanitizerViolation",
    "SANITIZE_ENV",
    "TraceSource",
    "StreamingTraceSource",
    "ClosedLoopClient",
    "ClosedLoopSource",
    "InterleavedShardMap",
    "ReplicatedShardMap",
    "QRAMBackend",
    "WindowResult",
    "ARCHITECTURES",
    "architecture_names",
    "backend_names",
    "build_architecture",
    "build_backend",
    "__version__",
]

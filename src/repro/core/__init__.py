"""Fat-Tree QRAM — the paper's primary contribution.

* :mod:`repro.core.fat_tree` — the multiplexed router tree structure
  (router indexing ``(i, j, k)``, node sizes, wire counts, qubit counts).
* :mod:`repro.core.subqram` — the sub-component QRAM decomposition (Fig. 5).
* :mod:`repro.core.pipeline` — the architectural pipeline model
  (Alg. 1: 10-layer pipeline interval, SWAP-I/II cadence, per-query latency
  ``10 log N - 1`` raw layers, label-granularity conflict freedom — the model
  behind Fig. 6, Table 1 and Table 2).
* :mod:`repro.core.executor` — gate-level execution of pipelined queries on
  the sparse simulator (functional validation of Eq. (1) under sharing).
* :mod:`repro.core.query` — the shared query request and the Eq. (1)
  output scoring (results are the engine's ``ServedQuery`` records).
* :mod:`repro.core.qram` — the user-facing :class:`FatTreeQRAM`.
"""

from repro.core.fat_tree import FatTreeStructure, FatTreeRouterId
from repro.core.subqram import SubQRAM
from repro.core.pipeline import FatTreePipeline, QueryTimeline
from repro.core.query import QueryRequest
from repro.core.executor import FatTreeExecutor
from repro.core.qram import FatTreeQRAM

__all__ = [
    "FatTreeStructure",
    "FatTreeRouterId",
    "SubQRAM",
    "FatTreePipeline",
    "QueryTimeline",
    "QueryRequest",
    "FatTreeExecutor",
    "FatTreeQRAM",
]

"""Bucket-Brigade QRAM (Giovannetti-Lloyd-Maccone) substrate.

This package implements the baseline architecture the paper builds on:

* :mod:`repro.bucket_brigade.tree` — the binary router tree, router/qubit
  naming, and leaf addressing.
* :mod:`repro.bucket_brigade.instructions` — the elementary QRAM instruction
  set (LOAD / TRANSPORT / ROUTE / STORE / CLASSICAL-GATES and inverses) and
  its lowering to gates.
* :mod:`repro.bucket_brigade.schedule` — the bit-level pipelined query
  schedule (``8 log N + 1`` circuit layers, 25 for N = 8).
* :mod:`repro.bucket_brigade.executor` — gate-level execution of a query on
  the sparse simulator, verifying the query unitary of Eq. (1).
* :mod:`repro.bucket_brigade.qram` — the user-facing ``BucketBrigadeQRAM``.
"""

from repro.bucket_brigade.tree import BBTree, RouterId
from repro.bucket_brigade.instructions import Instruction, InstructionKind
from repro.bucket_brigade.schedule import BBQuerySchedule
from repro.bucket_brigade.executor import BBExecutor
from repro.bucket_brigade.qram import BucketBrigadeQRAM

__all__ = [
    "BBTree",
    "RouterId",
    "Instruction",
    "InstructionKind",
    "BBQuerySchedule",
    "BBExecutor",
    "BucketBrigadeQRAM",
]

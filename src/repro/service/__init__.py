"""QRAM serving layer: multi-backend fleet, sharded, batched, policy-driven.

* :mod:`repro.service.sharding` — placement maps: address-interleaved
  sharding of the global address space, or full replication for
  shortest-queue placement.
* :mod:`repro.service.service` — :class:`QRAMService` builds the fleet:
  placement map, one backend per shard, pluggable admission policy
  (:mod:`repro.scheduling.policy`) and window sizes.  Each shard is any
  registered architecture (Fat-Tree, BB, Virtual, D-Fat-Tree, D-BB)
  behind the :class:`repro.backends.QRAMBackend` protocol.

A fleet is served by the discrete-event engine (:mod:`repro.engine`):
``ServiceEngine(service, **knobs).run(source)`` for any open-loop trace,
closed-loop clients or SLO-bounded queues.
"""

from repro.service.service import PLACEMENTS, QRAMService, ServiceReport
from repro.service.sharding import (
    ANY_SHARD,
    InterleavedShardMap,
    ReplicatedShardMap,
)

__all__ = [
    "QRAMService",
    "ServiceReport",
    "InterleavedShardMap",
    "ReplicatedShardMap",
    "ANY_SHARD",
    "PLACEMENTS",
]

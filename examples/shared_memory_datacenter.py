"""Shared-memory quantum data centre: several QPUs contending for one QRAM.

Reproduces the Fig. 1(a)/Fig. 7 scenario: a pool of QPUs each runs an
algorithm that alternates a QRAM query with local processing.  The script
compares how a Bucket-Brigade QRAM and a Fat-Tree QRAM (same O(N) qubit
budget) serve the same workload, and prints overall depth, queueing delay and
utilization — the quantities behind Fig. 10.

Run with ``python examples/shared_memory_datacenter.py``.
"""

from __future__ import annotations

from repro import build_architecture
from repro.engine import ClosedLoopClient
from repro.scheduling import QRAMServiceModel, serve_closed_loop

CAPACITY = 1024
NUM_QPUS = 12
ROUNDS = 10
PROCESSING_RATIO = 0.5        # d / t1 of the synthetic workload


def run(architecture: str) -> None:
    qram = build_architecture(architecture, CAPACITY)
    model = QRAMServiceModel.from_architecture(qram)
    clients = [
        ClosedLoopClient(
            qpu,
            queries=ROUNDS,
            think_layers=PROCESSING_RATIO * model.weighted_query_latency,
        )
        for qpu in range(NUM_QPUS)
    ]
    report = serve_closed_loop(model, clients)
    print(f"\n{architecture} QRAM (N = {CAPACITY}, {NUM_QPUS} QPUs, "
          f"{ROUNDS} query/process rounds each)")
    print(f"  query latency          : {model.weighted_query_latency:.3f} layers")
    print(f"  admission interval     : {model.admission_interval:.3f} layers")
    print(f"  query parallelism      : {model.parallelism}")
    print(f"  overall algorithm depth: {report.overall_depth:.1f} layers")
    print(f"  total queueing delay   : {report.total_queue_delay_layers:.1f} layers")
    print(f"  average utilization    : {report.average_utilization:.2f}")
    print(f"  queries served         : {report.total_queries}")


def main() -> None:
    for architecture in ("BB", "Fat-Tree", "D-BB"):
        run(architecture)
    print("\nFat-Tree serves the same pool of QPUs with an overall depth close "
          "to the log(N)-times more expensive D-BB, while BB is memory-"
          "bandwidth bound.")


if __name__ == "__main__":
    main()

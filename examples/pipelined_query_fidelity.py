"""Pipelined queries at the gate level, plus the fidelity story of Sec. 8.

Part 1 runs three concurrent queries through the gate-level Fat-Tree executor
(capacity 8) and verifies each returns exactly the data the memory holds
while sharing the multiplexed routers.

Part 2 evaluates the analytic fidelity models: the Table 3 infidelity
scaling, the Table 4 virtual-distillation comparison, and the Fig. 11 QEC
curves.

Run with ``python examples/pipelined_query_fidelity.py``.
"""

from __future__ import annotations

from repro import FatTreeQRAM
from repro.core.query import QueryRequest
from repro.fidelity import (
    fat_tree_query_infidelity,
    fig11_series,
    table3_rows,
    table4_comparison,
)
from repro.workloads import structured_data


def gate_level_pipelining() -> None:
    data = structured_data(8, "parity")
    qram = FatTreeQRAM(8, data)
    executor = qram.executor()
    requests = [
        QueryRequest(0, {0: 1.0, 7: 1.0}),
        QueryRequest(1, {1: 1.0, 6: -1.0}),
        QueryRequest(2, {2: 1.0, 5: 1.0j}),
    ]
    summary, outputs = executor.run_pipelined_queries(requests, interval=22)
    print("Gate-level pipelined execution (capacity 8, 3 queries):")
    print(f"  admission interval : {summary.interval} raw layers")
    print(f"  per-query latency  : {summary.per_query_raw_layers} raw layers "
          "(10 log N - 1 = 29)")
    print(f"  concurrent queries : {summary.max_concurrent}")
    for request in requests:
        fidelity = executor.query_fidelity(request, outputs[request.query_id])
        answers = {a: b for (a, b) in outputs[request.query_id]}
        print(f"  query {request.query_id}: fidelity {fidelity:.6f}, "
              f"data read {answers} (memory: "
              f"{ {a: data[a] for a in answers} })")
    program = executor.window_program(len(requests), summary.interval)
    _, state = program.replay(
        [(request.address_amplitudes, request.initial_bus) for request in requests]
    )
    print(f"  routers returned to |0...0>: {program.tree_is_clean(state)}")


def fidelity_analysis() -> None:
    print("\nQuery infidelity bound (Table 3, eps0 = 1e-3):")
    for row in table3_rows(capacities=(8, 16, 32, 64)):
        print(f"  N = {row['capacity']:3d}: {row['infidelity_eps0_0.001']:.4f}")

    print("\nVirtual distillation with parallel queries (Table 4):")
    for name, values in table4_comparison().items():
        print(f"  {name:9s}: {values['copies']} copies, "
              f"F = {values['fidelity_before']:.3f} -> {values['fidelity_after']:.4f}")

    print("\nQEC (Fig. 11, eps0 = 1e-3): infidelity at tree depth 10")
    series = fig11_series(tree_depths=(10,))
    for label in ("Fat-Tree d=1", "Fat-Tree d=3", "Fat-Tree d=5", "GC d=3"):
        print(f"  {label:15s}: {series[label][0]:.3g}")
    print(f"\n(For reference, the unencoded Fat-Tree bound at N = 2^10 is "
          f"{fat_tree_query_infidelity(1024):.3f}.)")


def main() -> None:
    gate_level_pipelining()
    fidelity_analysis()


if __name__ == "__main__":
    main()

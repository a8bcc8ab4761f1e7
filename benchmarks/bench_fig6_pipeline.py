"""Fig. 6 / Fig. 12 — pipelining 3 queries on a capacity-8 Fat-Tree QRAM.

Also exercises the gate-level executor on the same scenario to confirm the
pipelined queries are functionally correct (Eq. (1)) while sharing routers.
"""

from conftest import print_rows

from repro.analysis import generate_fig6_pipeline
from repro.backends.noise import window_offsets
from repro.core.executor import FatTreeExecutor
from repro.core.query import QueryRequest
from repro.workloads import structured_data


def test_fig6_pipeline_schedule(benchmark):
    data = benchmark(generate_fig6_pipeline, 8, 3)
    print_rows("Fig. 6 — capacity-8 Fat-Tree, 3 pipelined queries", data)
    assert data["per_query_raw_layers"] == 29
    assert data["finish_layers"] == [29, 39, 49]
    assert data["bb_single_query_layers"] == 25


def test_fig6_gate_level_functional_check(benchmark):
    executor = FatTreeExecutor(8, structured_data(8, "parity"))
    requests = [QueryRequest(i, {i: 1.0, 7 - i: 1.0}) for i in range(3)]
    interval = 22

    def run():
        return executor.run_pipelined_queries(requests, interval=interval)

    outputs = benchmark.pedantic(run, iterations=1, rounds=1)
    fidelities = [
        executor.query_fidelity(r, outputs[r.query_id]) for r in requests
    ]
    lifetime = executor.relative_raw_latency()
    total, starts, finishes = window_offsets(len(requests), interval, lifetime)
    print_rows(
        "Fig. 6 — gate-level execution",
        {
            "interval_raw_layers": interval,
            "per_query_raw_layers": lifetime,
            "slot_start_layers": [int(s) for s in starts],
            "slot_finish_layers": [int(f) for f in finishes],
            "query_fidelities": [round(f, 6) for f in fidelities],
        },
    )
    assert all(abs(f - 1.0) < 1e-9 for f in fidelities)
    assert lifetime == 29
    assert executor.window_program(len(requests), interval).total_layers == total

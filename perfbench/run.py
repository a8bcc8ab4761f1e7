"""Layered benchmark of the Fat-Tree QRAM serving simulator.

Run from the repository root::

    python3 perfbench/run.py --workload poisson-stream --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's operation (see ``cases.py``) for
``--seconds`` host seconds with tracing off and reports the end-to-end
metrics.  ``--trace 1`` ignores ``--seconds``: it runs the operation once
untraced and once with the per-layer spans of ``ledger.py`` installed,
checks that tracing left every result unchanged, and reports the
per-layer metrics.  ``manifest.json`` describes the workloads and maps
every metric to its layer.

A human-readable summary goes to standard output; its last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` with every
metric named in ``BENCHMARK.json``.  The program under test is imported
from ``src/`` of the checkout this script sits in; without it the script
exits with status 3 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules a workload needs: their import is part of set-up time.
PROGRAM_MODULES = ("repro", "repro.scenarios", "repro.sweep")

#: Fresh interpreters that time the import again (set-up is reported as
#: the median import plus the median per-operation build).
IMPORT_SAMPLES = 4

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program() -> float:
    """Import the program from this checkout; return the host seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing", 3)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["repro"].__file__).resolve()
    if SRC not in origin.parents:
        _fail(f"imported repro from {origin}, not from {SRC}", 3)
    return elapsed


def import_samples() -> list[float]:
    """Import times measured in fresh interpreters (waited for)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC),
             *PROGRAM_MODULES],
            capture_output=True, text=True, check=True, timeout=120,
            cwd=ROOT,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def declared_metrics() -> dict[str, dict[str, dict[str, str]]]:
    """Metric names and units by section, from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        section: {m["name"]: m for m in declared[section]}
        for section in ("end_to_end", "per_layer")
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(workload, inputs, ledger=None):
    """Execute and check one operation, traced when a ledger is given.

    Returns the outcome (an exception becomes a failed outcome) and the
    host seconds of the execution alone, checks excluded.
    """
    from cases import Outcome

    tracing = ledger.installed() if ledger else contextlib.nullcontext()
    outcome = None
    with tracing:
        start = time.perf_counter()
        try:
            executed = workload.execute(inputs)
        except Exception as exc:  # noqa: BLE001 - a failure is a result
            outcome = exc
        wall = time.perf_counter() - start
    if outcome is None:
        try:
            return workload.check(inputs, executed), wall
        except Exception as exc:  # noqa: BLE001 - a failure is a result
            outcome = exc
    return Outcome(
        setup_s=0.0, run_s=0.0, disposed=0,
        attempted=workload.points, failed=workload.points, sim={},
        digest="", problems=[f"{type(outcome).__name__}: {outcome}"],
    ), wall


def measure(workload, inputs, seconds: float, import_s: list[float]):
    """End-to-end metrics over repeated operations (tracing off)."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(run_once(workload, inputs)[0])
    problems = [p for o in outcomes for p in o.problems]
    if len({o.digest for o in outcomes}) != 1:
        problems.append("equal inputs gave different results across runs")
    good = [o for o in outcomes if not o.problems]
    metrics = {
        "throughput_rps": statistics.median(
            [o.disposed / o.run_s for o in good] or [0.0]
        ),
        "setup_s": statistics.median(import_s)
        + statistics.median([o.setup_s for o in outcomes]),
        "peak_rss_mib": peak_rss_mib(),
    }
    sim = good[0].sim if good else {}
    for name in ("sim_bandwidth_qps", "sim_p99_latency_layers",
                 "sim_served_frac", "sim_mean_fidelity"):
        metrics[name] = float(sim.get(name, 0.0))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"{len(outcomes)} operation(s) in "
          f"{time.perf_counter() - start:.1f} s; error_frac "
          f"{failed / attempted:.6f} ({failed}/{attempted})")
    return metrics, attempted, failed, problems


def trace(workload, inputs):
    """Per-layer metrics: one untraced and one traced operation."""
    from ledger import Ledger
    from repro.schedule_cache import default_registry

    untraced, untraced_wall = run_once(workload, inputs)
    ledger = Ledger()
    traced, traced_wall = run_once(workload, inputs, ledger)
    cache = default_registry().stats()

    problems = untraced.problems + traced.problems
    if traced.digest != untraced.digest:
        problems.append("tracing changed the report digest")
    if traced.sim != untraced.sim:
        problems.append("tracing changed the sim_* metrics")
    if traced.counts:
        problems += ledger.self_checks(traced_wall, traced.counts)
    metrics = ledger.metrics(traced_wall, cache)
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    print("span tree (parent > span, calls, inclusive host seconds):")
    for line in ledger.call_tree():
        print("  " + line)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    first_import = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", 2)
    workload = WORKLOADS[args.workload]
    inputs = workload.make(args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")

    if args.trace:
        metrics, attempted, failed, problems = trace(workload, inputs)
        section = declared["per_layer"]
    else:
        import_s = [first_import, *import_samples()]
        metrics, attempted, failed, problems = measure(
            workload, inputs, args.seconds, import_s
        )
        section = declared["end_to_end"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    missing = sorted(set(section) - set(metrics))
    if missing:
        _fail(f"metrics declared but not measured: {missing}", 4)
    result = {
        name: {"value": metrics[name], "unit": spec["unit"]}
        for name, spec in section.items()
    }
    for name, entry in result.items():
        print(f"  {name:<28} {entry['value']:>18.6f} {entry['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

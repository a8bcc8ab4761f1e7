"""Run every consumer of ``src/repro`` under a call recorder and list what
no consumer reaches.

A *consumer* is an entry point a user or CI drives: every example, the
benchmarks (under pytest and as scripts), the three ``perfbench``
workloads at ``--trace 1``, the ``repro.sweep`` CLI on CI's smoke
campaign and the ``repro.scenarios`` fuzzer on CI's seed-0 campaign (500
draws, so what the audit counts as reached is what CI runs).  Tests are
not consumers: code that only its own tests call is what the audit looks
for.

Each ``def`` under ``src/repro`` is matched to the code objects the
recorder saw by ``(file, first line)``.  A function no consumer entered is
*uncalled*; it must sit in the keep table (``keep.json``) under one of
:data:`KEEP_RULES`, and every table entry must still name a function that
no consumer reaches.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook.py"
KEEP = Path(__file__).resolve().parent / "keep.json"

#: Why an uncalled function may stay (the reason field names the test,
#: claim or interface).
KEEP_RULES = {
    "oracle": "the reference side of a bit-identity or physics contract, or "
    "a state reader its tests compare through",
    "protocol": "a Protocol member or abstract hook, or an implementation of "
    "one that a declared interface requires",
    "fork-only": "runs only in forked workers or when a worker fails",
    "cli": "a CLI or outside-input path CI's runs do not take",
    "claim": "a tier-1 test asserts a named paper claim through it",
    "reader": "builds a test's input or reads its result; inlining it into "
    "each test that uses it is no reduction",
}

#: The benchmark sizes the audit runs at: every code path, few requests,
#: and the host-speed gates off (the recorder slows every call).
BENCH_ENV = {
    "QRAM_SCALE_REQUESTS": "4000",
    "QRAM_SCALE_PARALLEL_REQUESTS": "2000",
    "QRAM_SCALE_MIN_SPEEDUP": "0",
    "QRAM_SWEEP_INTENSITIES": "2",
    "QRAM_SWEEP_MIN_REUSE_SPEEDUP": "0",
    "QRAM_SWEEP_MIN_SPEEDUP": "0",
}

#: CI's 12-point sweep smoke campaign (the ``sweep-smoke`` job).
SWEEP_SMOKE = """\
from repro.scenarios import FleetSpec, ScenarioSpec, WorkloadSpec
from repro.sweep import SweepSpec

base = ScenarioSpec(
    name="ci-smoke",
    fleet=FleetSpec(capacity=16, shards=("Fat-Tree", "BB"), functional=False),
    workload=WorkloadSpec(
        kind="poisson",
        num_queries=32,
        mean_interarrival=3.0,
        deadline_layers=400.0,
        seed=5,
    ),
)
sweep = SweepSpec(
    base=base,
    axes=(
        ("policy.admission", ("fifo", "priority")),
        ("fleet.qec_distance", (1, 3)),
        ("workload.mean_interarrival", (2.0, 4.0, 8.0)),
    ),
    name="ci-smoke",
)
with open("sweep_smoke.json", "w") as handle:
    handle.write(sweep.to_json())
"""

PERFBENCH_WORKLOADS = ("poisson-stream", "functional-gate", "slo-campaign")


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    qualname: str
    path: Path
    first_line: int
    lines: int


def src_functions(src: Path = SRC) -> dict[str, Function]:
    """Every ``def`` under ``src/repro`` by qualified name.

    Names follow ``__qualname__`` with the module in front
    (``repro.core.qram.FatTreeQRAM.query``, ``mod.outer.<locals>.inner``);
    a function's first line is that of its first decorator, as in its code
    object.
    """
    found: dict[str, Function] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [dec.lineno for dec in child.decorator_list]
                    )
                    qualname = f"{module}.{prefix}{child.name}"
                    found[qualname] = Function(
                        qualname, path, first, child.end_lineno - first + 1
                    )
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _entry_points(work: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """``(label, argv, extra environment)`` for every consumer, in order."""
    python = sys.executable
    bench = work / "benchmarks"
    runs = [
        (f"example {path.name}", [python, str(path)], {})
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    benches = sorted(bench.glob("bench_*.py"))
    runs.append(
        (
            "pytest benchmarks",
            [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable", *map(str, benches)],
            {},
        )
    )
    runs += [
        (f"script {path.name}", [python, str(path)], {}) for path in benches
    ]
    # CI's scale-benchmark job also runs the scale script profiled.
    runs.append(
        (
            "script bench_service_scale.py (REPRO_PROFILE=1)",
            [python, str(bench / "bench_service_scale.py")],
            {"REPRO_PROFILE": "1"},
        )
    )
    runs += [
        (
            f"perfbench {workload}",
            [python, str(ROOT / "perfbench" / "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
            {},
        )
        for workload in PERFBENCH_WORKLOADS
    ]
    runs += [
        ("sweep smoke spec", [python, "-c", SWEEP_SMOKE], {}),
        (
            "python -m repro.sweep",
            [python, "-m", "repro.sweep", "sweep_smoke.json", "--pool", "2",
             "--out", "rows.jsonl", "--frontier", "frontier.json"],
            {},
        ),
        (
            "python -m repro.scenarios",
            [python, "-m", "repro.scenarios", "--draws", "500", "--seed",
             "0", "--reproducer", "fuzz_reproducer.json"],
            {},
        ),
    ]
    return runs


def record_calls() -> set[tuple[str, int]]:
    """Run every consumer under the recorder; ``(file, first line)`` seen.

    The benchmarks run from a copy so their trajectory appends land in
    the scratch directory, not in the committed ``BENCH_*.json`` files.
    Raises ``RuntimeError`` naming the consumer if one exits non-zero.
    """
    with tempfile.TemporaryDirectory(prefix="consumer-audit-") as tmp:
        work = Path(tmp)
        hook_dir = work / "hook"
        hook_dir.mkdir()
        shutil.copy(HOOK, hook_dir / "sitecustomize.py")
        shutil.copytree(ROOT / "benchmarks", work / "benchmarks")
        for trajectory in ROOT.glob("BENCH_*.json"):
            shutil.copy(trajectory, work / trajectory.name)
        env = dict(os.environ, **BENCH_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC), str(work / "benchmarks")]
        )
        for label, argv, extra in _entry_points(work):
            print(f"run  {label}", flush=True)
            done = subprocess.run(
                argv, cwd=work, env=dict(env, **extra), capture_output=True,
                text=True,
            )
            if done.returncode != 0:
                tail = (done.stdout + done.stderr)[-4000:]
                raise RuntimeError(
                    f"consumer {label!r} exited {done.returncode}:\n{tail}"
                )
        seen: set[tuple[str, int]] = set()
        for record in sorted((hook_dir / "calls").glob("*.json")):
            for filename, first_line, _name in json.loads(record.read_text()):
                seen.add((str(Path(filename).resolve()), first_line))
    return seen


def load_keep(path: Path = KEEP) -> dict[str, dict[str, str]]:
    """The keep table: qualified name -> ``{"rule": ..., "reason": ...}``."""
    return json.loads(path.read_text())["keep"]


def check_keep(
    keep: dict[str, dict[str, str]],
    functions: dict[str, Function],
    seen: set[tuple[str, int]] | None = None,
) -> list[str]:
    """Problems with the table itself: stale names, unknown rules, no
    reason, and (given the recorded calls ``seen``) entries whose function
    a consumer now reaches."""
    problems = []
    for name, entry in sorted(keep.items()):
        if name not in functions:
            problems.append(f"keep entry {name} names no src function")
        elif seen is not None and _reached(functions[name], seen):
            problems.append(
                f"keep entry {name} names a function a consumer reaches"
            )
        if entry.get("rule") not in KEEP_RULES:
            problems.append(
                f"keep entry {name} has rule {entry.get('rule')!r}, "
                f"not one of {', '.join(KEEP_RULES)}"
            )
        if not entry.get("reason"):
            problems.append(f"keep entry {name} gives no reason")
    return problems


def _reached(function: Function, seen: set[tuple[str, int]]) -> bool:
    return (str(function.path.resolve()), function.first_line) in seen


def uncalled(
    functions: dict[str, Function], seen: set[tuple[str, int]]
) -> list[Function]:
    """The functions whose code object no consumer entered."""
    return [
        function for function in functions.values() if not _reached(function, seen)
    ]

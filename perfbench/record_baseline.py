"""Run every workload and record its ledger into ``baseline.json``.

Run from the repository root::

    python3 perfbench/record_baseline.py --seed 1

For each workload this runs ``run.py`` twice — untraced for the
end-to-end metrics and traced for the per-layer ledger — prints the
end-to-end metrics by name and unit, and stores both result lines with
the host they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    """The CPU model name Linux reports (empty elsewhere)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    record = {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "cpu_model": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "run_seconds": declared["run_seconds"],
        "workloads": {},
    }
    for entry in declared["workloads"]:
        name = entry["name"]
        end_to_end = run(name, args.seed, declared["run_seconds"], 0)
        per_layer = run(name, args.seed, declared["run_seconds"], 1)
        record["workloads"][name] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
        print(f"{name}: correct {end_to_end['correct'] and per_layer['correct']}"
              f", error_frac {end_to_end['failed'] / end_to_end['attempted']}"
              f" ({end_to_end['failed']}/{end_to_end['attempted']})")
        for metric, value in end_to_end["metrics"].items():
            print(f"  {metric:<24} {value['value']:>16.6f} {value['unit']}",
                  flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: ``python -m tools.consumer_audit``.

Runs every consumer under the call recorder, prints each uncalled
``src/repro`` function with its keep rule, and exits 1 if an uncalled
function is missing from ``keep.json`` or a table entry is stale (no such
function, a function some consumer reaches, unknown rule, no reason); 2 if
a consumer itself fails.
"""

from __future__ import annotations

import sys

from tools.consumer_audit.audit import (
    check_keep,
    load_keep,
    record_calls,
    src_functions,
    uncalled,
)


def main() -> int:
    functions = src_functions()
    keep = load_keep()
    try:
        seen = record_calls()
    except RuntimeError as error:
        print(f"FAIL: {error}")
        return 2
    missing = uncalled(functions, seen)
    total_lines = sum(function.lines for function in functions.values())
    print(
        f"uncalled: {len(missing)} of {len(functions)} src functions, "
        f"{sum(function.lines for function in missing)} of {total_lines} lines"
    )
    problems = check_keep(keep, functions, seen)
    for function in missing:
        entry = keep.get(function.qualname)
        rule = entry["rule"] if entry else "NOT IN KEEP TABLE"
        print(f"  {function.qualname} ({function.lines} lines) [{rule}]")
        if entry is None:
            problems.append(
                f"{function.qualname} is uncalled and not in the keep table"
            )
    for problem in problems:
        print(f"FAIL: {problem}")
    print("OK" if not problems else f"FAIL: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

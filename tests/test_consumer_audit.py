"""consumer_audit: the keep table and the uncalled-function matching.

Running every consumer under the recorder takes about a minute, so that
half runs in CI's ``consumer-audit`` job (``python -m tools.consumer_audit``).
These tests pin the static half in seconds: every keep entry names a live
``src`` function under a known rule with a reason, and the matcher treats
code objects the way the recorder reports them.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.consumer_audit.audit import (  # noqa: E402
    KEEP_RULES,
    check_keep,
    load_keep,
    src_functions,
    uncalled,
)


def test_keep_table_names_live_functions_under_known_rules():
    assert check_keep(load_keep(), src_functions()) == []


def test_stale_or_unexplained_keep_entries_are_flagged():
    functions = src_functions()
    keep = {
        "repro.no_such_module.gone": {"rule": "oracle", "reason": "was here"},
        "repro.core.qram.FatTreeQRAM.query": {"rule": "vibes", "reason": "x"},
        "repro.core.qram.FatTreeQRAM.bandwidth": {"rule": "claim", "reason": ""},
    }
    problems = sorted(check_keep(keep, functions))
    assert len(problems) == 3
    assert "FatTreeQRAM.bandwidth gives no reason" in problems[0]
    assert "FatTreeQRAM.query has rule 'vibes'" in problems[1]
    assert "gone names no src function" in problems[2]


def test_keep_entries_a_consumer_reaches_are_flagged():
    functions = src_functions()
    kept = "repro.core.qram.FatTreeQRAM.query"
    other = "repro.core.qram.FatTreeQRAM.bandwidth"
    keep = {
        name: {"rule": "claim", "reason": "asserted in tier-1"}
        for name in (kept, other)
    }
    reached = functions[kept]
    seen = {(str(reached.path.resolve()), reached.first_line)}
    assert check_keep(keep, functions) == []
    assert check_keep(keep, functions, seen) == [
        f"keep entry {kept} names a function a consumer reaches"
    ]


def test_functions_are_named_like_qualname_and_start_at_decorators(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("def top():\n    pass\n")
    (package / "mod.py").write_text(
        "class A:\n"
        "    @property\n"
        "    def p(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
    )
    functions = src_functions(tmp_path)
    assert set(functions) == {
        "repro.top",
        "repro.mod.A.p",
        "repro.mod.A.p.<locals>.inner",
    }
    prop = functions["repro.mod.A.p"]
    assert (prop.first_line, prop.lines) == (2, 5)    # decorator line first
    seen = {(str(prop.path.resolve()), prop.first_line)}
    missing = {f.qualname for f in uncalled(functions, seen)}
    assert missing == {"repro.top", "repro.mod.A.p.<locals>.inner"}


def test_keep_rules_are_the_documented_set():
    assert set(KEEP_RULES) == {
        "oracle", "protocol", "fork-only", "cli", "claim", "reader",
    }


def test_recorder_reports_identical_functions_of_two_files(tmp_path):
    """Code objects of two files compare equal when their name, first line
    and bytecode match; the recorder still reports both."""
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir()
    shutil.copy(
        REPO_ROOT / "tools" / "consumer_audit" / "hook.py",
        hook_dir / "sitecustomize.py",
    )
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name in ("a.py", "b.py"):
        (package / name).write_text("def capacity():\n    return 1\n")
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(tmp_path)])
    )
    subprocess.run(
        [sys.executable, "-c",
         "import repro.a, repro.b; repro.a.capacity(); repro.b.capacity()"],
        env=env, cwd=tmp_path, check=True,
    )
    called = {
        Path(filename).name
        for record in (hook_dir / "calls").glob("*.json")
        for filename, _, name in json.loads(record.read_text())
        if name == "capacity"
    }
    assert called == {"a.py", "b.py"}


"""The claim map: every serving option names the claim it serves.

``EXPERIMENTS.md`` carries a "Claim map" table with one row per option of
the spec layer (``FleetSpec`` / ``WorkloadSpec`` / ``PolicySpec`` /
``RunSpec`` fields), of ``ServiceEngine`` and ``QRAMService``, and per
value of the placement, workload-kind, delivery, retention and
admission-policy vocabularies.  Each row names the paper table, figure
or section (or the ROADMAP aim) the option serves, and the test that
pins it.  This file fails when an option has no row, when a row names an
option that does not exist, and when a row's test does not exist — so a
new option has to say what it is for.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.engine import RETENTIONS, ServiceEngine
from repro.scenarios import (
    DELIVERIES,
    WORKLOAD_KINDS,
    FleetSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)
from repro.scheduling.policy import policy_names
from repro.service import PLACEMENTS, QRAMService

ROOT = Path(__file__).resolve().parents[1]

#: A claim cell names at least one of these.
CLAIM = re.compile(
    r"\b(Table [1-5]|Fig\. (?:[6-9]|1[01])|Sec\. [0-9A]|aim [1-4])\b"
)


def _options() -> set[str]:
    """Every option the map must cover, as ``Owner.member``."""
    options = set()
    for cls in (FleetSpec, WorkloadSpec, PolicySpec, RunSpec):
        options.update(f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls))
    for cls in (ServiceEngine, QRAMService):
        parameters = inspect.signature(cls.__init__).parameters
        options.update(f"{cls.__name__}.{name}" for name in parameters if name != "self")
    for owner, values in (
        ("PLACEMENTS", PLACEMENTS),
        ("WORKLOAD_KINDS", WORKLOAD_KINDS),
        ("DELIVERIES", DELIVERIES),
        ("RETENTIONS", RETENTIONS),
        ("policy_names", policy_names()),
    ):
        options.update(f"{owner}.{value}" for value in values)
    return options


def _code(cell: str) -> list[str]:
    """The backquoted spans of one table cell."""
    return re.findall(r"`([^`]+)`", cell)


def claim_map(text: str) -> dict[str, tuple[str, list[str]]]:
    """Parse the "Claim map" section: option -> (claim cell, pins).

    Raises:
        ValueError: if the section or its table is missing, a row is
            malformed, or an option has two rows.
    """
    match = re.search(r"^## Claim map\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    if match is None:
        raise ValueError("EXPERIMENTS.md has no '## Claim map' section")
    rows = [
        line for line in match.group(1).splitlines() if line.startswith("|")
    ]
    if len(rows) < 3:
        raise ValueError("the claim map has no table rows")
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    if header != ["option", "claim or aim", "pinned by"]:
        raise ValueError(f"unexpected claim-map header {header}")
    table = {}
    for line in rows[2:]:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3:
            raise ValueError(f"claim-map row needs three cells: {line!r}")
        names = _code(cells[0])
        if len(names) != 1:
            raise ValueError(f"claim-map row names no single option: {line!r}")
        if names[0] in table:
            raise ValueError(f"option {names[0]} has two claim-map rows")
        table[names[0]] = (cells[1], _code(cells[2]))
    return table


def _test_names(path: Path) -> set[str]:
    """``test_x`` and ``Class::test_x`` names defined in one test file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return names


def pin_problem(pin: str, root: Path = ROOT) -> str | None:
    """Why ``path::test_name`` names no existing test (``None`` if it does)."""
    path, sep, name = pin.partition("::")
    if not sep or not name.split("::")[-1].startswith("test_"):
        return f"{pin!r} is not a path::test_name"
    file = root / path
    if not file.is_file():
        return f"{pin!r}: no file {path}"
    if name not in _test_names(file):
        return f"{pin!r}: {path} defines no {name}"
    return None


@pytest.fixture(scope="module")
def table() -> dict[str, tuple[str, list[str]]]:
    return claim_map((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))


def test_every_option_has_a_row(table):
    missing = sorted(_options() - set(table))
    assert not missing, f"options without a claim-map row: {missing}"


def test_every_row_names_a_live_option(table):
    stale = sorted(set(table) - _options())
    assert not stale, f"claim-map rows for options that do not exist: {stale}"


def test_every_row_names_a_claim_and_an_existing_test(table):
    problems = []
    for option, (claim, pins) in sorted(table.items()):
        if not CLAIM.search(claim):
            problems.append(f"{option}: no table, figure, section or aim in {claim!r}")
        if not pins:
            problems.append(f"{option}: no pinning test")
        problems.extend(
            f"{option}: {problem}"
            for problem in map(pin_problem, pins)
            if problem is not None
        )
    assert not problems, "\n".join(problems)


def test_pin_check_rejects_missing_files_and_tests():
    assert pin_problem("tests/test_claim_map.py::test_every_option_has_a_row") is None
    assert "no file" in pin_problem("tests/test_nowhere.py::test_x")
    assert "defines no" in pin_problem("tests/test_claim_map.py::test_nowhere")
    assert "path::test_name" in pin_problem("tests/test_claim_map.py")


def test_parser_rejects_duplicate_rows():
    text = (
        "## Claim map\n\n| option | claim or aim | pinned by |\n|---|---|---|\n"
        "| `RunSpec.clops` | Table 2 | `tests/a.py::test_a` |\n"
        "| `RunSpec.clops` | Table 2 | `tests/a.py::test_a` |\n"
    )
    with pytest.raises(ValueError, match="two claim-map rows"):
        claim_map(text)

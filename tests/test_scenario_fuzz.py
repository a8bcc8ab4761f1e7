"""The property-based engine fuzzer: smoke, mutation-testing, corpus.

Three layers of confidence in :mod:`repro.scenarios.fuzz`:

* **smoke** — a small seeded campaign passes every invariant (the CI job
  runs the full 500-draw campaigns; tier-1 keeps a fast canary);
* **mutation testing** — the harness *itself* is tested by injecting a
  known accounting bug into the report and asserting the conservation
  check catches it and the shrinker folds the reproducer down to a
  trivially small spec (≤ 3 shards, ≤ 10 offered requests);
* **reproducer corpus** — every bug the fuzzer has ever caught lives on
  as a JSON spec under ``tests/reproducers/``; replaying the corpus
  through :func:`check_spec` keeps the fixes pinned forever.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.scenarios import (
    FuzzReport,
    ScenarioSpec,
    check_spec,
    draw_spec,
    offered_requests,
    run_fuzz,
)

REPRODUCERS = sorted(
    (Path(__file__).resolve().parent / "reproducers").glob("*.json")
)


# ------------------------------------------------------------------- smoke
def test_fuzz_smoke_campaign():
    report = run_fuzz(draws=25, seed=0)
    assert isinstance(report, FuzzReport)
    assert report.ok, (
        f"{report.violation.invariant}: {report.violation.detail}\n"
        f"{report.violation.spec.to_json()}"
    )
    assert report.checked == report.draws == 25
    # A campaign is useful only if most draws actually serve something.
    assert report.vacuous < report.draws // 2


def test_draw_spec_is_seed_deterministic():
    first = [draw_spec(random.Random(7)) for _ in range(10)]
    second = [draw_spec(random.Random(7)) for _ in range(10)]
    assert first == second
    # Different seeds explore different corners.
    assert first != [draw_spec(random.Random(8)) for _ in range(10)]


def test_draw_spec_round_trips():
    rng = random.Random(3)
    for _ in range(20):
        spec = draw_spec(rng)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        offered = offered_requests(spec)
        assert offered >= 1


# -------------------------------------------------------- mutation testing
def _corrupt_conservation(report):
    """Inject the bug class the conservation invariant exists to catch:
    an offered-query count that no longer equals served + rejected +
    shed."""
    stats = dataclasses.replace(
        report.stats, offered_queries=report.stats.offered_queries + 1
    )
    return dataclasses.replace(report, stats=stats)


def test_mutation_is_caught_and_shrunk(tmp_path):
    reproducer = tmp_path / "fuzz_reproducer.json"
    report = run_fuzz(
        draws=50, seed=0, mutate=_corrupt_conservation,
        reproducer_path=str(reproducer),
    )
    assert not report.ok
    assert report.violation.invariant == "conservation"
    assert report.checked == 1  # the very first draw trips it
    # The shrinker folds the reproducer down to a trivial spec.
    shrunk = report.shrunk
    assert shrunk is not None
    assert shrunk.fleet.num_shards <= 3
    offered = offered_requests(shrunk)
    assert offered <= 10
    # The shrunk spec still trips the same invariant.
    violation = check_spec(shrunk, mutate=_corrupt_conservation)
    assert violation is not None and violation.invariant == "conservation"
    # The dumped reproducer is self-contained, seeded JSON.
    payload = json.loads(reproducer.read_text())
    assert payload["invariant"] == "conservation"
    assert payload["seed"] == 0
    assert ScenarioSpec.from_dict(payload["shrunk_spec"]) == shrunk


def test_crash_is_reported_shrunk_and_dumped(tmp_path, monkeypatch):
    """An exception escaping the engine is a ``crash`` violation: shrunk
    and written out like any failed invariant, not raised past the CLI."""

    def explode(spec):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(ScenarioSpec, "execute", explode)
    reproducer = tmp_path / "fuzz_reproducer.json"
    report = run_fuzz(draws=5, seed=0, reproducer_path=str(reproducer))
    assert report.violation is not None
    assert report.violation.invariant == "crash"
    assert report.violation.detail == "RuntimeError: engine exploded"
    assert report.checked == 1
    assert check_spec(report.shrunk).invariant == "crash"
    payload = json.loads(reproducer.read_text())
    assert payload["invariant"] == "crash"
    assert ScenarioSpec.from_dict(payload["shrunk_spec"]) == report.shrunk


def test_clean_run_writes_no_reproducer(tmp_path):
    reproducer = tmp_path / "fuzz_reproducer.json"
    report = run_fuzz(draws=5, seed=1, reproducer_path=str(reproducer))
    assert report.ok
    assert not reproducer.exists()


# ------------------------------------------------------- reproducer corpus
def test_corpus_is_not_empty():
    assert len(REPRODUCERS) >= 3


@pytest.mark.parametrize(
    "path", REPRODUCERS, ids=lambda path: path.stem
)
def test_reproducer_corpus_replays_clean(path):
    """Every past fuzzer catch stays fixed: the minimized spec that once
    violated an invariant now passes all of them."""
    spec = ScenarioSpec.from_json(path.read_text())
    violation = check_spec(spec)
    assert violation is None, (
        f"{path.name} regressed: {violation.invariant}: {violation.detail}"
    )

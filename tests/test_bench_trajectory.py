"""The one trajectory format behind every ``BENCH_*.json`` record.

``benchmarks/trajectory.py`` defines the scale and sweep trajectories side
by side; this schema test covers both, including the rows already recorded
in the repository files.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = trajectory  # dataclasses resolve their module
_SPEC.loader.exec_module(trajectory)


def _fresh_row(traj) -> dict:
    return {key: 1 for key in traj.schema}


@pytest.mark.parametrize(
    "traj", trajectory.TRAJECTORIES, ids=lambda t: t.path.name
)
def test_trajectory_row_schema(traj, tmp_path):
    # Every recorded row loads and normalizes to the full schema.
    recorded = traj.load()
    assert recorded
    for row in recorded:
        assert set(traj.schema) <= set(row)

    # Normalization backfills exactly the missing keys, in place.
    historical = {traj.schema[0]: "old"}
    scratch = dataclasses.replace(traj, path=tmp_path / traj.path.name)
    scratch.path.write_text(json.dumps({"runs": [historical]}))
    (loaded,) = scratch.load()
    assert loaded[traj.schema[0]] == "old"
    assert set(loaded) == set(traj.schema)
    assert all(loaded[key] is None for key in traj.schema[1:])

    # A new row must populate the required keys and carry nothing ad hoc.
    with pytest.raises(AssertionError, match="null"):
        traj.check_row(loaded)
    fresh = _fresh_row(traj)
    traj.check_row(fresh)
    with pytest.raises(AssertionError, match="drift"):
        traj.check_row({**fresh, "ad_hoc": 1})

    # Appending keeps recorded rows untouched and adds the new one last.
    runs = scratch.append(fresh)
    assert runs[-1] == fresh and runs[0][traj.schema[0]] == "old"
    assert json.loads(scratch.path.read_text())["runs"] == runs


def test_scale_rows_drop_the_duplicate_rate_key():
    """``requests_per_second`` duplicated ``requests_per_sec``: recorded
    rows keep it, new rows may not carry it."""
    scale = trajectory.SCALE
    assert "requests_per_second" not in scale.schema
    assert any("requests_per_second" in row for row in scale.load())
    with pytest.raises(AssertionError, match="drift"):
        scale.check_row({**_fresh_row(scale), "requests_per_second": 1.0})

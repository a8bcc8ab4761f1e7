"""Exact pins of every output of the shared-QRAM timing model.

Figs. 7, 9 and 10, ``schedule_queries`` and the shared-memory data-centre
example all rest on one timing model: admit one query per pipeline
interval, at most ``parallelism`` in flight.  The recorded values in
``tests/pins/shared_qram.json`` are compared bit for bit (JSON round-trips
Python floats exactly), so any change to how that model is simulated
must reproduce them or re-pin knowingly.

Regenerate the fixture with ``PYTHONPATH=src python
tests/test_shared_qram_pins.py --write``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import runpy
import sys

import pytest

from repro.algorithms import fig9_depths
from repro.analysis import generate_fig7_schedule, generate_fig10_synthetic
from repro.baselines import build_architecture
from repro.scheduling import (
    QRAMServiceModel,
    burst_arrivals,
    random_arrivals,
    schedule_queries,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).resolve().parent / "pins" / "shared_qram.json"
EXAMPLE = ROOT / "examples" / "shared_memory_datacenter.py"

POLICIES = ("fifo", "lifo", "random", "priority")
SCHEDULE_SEEDS = (0, 1, 2)
#: The Fig. 10 sweep of the two architectures whose ``parallelism *
#: admission_interval`` equals the query latency exactly (see
#: :func:`test_fig10_virtual_dbb_sweep_within_rounding`).
TIGHT_RATIOS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def _timing_models() -> dict[str, tuple[float, float, int]]:
    """``(service_time, admission_interval, parallelism)`` per model."""
    models = {"hand-3": (24.625, 8.25, 3)}
    for name in ("Fat-Tree", "BB"):
        model = QRAMServiceModel.from_architecture(build_architecture(name, 1024))
        models[name] = (
            model.weighted_query_latency,
            model.admission_interval,
            model.parallelism,
        )
    return models


def _arrival_streams():
    streams = {
        f"poisson-{seed}": random_arrivals(8, 10.0, seed=seed, num_qpus=3)
        for seed in SCHEDULE_SEEDS
    }
    streams["burst"] = burst_arrivals(2, 5, 40.0, num_qpus=2)
    return streams


def _schedules() -> dict[str, list[list[float]]]:
    """Per-query ``[query_id, request, start, finish]`` in admission order."""
    out = {}
    for model_name, (service, interval, parallelism) in _timing_models().items():
        for stream_name, arrivals in _arrival_streams().items():
            for policy in POLICIES:
                schedule = schedule_queries(
                    arrivals, service, interval, parallelism, policy, seed=3
                )
                out[f"{model_name}/{stream_name}/{policy}"] = [
                    [s.query_id, s.request_time, s.start_layer, s.finish_layer]
                    for s in schedule
                ]
    return out


def _example_stdout() -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLE), run_name="__main__")
    return buffer.getvalue()


def _tight_sweep() -> dict[str, object]:
    return generate_fig10_synthetic(
        processing_ratios=TIGHT_RATIOS, architectures=("Virtual", "D-BB")
    )


def _normalized(value):
    """JSON round trip: tuples become lists and keys strings, floats stay
    bit-exact."""
    return json.loads(json.dumps(value))


def _compute() -> dict[str, object]:
    return {
        "fig7": generate_fig7_schedule(),
        "fig9_256": fig9_depths(256),
        "fig9_1024": fig9_depths(1024),
        "fig10": generate_fig10_synthetic(),
        "fig10_d_fat_tree": generate_fig10_synthetic(architectures=("D-Fat-Tree",)),
        "fig10_tight": _tight_sweep(),
        "schedules": _schedules(),
        "example_stdout": _example_stdout(),
    }


@pytest.fixture(scope="module")
def pins() -> dict[str, object]:
    return json.loads(PINS.read_text())


def test_fig7_schedule_pinned(pins):
    assert _normalized(generate_fig7_schedule()) == pins["fig7"]


@pytest.mark.parametrize("capacity", [256, 1024])
def test_fig9_depths_pinned(pins, capacity):
    assert _normalized(fig9_depths(capacity)) == pins[f"fig9_{capacity}"]


def test_fig10_default_grids_pinned(pins):
    assert _normalized(generate_fig10_synthetic()) == pins["fig10"]


def test_fig10_d_fat_tree_grids_pinned(pins):
    computed = generate_fig10_synthetic(architectures=("D-Fat-Tree",))
    assert _normalized(computed) == pins["fig10_d_fat_tree"]


def test_fig10_virtual_dbb_sweep_within_rounding(pins):
    """Virtual and D-BB have ``parallelism * admission_interval ==
    weighted_query_latency`` exactly, so an in-flight cap that compares a
    chained sum of intervals against ``start + latency`` binds or not on
    float rounding alone.  Simulators that enforce the same cap in
    different but equivalent arithmetic may therefore differ in the last
    bits (a relative 1.3e-14 at most); this sweep is pinned at
    ``rel=1e-12`` rather than exactly."""
    computed = _normalized(_tight_sweep())
    expected = pins["fig10_tight"]
    assert set(computed) == set(expected)
    for name, grids in expected.items():
        got = computed[name]
        assert got["processing_ratios"] == grids["processing_ratios"]
        assert got["parallel_counts"] == grids["parallel_counts"]
        for key in ("overall_depth", "utilization"):
            for got_row, row in zip(got[key], grids[key], strict=True):
                assert got_row == pytest.approx(row, rel=1e-12, abs=0.0)


def test_schedule_queries_pinned(pins):
    computed = _normalized(_schedules())
    assert computed.keys() == pins["schedules"].keys()
    for key, expected in pins["schedules"].items():
        assert computed[key] == expected, key


def test_shared_memory_example_stdout_pinned(pins):
    assert _example_stdout() == pins["example_stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --write")
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(_normalized(_compute()), indent=1) + "\n")
    print(f"wrote {PINS}")

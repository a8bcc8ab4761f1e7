"""``report_digest``: byte-identical to the asdict encoding, and sensitive.

``report_digest`` writes a report's record streams straight to canonical
JSON.  The oracle below restates the original encoding (``asdict`` of
every record, the generic ``_canonical`` walk, one sorted-key
``json.dumps``) over the report's seven result members; every digest
must equal it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from repro.metrics.service_stats import ServedQuery
from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    WorkloadSpec,
    library_names,
    library_scenario,
)
from repro.sweep import run_sweep
from repro.sweep.engine import _canonical, _record_layout, report_digest

STREAMS = ("served", "windows", "rejected", "telemetry")
_RUN = dict(workers=0, sanitize=False, profile=False)


def _oracle_digest(report) -> str:
    """The original ``report_digest`` encoding (test oracle only)."""
    payload = {
        "served": [dataclasses.asdict(r) for r in report.served],
        "windows": [dataclasses.asdict(r) for r in report.windows],
        "stats": dataclasses.asdict(report.stats),
        "outputs": report.outputs,
        "rejected": [dataclasses.asdict(r) for r in report.rejected],
        "telemetry": [dataclasses.asdict(r) for r in report.telemetry],
        "retention": report.retention,
    }
    text = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _streams_spec(retention: str) -> ScenarioSpec:
    """A flash crowd on a replicated, bounded, deadline-shedding fleet
    with telemetry: every record stream is non-empty."""
    return ScenarioSpec(
        name="digest-streams",
        fleet=FleetSpec(
            capacity=16,
            shards=("Fat-Tree", "Fat-Tree"),
            placement="shortest-queue",
            functional=False,
        ),
        workload=WorkloadSpec(
            kind="flash-crowd",
            num_queries=150,
            mean_interarrival=6.0,
            crowd_time=300.0,
            crowd_size=60,
            crowd_spacing=0.5,
            num_tenants=2,
            deadline_layers=200.0,
            seed=7,
        ),
        policy=PolicySpec(
            admission="edf",
            max_queue_depth=6,
            shed_expired=True,
        ),
        run=RunSpec(
            retention=retention,
            telemetry_interval=100.0,
            **_RUN,
        ),
    )


def _functional_spec() -> ScenarioSpec:
    """Gate-level serving under full retention (complex ``outputs``)."""
    return ScenarioSpec(
        name="digest-functional",
        fleet=FleetSpec(
            capacity=8,
            shards=("Fat-Tree", "BB"),
            functional=True,
            data="random",
            data_seed=2,
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=24,
            mean_interarrival=3.0,
            addresses_per_query=2,
            seed=4,
        ),
        run=RunSpec(retention="full", **_RUN),
    )


def _slo_campaign(seed: int):
    """The benchmark's 24-point slo-campaign sweep (loaded by file path;
    ``perfbench`` is not a package on the test path)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.slo_campaign(seed)


@pytest.fixture(scope="module")
def streams_report():
    report = _streams_spec("full").execute()
    assert all(getattr(report, stream) for stream in STREAMS)
    return report


@pytest.fixture(scope="module")
def functional_report():
    report = _functional_spec().execute()
    assert report.outputs
    return report


# ----------------------------------------------------------------- parity
@pytest.mark.parametrize("name", library_names())
def test_library_digest_matches_oracle(name):
    report = library_scenario(name).execute()
    assert report_digest(report) == _oracle_digest(report)


@pytest.mark.parametrize("seed", [1, 2])
def test_slo_campaign_digests_match_oracle(seed):
    points = _slo_campaign(seed).expand()
    assert len(points) == 24
    result = run_sweep(points, pool_size=0, keep_reports=True)
    for row in result.rows:
        assert row["status"] == "ok", row["error"]
        report = result.reports[row["point"]]
        assert row["report_digest"] == _oracle_digest(report), row["name"]


def test_functional_digest_matches_oracle(functional_report):
    amplitudes = next(iter(functional_report.outputs.values()))
    assert all(isinstance(value, complex) for value in amplitudes.values())
    assert report_digest(functional_report) == (
        _oracle_digest(functional_report)
    )


@pytest.mark.parametrize("retention", ["full"])
def test_telemetry_digest_matches_oracle(retention):
    report = _streams_spec(retention).execute()
    assert report.retention == retention
    assert report.rejected and report.telemetry
    assert report_digest(report) == _oracle_digest(report)


def test_empty_report_digest_matches_oracle(streams_report):
    empty = dataclasses.replace(
        streams_report, served=[], windows=[], rejected=[],
        telemetry=[], retention="none",
    )
    assert report_digest(empty) == _oracle_digest(empty)


# ------------------------------------------------------- fail loudly
@dataclasses.dataclass(frozen=True)
class _TableRecord:
    """A record whose field admits a non-``str``-keyed dict."""

    time: float
    table: dict[int, float]


@dataclasses.dataclass(frozen=True)
class _OneFieldRecord:
    time: float


def test_record_layout_is_decided_per_class():
    names, _ = _record_layout(ServedQuery)
    assert list(names) == sorted(names)
    assert _record_layout(ServedQuery) is _record_layout(ServedQuery)
    assert _record_layout(_TableRecord) is None


def test_non_scalar_record_class_takes_the_generic_walk(streams_report):
    report = dataclasses.replace(
        streams_report,
        telemetry=[_TableRecord(1.5, {2: 0.5, 10: 0.25})],
        windows=[_OneFieldRecord(2.0), _OneFieldRecord(3.0)],
    )
    assert report_digest(report) == _oracle_digest(report)


def test_mixed_record_classes_raise_naming_the_stream(streams_report):
    mixed = [*streams_report.rejected, streams_report.served[0]]
    report = dataclasses.replace(streams_report, rejected=mixed)
    with pytest.raises(TypeError, match="'rejected'"):
        report_digest(report)


# ----------------------------------------------------------- sensitivity
def _nudged(record):
    """``record`` with its first float field moved up by one ulp."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if type(value) is float:
            return dataclasses.replace(
                record, **{field.name: math.nextafter(value, math.inf)}
            )
    raise AssertionError(f"{type(record).__name__} carries no float")


@pytest.mark.parametrize("stream", STREAMS)
def test_one_ulp_in_one_record_changes_the_digest(streams_report, stream):
    records = list(getattr(streams_report, stream))
    records[len(records) // 2] = _nudged(records[len(records) // 2])
    nudged = dataclasses.replace(streams_report, **{stream: records})
    assert report_digest(nudged) != report_digest(streams_report)
    assert report_digest(nudged) == _oracle_digest(nudged)


@pytest.mark.parametrize("stream", STREAMS)
def test_swapping_adjacent_records_changes_the_digest(streams_report, stream):
    records = list(getattr(streams_report, stream))
    i = next(
        i for i in range(len(records) - 1) if records[i] != records[i + 1]
    )
    records[i], records[i + 1] = records[i + 1], records[i]
    swapped = dataclasses.replace(streams_report, **{stream: records})
    assert report_digest(swapped) != report_digest(streams_report)


@pytest.mark.parametrize("stream", STREAMS)
def test_dropping_one_record_changes_the_digest(streams_report, stream):
    records = list(getattr(streams_report, stream))
    del records[len(records) // 2]
    dropped = dataclasses.replace(streams_report, **{stream: records})
    assert report_digest(dropped) != report_digest(streams_report)


def test_one_output_amplitude_changes_the_digest(functional_report):
    outputs = {
        query: dict(amplitudes)
        for query, amplitudes in functional_report.outputs.items()
    }
    amplitudes = outputs[min(outputs)]
    key = min(amplitudes)
    value = complex(amplitudes[key])
    amplitudes[key] = complex(math.nextafter(value.real, math.inf), value.imag)
    changed = dataclasses.replace(functional_report, outputs=outputs)
    assert report_digest(changed) != report_digest(functional_report)
    assert report_digest(changed) == _oracle_digest(changed)

"""Block-folded observation equals the per-record fold, bit for bit.

:class:`StreamingServiceAggregator` appends each served and window
record's scalars to a 1024-row block and folds a block in array
operations when it fills and before every read.  The oracle here is the
per-record fold the blocks replaced: one :meth:`StreamingStat.add` per
value and one :meth:`LogBucketSketch.add` per latency, written into a
fresh aggregator's accumulators.  Every comparison is on ``repr``, so a
moved last bit, a signed zero or an int-for-float fails it.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from repro.metrics.service_stats import (
    REJECT_DEADLINE_EXPIRED,
    REJECT_FIDELITY,
    REJECT_QUEUE_FULL,
    RejectedQuery,
    ServedQuery,
    WindowRecord,
)
from repro.metrics.sinks import ListSink
from repro.metrics.streaming import (
    _BLOCK_ROWS,
    _GAMMA,
    _LOG_GAMMA,
    StreamingServiceAggregator,
    _bucket_keys,
    _GroupAggregate,
    merge_service_aggregators,
)
from repro.metrics import streaming
from repro.scenarios import FleetSpec, RunSpec, ScenarioSpec, WorkloadSpec

#: Two architectures over five shards: shard 4 serves under both, so the
#: first record's architecture decides its row.
_ARCHITECTURES = {0: "Fat-Tree", 1: "BB", 2: "Fat-Tree", 3: "BB"}


# ------------------------------------------------------------------- oracle
def _oracle_served(aggregator: StreamingServiceAggregator, record) -> None:
    """Fold one served record value by value (the pre-block observer)."""
    aggregator.served_count += 1
    finish = record.finish_layer
    if finish > aggregator.makespan_layers:
        aggregator.makespan_layers = finish
    latency = finish - record.request_time
    queue_delay = record.admit_layer - record.request_time
    has_deadline = record.deadline is not None
    missed_deadline = has_deadline and finish > record.deadline
    has_slo = record.min_fidelity is not None
    missed_slo = False
    if has_slo:
        achieved = record.predicted_fidelity
        if achieved is None:
            achieved = record.fidelity
        missed_slo = achieved is not None and achieved < record.min_fidelity
    shard = aggregator._shards.setdefault(record.shard, _GroupAggregate())
    if not shard.architecture:
        shard.architecture = record.architecture
    backend = aggregator._backends.setdefault(
        record.architecture, _GroupAggregate()
    )
    backend.shard_ids.add(record.shard)
    tenant = aggregator._tenant(record.tenant)
    for group in (aggregator._global, tenant, shard, backend):
        group.queries += 1
        group.latency.add(latency)
        group.queue_delay.add(queue_delay)
        if record.fidelity is not None:
            group.fidelity.add(record.fidelity)
        group.deadline_demand += has_deadline
        group.deadline_misses += missed_deadline
        group.slo_demand += has_slo
        group.slo_misses += missed_slo
    aggregator._latency_sketch.add(latency)
    aggregator._tenant_sketches[record.tenant].add(latency)


def _oracle_window(aggregator: StreamingServiceAggregator, record) -> None:
    for table, key in (
        (aggregator._shards, record.shard),
        (aggregator._backends, record.architecture),
    ):
        group = table.setdefault(key, _GroupAggregate())
        group.windows += 1
        group.batch_total += record.batch_size
        group.busy_layers += record.total_layers


def _oracle(records) -> StreamingServiceAggregator:
    """A fresh aggregator fed ``records`` one value at a time."""
    aggregator = StreamingServiceAggregator()
    for record in records:
        if isinstance(record, ServedQuery):
            _oracle_served(aggregator, record)
        elif isinstance(record, WindowRecord):
            _oracle_window(aggregator, record)
        else:
            aggregator.observe_rejected(record)
    return aggregator


def _feed(aggregator, records) -> StreamingServiceAggregator:
    """Feed ``records`` through the aggregator's public observers."""
    observers = {
        ServedQuery: aggregator.observe_served,
        WindowRecord: aggregator.observe_window,
        RejectedQuery: aggregator.observe_rejected,
    }
    for record in records:
        observers[type(record)](record)
    return aggregator


def _observed(records) -> StreamingServiceAggregator:
    return _feed(StreamingServiceAggregator(), records)


def _state(aggregator: StreamingServiceAggregator) -> str:
    """Every accumulator of a folded aggregator, as one exact string."""
    aggregator._fold()

    def group(g: _GroupAggregate) -> tuple:
        stats = tuple(
            (s.count, s.total, s.minimum, s.maximum)
            for s in (g.latency, g.queue_delay, g.fidelity)
        )
        return (
            g.queries,
            stats,
            g.deadline_demand,
            g.deadline_misses,
            g.slo_demand,
            g.slo_misses,
            g.windows,
            g.batch_total,
            g.busy_layers,
            g.architecture,
            sorted(g.shard_ids),
            g.shed,
            g.fidelity_rejected,
        )

    def sketch(s) -> tuple:
        return (s.count, s.zero_count, sorted(s.buckets.items()))

    return repr(
        (
            aggregator.served_count,
            aggregator.rejected_count,
            aggregator.shed_count,
            aggregator.fidelity_rejected_count,
            aggregator.makespan_layers,
            group(aggregator._global),
            sketch(aggregator._latency_sketch),
            sorted((k, group(g)) for k, g in aggregator._tenants.items()),
            sorted((k, sketch(s)) for k, s in aggregator._tenant_sketches.items()),
            sorted((k, group(g)) for k, g in aggregator._shards.items()),
            sorted((k, group(g)) for k, g in aggregator._backends.items()),
        )
    )


def _stats(aggregator: StreamingServiceAggregator) -> str:
    return repr(aggregator.to_stats({0: 3, 2: 7}, clops=2.5e6))


def _records(count: int, seed: int = 0) -> list:
    """``count`` served records with windows and refusals interleaved.

    Five tenants, five shards, two architectures; fidelities that are
    ``None``; deadlines that are absent, met and missed; SLOs judged on the
    predicted fidelity, on the measured one (predicted ``None``) and on
    neither; a few zero latencies.
    """
    rng = random.Random(seed)
    records: list = []
    clock = 0.0
    for query_id in range(count):
        clock += rng.expovariate(0.2)
        shard = rng.randrange(5)
        architecture = _ARCHITECTURES.get(shard, rng.choice(("Fat-Tree", "BB")))
        admit = clock + rng.choice((0.0, rng.uniform(0.0, 40.0)))
        finish = admit + rng.uniform(1.0, 60.0)
        if rng.random() < 0.02:
            admit = finish = clock
        records.append(
            ServedQuery(
                query_id=query_id,
                tenant=rng.randrange(5),
                shard=shard,
                request_time=clock,
                admit_layer=admit,
                start_layer=admit,
                finish_layer=finish,
                fidelity=rng.choice((None, rng.uniform(0.9, 1.0))),
                architecture=architecture,
                deadline=rng.choice((None, clock + rng.uniform(10.0, 90.0))),
                predicted_fidelity=rng.choice((None, rng.uniform(0.9, 1.0))),
                min_fidelity=rng.choice((None, 0.95)),
            )
        )
        if rng.random() < 0.6:
            records.append(
                WindowRecord(
                    shard=shard,
                    admit_layer=admit,
                    batch_size=rng.randrange(1, 4),
                    interval=12,
                    total_layers=rng.uniform(10.0, 50.0),
                    architecture=architecture,
                )
            )
        if rng.random() < 0.05:
            records.append(
                RejectedQuery(
                    query_id=count + query_id,
                    tenant=rng.randrange(5),
                    shard=shard,
                    time=clock,
                    reason=rng.choice(
                        (REJECT_QUEUE_FULL, REJECT_DEADLINE_EXPIRED, REJECT_FIDELITY)
                    ),
                )
            )
    return records


# ------------------------------------------------------------------ parity
@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 5000])
def test_blocks_equal_the_per_record_fold(count):
    records = _records(count, seed=count)
    blocks, oracle = _observed(records), _oracle(records)
    assert blocks.served_count == count
    assert _state(blocks) == _state(oracle)
    if count:
        assert _stats(blocks) == _stats(oracle)
    else:
        with pytest.raises(ValueError):
            blocks.to_stats()


def test_records_cover_every_accounting_branch():
    served = [r for r in _records(5000) if isinstance(r, ServedQuery)]
    assert len({r.tenant for r in served}) >= 3
    assert len({r.shard for r in served}) >= 3
    assert {r.architecture for r in served} == {"Fat-Tree", "BB"}
    assert any(r.fidelity is None for r in served)
    assert any(r.deadline is not None and r.finish_layer > r.deadline for r in served)
    assert any(r.deadline is not None and r.finish_layer <= r.deadline for r in served)
    assert any(
        r.min_fidelity is not None and r.predicted_fidelity is None for r in served
    )
    assert any(r.finish_layer == r.request_time for r in served)
    stats = _observed(_records(5000)).to_stats()
    assert 0 < stats.deadline_misses and 0 < stats.fidelity_slo_misses


def test_full_retention_fold_equals_the_per_record_fold():
    records = _records(2500, seed=3)
    folded = StreamingServiceAggregator._folded(
        *(
            [r for r in records if isinstance(r, kind)]
            for kind in (ServedQuery, WindowRecord, RejectedQuery)
        )
    )
    assert not folded._served_rows and not folded._window_rows
    assert _state(folded) == _state(_oracle(records))


def test_mid_stream_read_then_more_records():
    records = _records(3000, seed=5)
    cut = 1500
    blocks = _observed(records[:cut])
    # A read folds the open block part-way; the stream then resumes.
    assert _stats(blocks) == _stats(_oracle(records[:cut]))
    _feed(blocks, records[cut:])
    assert _stats(blocks) == _stats(_oracle(records))
    assert _state(blocks) == _state(_oracle(records))


def test_shard_order_merge_of_parts_with_open_blocks():
    records = _records(4000, seed=9)
    parts = [
        [r for r in records if r.shard == shard] for shard in range(5)
    ]
    block_parts = [_observed(part) for part in parts]
    assert all(part._served_rows for part in block_parts)
    merged = merge_service_aggregators(block_parts)
    oracle = merge_service_aggregators([_oracle(part) for part in parts])
    assert _stats(merged) == _stats(oracle)
    assert _state(merged) == _state(oracle)


def test_pickle_round_trip_folds_open_blocks():
    records = _records(1500, seed=11)
    blocks = _observed(records)
    assert blocks._served_rows and blocks._window_rows
    restored = pickle.loads(pickle.dumps(blocks))
    assert not restored._served_rows and not restored._window_rows
    assert _stats(restored) == _stats(_oracle(records))
    assert _state(restored) == _state(blocks)


def test_one_ulp_in_one_latency_changes_the_stats():
    records = _records(5000, seed=13)
    served = [r for r in records if isinstance(r, ServedQuery)]
    worst = max(served, key=lambda r: r.finish_layer - r.request_time)
    bumped = [
        dataclasses.replace(
            r, finish_layer=math.nextafter(r.finish_layer, math.inf)
        )
        if r is worst
        else r
        for r in records
    ]
    assert _stats(_observed(bumped)) == _stats(_oracle(bumped))
    assert _stats(_observed(bumped)) != _stats(_observed(records))


def test_a_full_block_folds_and_the_record_is_not_held():
    served = [r for r in _records(1100, seed=1) if isinstance(r, ServedQuery)]
    aggregator = _observed(served[: _BLOCK_ROWS + 10])
    assert _BLOCK_ROWS == 1024
    assert aggregator.served_count == _BLOCK_ROWS + 10
    assert len(aggregator._served_rows) == 10
    held = {type(value) for row in aggregator._served_rows for value in row}
    assert held <= {int, float, str, type(None)}


# -------------------------------------------------------------- sketch keys
def test_vectorised_sketch_keys_equal_math_log_at_bucket_boundaries():
    values = []
    for k in range(-50, 2001):
        boundary = _GAMMA**k
        values += [
            math.nextafter(boundary, 0.0),
            boundary,
            math.nextafter(boundary, math.inf),
        ]
    rng = np.random.default_rng(0)
    values += rng.lognormal(3.0, 2.0, 20_000).tolist()
    values += rng.uniform(0.5, 2.0, 5_000).tolist()
    values += [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324]
    keys = _bucket_keys(np.array(values))
    assert keys.tolist() == [
        math.ceil(math.log(value) / _LOG_GAMMA) for value in values
    ]


class _LogOffByOneUlp:
    """numpy, except that ``log`` rounds one ulp away from ``math.log``."""

    def __init__(self, direction: float) -> None:
        self.direction = direction

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, values):
        return np.nextafter(np.log(values), self.direction)


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_sketch_keys_survive_a_last_bit_log_difference(monkeypatch, direction):
    # np.log may round differently from math.log; keys next to a bucket
    # boundary are then recomputed with math.log.
    values = [_GAMMA**k for k in range(-50, 2001)]
    expected = [math.ceil(math.log(value) / _LOG_GAMMA) for value in values]
    monkeypatch.setattr(streaming, "np", _LogOffByOneUlp(direction))
    assert _bucket_keys(np.array(values)).tolist() == expected


def test_non_positive_latencies_go_to_the_zero_count():
    base = _records(1, seed=2)[0]
    records = [
        dataclasses.replace(base, query_id=i, finish_layer=base.request_time + d)
        for i, d in enumerate((0.0, -1.0, -0.0, 2.0))
    ]
    blocks = _observed(records)
    blocks._fold()
    assert blocks._latency_sketch.zero_count == 3
    assert blocks._latency_sketch.count == 4
    assert _state(blocks) == _state(_oracle(records))


# ------------------------------------------------------------ engine runs
def _stream_spec(workers: int) -> ScenarioSpec:
    """poisson-stream's shape at 5,000 queries, partitionable."""
    return ScenarioSpec(
        name="poisson-stream-small",
        fleet=FleetSpec(
            capacity=8, shards=("Fat-Tree", "Fat-Tree"), functional=False
        ),
        workload=WorkloadSpec(
            kind="poisson",
            num_queries=5000,
            mean_interarrival=14.0,
            addresses_per_query=1,
            num_tenants=4,
            seed=1,
            delivery="partitioned",
        ),
        run=RunSpec(retention="none", telemetry_interval=700.0, workers=workers),
    )


def test_engine_stats_equal_the_oracle_for_every_worker_count():
    sink = ListSink()
    serial = _stream_spec(0).execute(sink=sink)
    records = sink.records
    depths = {
        shard: row.max_queue_depth for shard, row in serial.stats.per_shard.items()
    }
    assert repr(serial.stats) == repr(_oracle(records).to_stats(depths))

    # Each worker folds its shards' records; the parent merges in shard order.
    parts = [[r for r in records if r.shard == shard] for shard in (0, 1)]
    merged_oracle = repr(
        merge_service_aggregators([_oracle(part) for part in parts]).to_stats(
            depths
        )
    )
    reports = {w: _stream_spec(w).execute() for w in (1, 2, 4)}
    for workers, report in reports.items():
        assert report.parallel is not None and report.parallel.partitions == 2
        assert repr(report.stats) == merged_oracle, workers
    # Worker counts differ from the serial run only in the last bits of
    # the means (sums in a different order); counts, extrema and
    # percentiles are equal.
    parallel = reports[2].stats
    for field in dataclasses.fields(parallel):
        ours, theirs = getattr(serial.stats, field.name), getattr(parallel, field.name)
        if field.name.startswith("mean_") and ours is not None:
            assert ours == pytest.approx(theirs, rel=1e-12)
        elif field.name not in ("per_tenant", "per_shard", "per_backend"):
            assert ours == theirs, field.name


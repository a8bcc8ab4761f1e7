"""simlint: each SIM rule pinned on violating and clean fixtures.

Every rule gets at least one fixture it must flag and one it must pass;
the framework (suppressions, baseline, CLI, JSON output) is exercised
end-to-end; and the acceptance gate — the real tree lints clean with an
empty baseline — runs as a test so it can never silently regress.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.simlint import (  # noqa: E402
    all_rules,
    lint_paths,
    lint_source,
    load_baseline,
)


def codes(result):
    return [finding.rule for finding in result.findings]


# -------------------------------------------------------------------- registry
def test_all_eight_rules_registered():
    assert sorted(all_rules()) == [
        "SIM001",
        "SIM002",
        "SIM003",
        "SIM004",
        "SIM005",
        "SIM006",
        "SIM007",
        "SIM008",
    ]


# --------------------------------------------------------------------- SIM001
def test_sim001_flags_wall_clock_and_unseeded_rng():
    result = lint_source(
        "import time, random\n"
        "def stamp():\n"
        "    return time.time() + random.random()\n",
        rules=["SIM001"],
    )
    messages = " ".join(f.message for f in result.findings)
    assert codes(result) == ["SIM001", "SIM001"]
    assert "wall-clock" in messages and "unseeded" in messages


def test_sim001_flags_set_iteration_feeding_order():
    result = lint_source(
        "def schedule(batch):\n"
        "    pending = set(batch)\n"
        "    for query in pending:\n"
        "        emit(query)\n",
        rules=["SIM001"],
    )
    assert codes(result) == ["SIM001"]
    assert "hash-ordered" in result.findings[0].message


def test_sim001_flags_keys_iteration():
    result = lint_source(
        "def walk(d):\n"
        "    for k in d.keys():\n"
        "        emit(k)\n",
        rules=["SIM001"],
    )
    assert codes(result) == ["SIM001"]


def test_sim001_clean_sorted_sets_and_seeded_rng():
    result = lint_source(
        "import random\n"
        "def schedule(batch):\n"
        "    rng = random.Random(42)\n"
        "    for query in sorted(set(batch)):\n"
        "        emit(query, rng.random())\n"
        "    total = sum(x for x in set(batch))\n"
        "    for k in sorted(d.keys()):\n"
        "        emit(k)\n",
        rules=["SIM001"],
    )
    assert result.ok, codes(result)


# --------------------------------------------------------------------- SIM002
def test_sim002_flags_push_into_the_past():
    # ServiceEngine owns the clock, so only the dataflow check can fire here.
    result = lint_source(
        "class ServiceEngine:\n"
        "    def on_drain(self, now):\n"
        "        self._heap.push(now - 1.0, object())\n",
        rules=["SIM002"],
    )
    assert codes(result) == ["SIM002"]
    assert "virtual time" in result.findings[0].message


def test_sim002_flags_foreign_clock_advance_and_bare_heap_keys():
    result = lint_source(
        "import heapq\n"
        "class Rogue:\n"
        "    def advance(self, t):\n"
        "        self._now = t\n"
        "def enqueue(heap, item):\n"
        "    heapq.heappush(heap, (item.time, item))\n",
        rules=["SIM002"],
    )
    assert codes(result) == ["SIM002", "SIM002"]


def test_sim002_clean_forward_scheduling():
    result = lint_source(
        "import heapq\n"
        "class ServiceEngine:\n"
        "    def _execute(self, shard, admit):\n"
        "        self._busy_until[shard] = admit + self.total\n"
        "        self._heap.push(self._busy_until[shard], object())\n"
        "    def _on_tick(self, now):\n"
        "        self._heap.push(now + self.period, object())\n"
        "    def schedule_think(self, time):\n"
        "        self._heap.push(max(0.0, time), object())\n"
        "def enqueue(heap, item, sequence):\n"
        "    heapq.heappush(heap, (item.time, sequence, item))\n",
        rules=["SIM002"],
    )
    assert result.ok, [f.message for f in result.findings]


# --------------------------------------------------------------------- SIM003
_CACHE_VIOLATION = """
class Executor:
    def __init__(self, data):
        self.data = data
        self._schedule_cache = {}

    def schedule(self, n):
        if n not in self._schedule_cache:
            self._schedule_cache[n] = build(self.data, n)
        return self._schedule_cache[n]

    def write_data(self, address, value):
        self.data[address] = value
"""


def test_sim003_flags_mutation_without_invalidation():
    result = lint_source(_CACHE_VIOLATION, rules=["SIM003"])
    assert codes(result) == ["SIM003"]
    assert "write_data" in result.findings[0].message
    assert "_schedule_cache" in result.findings[0].message


def test_sim003_clean_when_mutator_invalidates():
    fixed = _CACHE_VIOLATION + "        self._schedule_cache.clear()\n"
    assert lint_source(fixed, rules=["SIM003"]).ok


def test_sim003_sees_lazy_dict_caches_and_inherited_mutators():
    source = """
class Mixin:
    def predictions(self, n):
        cache = self.__dict__.setdefault("_prediction_cache", {})
        if n not in cache:
            cache[n] = predict(self.model, n)
        return cache[n]

class Backend(Mixin):
    def write_memory(self, address, value):
        self.model.write_memory(address, value)
"""
    result = lint_source(source, rules=["SIM003"])
    assert codes(result) == ["SIM003"]
    assert "_prediction_cache" in result.findings[0].message

    fixed = source + "        self.__dict__.pop('_prediction_cache', None)\n"
    assert lint_source(fixed, rules=["SIM003"]).ok


def test_sim003_clean_when_invalidation_is_transitive():
    source = """
class Backend:
    def fill(self, n):
        self._f_cache = {n: predict(self.model, n)}

    def _invalidate(self):
        self._f_cache = {}

    def write_memory(self, address, value):
        self.model.write_memory(address, value)
        self._invalidate()
"""
    assert lint_source(source, rules=["SIM003"]).ok


# --------------------------------------------------------------------- SIM004
_EVENTS_TEMPLATE = """
from typing import ClassVar, Union

class Arrival:
    PRIORITY: ClassVar[int] = 0

class Drain:
    PRIORITY: ClassVar[int] = {drain_priority}

Event = Union[Arrival, Drain]
"""


def test_sim004_flags_duplicate_priorities():
    result = lint_source(
        _EVENTS_TEMPLATE.format(drain_priority=0), rules=["SIM004"]
    )
    assert codes(result) == ["SIM004"]
    assert "collides" in result.findings[0].message


def test_sim004_flags_union_member_without_priority():
    source = (
        "from typing import ClassVar, Union\n"
        "class Arrival:\n"
        "    PRIORITY: ClassVar[int] = 0\n"
        "class Stray:\n"
        "    pass\n"
        "Event = Union[Arrival, Stray]\n"
    )
    result = lint_source(source, rules=["SIM004"])
    assert codes(result) == ["SIM004"]
    assert "Stray" in result.findings[0].message


def test_sim004_pins_heap_key_shape():
    source = (
        "import heapq\n"
        "def push(heap, time, event, seq):\n"
        "    heapq.heappush(heap, (time, seq, event.PRIORITY, event))\n"
    )
    result = lint_source(source, rules=["SIM004"])
    assert codes(result) == ["SIM004"]
    assert "pinned" in result.findings[0].message


def test_sim004_pins_rank_key_shape():
    """A priority bound to a name (the event heap's rank) is still
    tracked into the key."""
    source = (
        "import heapq\n"
        "def push(heap, time, event, seq):\n"
        "    rank = event.PRIORITY\n"
        "    heapq.heappush(heap, (time, seq, rank, event))\n"
    )
    result = lint_source(source, rules=["SIM004"])
    assert codes(result) == ["SIM004"]
    assert "pinned" in result.findings[0].message


def test_sim004_flags_priority_outside_round():
    source = _EVENTS_TEMPLATE.format(drain_priority=8) + "ROUND = 8\n"
    result = lint_source(source, rules=["SIM004"])
    assert codes(result) == ["SIM004"]
    assert "ROUND=8" in result.findings[0].message


def test_sim004_clean_registry_and_key():
    clean = _EVENTS_TEMPLATE.format(drain_priority=1) + (
        "import heapq\n"
        "def push(heap, time, event, sequence):\n"
        "    heapq.heappush(heap, (time, event.PRIORITY, sequence, event))\n"
        "ROUND = 8\n"
        "def push_ranked(heap, time, event, sequence):\n"
        "    rank = event.PRIORITY\n"
        "    heapq.heappush(heap, (time, rank, sequence, event))\n"
    )
    assert lint_source(clean, rules=["SIM004"]).ok


# --------------------------------------------------------------------- SIM005
def test_sim005_flags_mutated_module_global():
    result = lint_source(
        "REGISTRY = {}\n"
        "def register(name, spec):\n"
        "    REGISTRY[name] = spec\n",
        rules=["SIM005"],
    )
    assert codes(result) == ["SIM005"]
    assert "mutated" in result.findings[0].message


def test_sim005_flags_class_body_mutable():
    result = lint_source(
        "class Shard:\n"
        "    pending = []\n",
        rules=["SIM005"],
    )
    assert codes(result) == ["SIM005"]
    assert "shared across every instance" in result.findings[0].message


def test_sim005_clean_frozen_and_readonly_state():
    result = lint_source(
        "from dataclasses import dataclass, field\n"
        "KINDS = frozenset({'a', 'b'})\n"
        "NAMES = {'fifo': 1, 'lifo': 2}\n"  # read-only: never mutated
        "@dataclass\n"
        "class Queue:\n"
        "    items: list = field(default_factory=list)\n"
        "def lookup(name):\n"
        "    return NAMES[name]\n",
        rules=["SIM005"],
    )
    assert result.ok, [f.message for f in result.findings]
    assert any("read-only" in item for item in result.inventory)


# --------------------------------------------------------------------- SIM006
def test_sim006_flags_unsuffixed_duration_field_and_param():
    result = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Stats:\n"
        "    latency: float\n"
        "def wait(delay: float) -> None:\n"
        "    pass\n",
        rules=["SIM006"],
    )
    assert codes(result) == ["SIM006", "SIM006"]


def test_sim006_flags_mixed_unit_arithmetic():
    result = lint_source(
        "def convert(latency_ns, latency_layers):\n"
        "    return latency_ns + latency_layers\n",
        rules=["SIM006"],
    )
    assert codes(result) == ["SIM006"]
    assert "mix units" in result.findings[0].message


def test_sim006_clean_suffixed_and_weighted_names():
    result = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Stats:\n"
        "    latency_layers: float\n"
        "    weighted_latency: float\n"
        "    queue_delay_layers: float\n"
        "def wait(delay_seconds: float, latency_ns: int) -> None:\n"
        "    total_layers = 1.0\n"
        "    span = total_layers + weighted_total\n",  # same unit family
        rules=["SIM006"],
    )
    assert result.ok, [f.message for f in result.findings]


# --------------------------------------------------------------------- SIM007
def test_sim007_flags_mutated_module_global_cache():
    result = lint_source(
        "_SCHEDULE_CACHE = {}\n"
        "def lookup(key, build):\n"
        "    if key not in _SCHEDULE_CACHE:\n"
        "        _SCHEDULE_CACHE[key] = build()\n"
        "    return _SCHEDULE_CACHE[key]\n",
        rules=["SIM007"],
    )
    assert codes(result) == ["SIM007"]
    assert "ScheduleCacheRegistry" in result.findings[0].message


def test_sim007_flags_unseeded_numpy_rng():
    result = lint_source(
        "import numpy as np\n"
        "def jitter():\n"
        "    return np.random.default_rng().normal()\n",
        rules=["SIM007"],
    )
    assert codes(result) == ["SIM007"]
    assert "fork-divergent" in result.findings[0].message


def test_sim007_flags_pid_and_time_seeded_rng():
    result = lint_source(
        "import os, random, time\n"
        "from numpy.random import default_rng\n"
        "def make_rngs():\n"
        "    a = random.Random(os.getpid())\n"
        "    b = default_rng(seed=int(time.time()))\n"
        "    return a, b\n",
        rules=["SIM007"],
    )
    assert codes(result) == ["SIM007", "SIM007"]
    messages = " ".join(f.message for f in result.findings)
    assert "os.getpid" in messages and "time.time" in messages


def test_sim007_clean_registry_and_stable_seeds():
    result = lint_source(
        "from numpy.random import default_rng\n"
        "from repro.schedule_cache import default_registry\n"
        "REGISTRY = default_registry()\n"
        "KIND_TABLE = {'fat-tree': 1, 'bb': 2}\n"  # read-only: fork-safe
        "def sampler(shard):\n"
        "    return default_rng(1000 + shard)\n"
        "def lookup(kind):\n"
        "    return KIND_TABLE[kind]\n",
        rules=["SIM007"],
    )
    assert result.ok, [f.message for f in result.findings]


# --------------------------------------------------------------------- SIM008
_HOT_LOOP_ITERATION = (
    "def window_fidelities(start_offsets, finish_offsets):\n"
    "    out = []\n"
    "    for start, finish in zip(start_offsets, finish_offsets):\n"
    "        out.append(finish - start)\n"
    "    return out\n"
)

_HOT_LOOP_INDEXING = (
    "def window_fidelities(start_offsets, finish_offsets):\n"
    "    out = []\n"
    "    for s in range(len(start_offsets)):\n"
    "        out.append(finish_offsets[s] - start_offsets[s])\n"
    "    return out\n"
)


def test_sim008_flags_slot_loops_in_hot_modules():
    for fixture in (_HOT_LOOP_ITERATION, _HOT_LOOP_INDEXING):
        result = lint_source(fixture, filename="noise.py", rules=["SIM008"])
        assert codes(result) == ["SIM008"], fixture
        assert "array expression" in result.findings[0].message


def test_sim008_flags_slot_comprehension():
    result = lint_source(
        "def degrade(fidelities, penalty):\n"
        "    return tuple(f * penalty for f in fidelities)\n",
        filename="analytic.py",
        rules=["SIM008"],
    )
    assert codes(result) == ["SIM008"]


def test_sim008_ignores_modules_outside_the_hot_set():
    result = lint_source(_HOT_LOOP_ITERATION, rules=["SIM008"])
    assert result.ok
    result = lint_source(
        _HOT_LOOP_INDEXING, filename="service.py", rules=["SIM008"]
    )
    assert result.ok


def test_sim008_exempts_pinned_scalar_oracles():
    exempt = _HOT_LOOP_INDEXING.replace(
        "def window_fidelities(", "def window_fidelities_scalar("
    )
    assert lint_source(exempt, filename="noise.py", rules=["SIM008"]).ok
    reference = _HOT_LOOP_ITERATION.replace(
        "def window_fidelities(", "def offsets_reference("
    )
    assert lint_source(reference, filename="fat_tree.py", rules=["SIM008"]).ok


def test_sim008_clean_non_slot_loops_and_vector_math():
    result = lint_source(
        "import numpy as np\n"
        "def run_window(requests):\n"
        "    outputs = [execute(request) for request in requests]\n"
        "    for occupancy in range(1, 4):\n"
        "        warm(occupancy)\n"
        "    return outputs\n"
        "def vectorized(start_offsets, finish_offsets):\n"
        "    starts = np.asarray(start_offsets)\n"
        "    return np.asarray(finish_offsets) - starts\n",
        filename="encoded.py",
        rules=["SIM008"],
    )
    assert result.ok, [f.message for f in result.findings]


_BLOCK_ROW_LOOP = (
    "import numpy as np\n"
    "def fold(stat, latencies):\n"
    "    for latency in latencies:\n"
    "        stat.add(latency)\n"
    "def fold_rows(stat, latencies):\n"
    "    for row in range(len(latencies)):\n"
    "        stat.add(latencies[row])\n"
    "def fold_block(stat, latencies):\n"
    "    stat.total = np.add.accumulate(latencies)[-1]\n"
)


def test_sim008_flags_per_row_loops_in_the_streaming_aggregator():
    result = lint_source(
        _BLOCK_ROW_LOOP, filename="src/repro/metrics/streaming.py", rules=["SIM008"]
    )
    assert codes(result) == ["SIM008", "SIM008"]
    assert [f.line for f in result.findings] == [3, 6]
    # Only that metrics module is hot; a loop elsewhere stays legal.
    for other in ("src/repro/metrics/service_stats.py", "streaming.py"):
        assert lint_source(_BLOCK_ROW_LOOP, filename=other, rules=["SIM008"]).ok


def test_sim008_suppressible_per_line():
    suppressed = (
        "def interleave(fidelities):\n"
        "    for f in fidelities:  # simlint: disable=SIM008\n"
        "        emit(f)\n"
    )
    result = lint_source(suppressed, filename="noise.py", rules=["SIM008"])
    assert result.ok
    assert result.suppressed == 1


# ------------------------------------------------------------------ framework
def test_line_suppression_comment():
    result = lint_source(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # simlint: disable=SIM001\n",
        rules=["SIM001"],
    )
    assert result.ok
    assert result.suppressed == 1


def test_file_level_suppression():
    result = lint_source(
        "# simlint: disable-file=SIM005\n"
        "REGISTRY = {}\n"
        "def register(name, spec):\n"
        "    REGISTRY[name] = spec\n",
        rules=["SIM005"],
    )
    assert result.ok
    assert result.suppressed == 1


def test_suppression_is_per_rule():
    result = lint_source(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # simlint: disable=SIM006\n",
        rules=["SIM001"],
    )
    assert codes(result) == ["SIM001"]


def test_unknown_rule_selection_raises():
    with pytest.raises(KeyError):
        lint_source("x = 1\n", rules=["SIM999"])


# ------------------------------------------------------------------------ CLI
def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tools.simlint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_json_output_on_violating_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTAMP = time.time()\n")
    proc = _run_cli(str(bad), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["counts"] == {"SIM001": 1}
    assert not payload["ok"]


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("SIM001", "SIM006"):
        assert code in proc.stdout


def test_cli_unknown_path_is_usage_error(tmp_path):
    proc = _run_cli(str(tmp_path / "missing_dir"))
    assert proc.returncode == 2


# ------------------------------------------------------------ acceptance gate
def test_baseline_allowlist_is_empty():
    assert load_baseline() == set()


def test_src_tree_is_simlint_clean():
    result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.ok, "\n".join(f.render() for f in result.findings)
    assert result.suppressed == 0, "the tree must be clean, not suppressed"

"""Architectural pipeline model of Fat-Tree QRAM (Alg. 1, Fig. 6).

This module implements the paper's *abstract machine* for query-level
pipelining: queries are admitted every ``PIPELINE_INTERVAL = 10`` raw circuit
layers; each query takes ``10 n - 1`` raw layers (``8 n`` full CSWAP layers
plus ``2 n - 1`` fast layers: ``n - 1`` upward SWAP steps, one data-retrieval
layer, ``n - 1`` downward SWAP steps); swap steps happen on the global
5-layer cadence alternating SWAP-I (even label pairs) and SWAP-II (odd
pairs); a query occupies exactly one sub-component QRAM at any time and two
consecutive queries exchange sub-QRAMs at shared swap layers.

All latency / bandwidth numbers of Tables 1-2 and Figs. 6-8
derive from this model; :meth:`FatTreePipeline.verify_no_conflicts` is the
machine-checked version of Fig. 6's "no conflicting colors in the same
layer".

One query's timeline is stated once, here: :func:`migration_layers` places
its ``n - 1`` up and ``n - 1`` down migrations at a given skew from Alg. 1's
cadence and :func:`query_label` reads its sub-QRAM label off them.
:meth:`FatTreePipeline.label_at` uses skew 0; the gate-level executor uses
``repro.core.executor.MIGRATION_SKEW`` (1) for both its schedule and its
conflict search.

The gate-level realisation in :mod:`repro.core.executor` needs a longer
steady-state admission interval that grows with ``N``:
``FatTreeExecutor.minimum_feasible_interval()`` is ``10·⌈n/2⌉ + 2`` raw
layers from ``N = 4`` on (12, 22, 22, 32, 42, 52 at N = 4, 8, 16, 64, 256,
1024), so the gate-level pipeline overlaps fewer than two queries at every
capacity (EXPERIMENTS.md, "Abstract pipeline interval vs. gate-level
feasible interval").  The figures and tables use this abstract model and are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bucket_brigade.instructions import FAST_LAYER_COST, FULL_LAYER_COST
from repro.bucket_brigade.tree import validate_capacity

#: Raw circuit layers between two consecutive query admissions (Fig. 6).
PIPELINE_INTERVAL = 10

#: Raw circuit layers between consecutive swap steps (gate step = 4 + swap = 1).
SWAP_CADENCE = 5


def fat_tree_raw_query_layers(capacity: int) -> int:
    """Raw layers of one Fat-Tree query: ``10 log2(N) - 1`` (29 for N = 8)."""
    n = validate_capacity(capacity)
    return 10 * n - 1


def migration_layers(capacity: int, skew: int = 0) -> tuple[list[int], list[int]]:
    """Relative raw layers of one query's up and down migrations.

    Up migration ``j`` (label ``j - 1`` to ``j``, ``1 <= j < n``) sits at
    ``5j - skew`` and down migration ``j`` (label ``j`` back to ``j - 1``) at
    ``10n - 5j + skew``; data retrieval lies between them at ``5n``.  Alg. 1
    uses skew 0 (a swap step after every 4 gate layers).

    Returns:
        ``(ups, downs)``, each indexed by ``j - 1``.
    """
    n = validate_capacity(capacity)
    ups = [5 * j - skew for j in range(1, n)]
    downs = [10 * n - 5 * j + skew for j in range(1, n)]
    return ups, downs


def query_label(capacity: int, relative_layer: int, skew: int = 0) -> int | None:
    """Sub-QRAM label a query occupies at one of its relative raw layers.

    The label is the number of up migrations strictly before
    ``relative_layer`` minus the number of down migrations strictly before
    it, so a migration layer still belongs to the label being left (it is the
    shared exchange layer).  None outside the query's ``1..10n - 1`` layers.
    """
    if not 1 <= relative_layer <= fat_tree_raw_query_layers(capacity):
        return None
    ups, downs = migration_layers(capacity, skew)
    return sum(layer < relative_layer for layer in ups) - sum(
        layer < relative_layer for layer in downs
    )


def fat_tree_single_query_latency(capacity: int) -> float:
    """Weighted single-query latency ``8.25 log2(N) - 0.125`` (Table 1)."""
    n = validate_capacity(capacity)
    return 8 * n * FULL_LAYER_COST + (2 * n - 1) * FAST_LAYER_COST


def fat_tree_parallel_query_latency(capacity: int, num_queries: int) -> float:
    """Weighted latency of ``num_queries`` pipelined queries.

    Each additional query adds one pipeline interval (8 full + 2 fast layers
    = 8.25 weighted).  For ``num_queries = log2(N)`` this evaluates to
    ``16.5 log2(N) - 8.375`` (Table 1).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    interval_cost = 8 * FULL_LAYER_COST + 2 * FAST_LAYER_COST
    return fat_tree_single_query_latency(capacity) + (num_queries - 1) * interval_cost


def fat_tree_amortized_query_latency(capacity: int) -> float:
    """Weighted amortized per-query latency in steady state: ``8.25``."""
    validate_capacity(capacity)
    return 8 * FULL_LAYER_COST + 2 * FAST_LAYER_COST


@dataclass(frozen=True)
class QueryTimeline:
    """Milestones of one pipelined query, in absolute raw layers.

    Attributes:
        query_id: index of the query in admission order.
        start_layer: first raw layer of the query.
        data_retrieval_layer: raw layer of its CLASSICAL-GATES step.
        finish_layer: last raw layer of the query.
    """

    query_id: int
    start_layer: int
    data_retrieval_layer: int
    finish_layer: int


class FatTreePipeline:
    """Pipeline schedule of ``num_queries`` back-to-back queries (Fig. 6).

    Args:
        capacity: QRAM capacity ``N``.
        num_queries: number of queries to pipeline (defaults to ``log2 N``,
            the query parallelism of the architecture).
        start_interval: raw layers between admissions (default 10).
    """

    def __init__(
        self,
        capacity: int,
        num_queries: int | None = None,
        start_interval: int = PIPELINE_INTERVAL,
    ) -> None:
        self._n = validate_capacity(capacity)
        self._capacity = capacity
        self.num_queries = self._n if num_queries is None else num_queries
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if start_interval < PIPELINE_INTERVAL:
            raise ValueError(
                f"start_interval must be >= {PIPELINE_INTERVAL} raw layers"
            )
        self.start_interval = start_interval

    # -------------------------------------------------------------- timelines
    @property
    def query_raw_latency(self) -> int:
        """Raw layers per query: ``10 n - 1``."""
        return fat_tree_raw_query_layers(self._capacity)

    def timeline(self, query_id: int) -> QueryTimeline:
        """Milestones of the ``query_id``-th admitted query."""
        if not 0 <= query_id < self.num_queries:
            raise ValueError(f"query {query_id} out of range")
        start = query_id * self.start_interval + 1
        return QueryTimeline(
            query_id=query_id,
            start_layer=start,
            data_retrieval_layer=start + 5 * self._n - 1,
            finish_layer=start + self.query_raw_latency - 1,
        )

    def timelines(self) -> list[QueryTimeline]:
        return [self.timeline(q) for q in range(self.num_queries)]

    @property
    def total_raw_layers(self) -> int:
        """Raw layers until the last query finishes (``20 n - 11`` for
        ``log N`` queries at the default interval)."""
        return self.timeline(self.num_queries - 1).finish_layer

    def interval_weighted_cost(self) -> float:
        """Weighted cost of one admission interval of ``start_interval`` raw
        layers.

        Every :data:`SWAP_CADENCE`-th raw layer is a fast layer (the swap /
        data-retrieval cadence of Alg. 1), so in steady state an interval of
        ``s`` raw layers contains ``s / 5`` fast layers on average — for an
        ``s`` not a multiple of 5, successive intervals alternate between
        ``floor(s/5)`` and ``ceil(s/5)`` cadence layers depending on their
        alignment, and the amortized cost is the fractional average.  For
        the default ``s = 10`` this is ``8 + 2/8 = 8.25`` weighted layers.
        """
        per_cadence = (SWAP_CADENCE - 1) * FULL_LAYER_COST + FAST_LAYER_COST
        return self.start_interval * per_cadence / SWAP_CADENCE

    # ------------------------------------------------------- label occupancy
    def label_at(self, query_id: int, raw_layer: int) -> int | None:
        """Sub-QRAM label occupied by a query at an absolute raw layer.

        Returns None when the query is not active at that layer.

        The trajectory follows Alg. 1 (:func:`query_label` at skew 0): the
        query climbs one sub-QRAM per swap step during loading (label ``ell``
        during relative layers ``[5 ell + 1, 5 (ell + 1)]``), stays in
        sub-QRAM ``n - 1`` for the 10 layers around data retrieval, and
        descends symmetrically.
        """
        start = self.timeline(query_id).start_layer
        return query_label(self._capacity, raw_layer - start + 1)

    def occupied_labels(self, raw_layer: int) -> dict[int, int]:
        """Map of sub-QRAM label -> query id at an absolute raw layer.

        Raises:
            AssertionError: if two queries claim the same label (the
                machine-checked "no conflicting colors" property).
        """
        occupancy: dict[int, int] = {}
        for q in range(self.num_queries):
            label = self.label_at(q, raw_layer)
            if label is None:
                continue
            if label in occupancy:
                raise AssertionError(
                    f"layer {raw_layer}: queries {occupancy[label]} and {q} "
                    f"both occupy sub-QRAM {label}"
                )
            occupancy[label] = q
        return occupancy

    def verify_no_conflicts(self) -> None:
        """Check label-exclusivity for the whole schedule (Fig. 6 property)."""
        for layer in range(1, self.total_raw_layers + 1):
            self.occupied_labels(layer)

    # -------------------------------------------------------------- swap steps
    def swap_layers(self) -> list[int]:
        """Absolute raw layers of the global swap cadence."""
        return list(range(SWAP_CADENCE, self.total_raw_layers + 1, SWAP_CADENCE))

    def swap_type(self, raw_layer: int) -> str | None:
        """``"SWAP-I"`` / ``"SWAP-II"`` for swap-cadence layers, else None.

        SWAP-I exchanges even label pairs ``(k, k+1)`` (k even), SWAP-II the
        odd pairs; the two alternate every 5 raw layers (Alg. 1).
        """
        if raw_layer % SWAP_CADENCE != 0:
            return None
        step = raw_layer // SWAP_CADENCE
        return "SWAP-I" if step % 2 == 1 else "SWAP-II"

    # --------------------------------------------------------------- reporting
    def bandwidth(self, clops: float = 1.0e6) -> float:
        """Sustained query bandwidth in qubits/second at the given clock.

        One bus qubit is delivered per admission interval; at the default
        10-raw-layer interval that is 8 full + 2 fast layers = 8.25 weighted
        layers, giving ``clops / 8.25`` (1.21e5 for the paper's 1 MHz CLOPS).
        A pipeline built with a larger ``start_interval`` delivers
        proportionally less bandwidth.
        """
        return clops / float(self.interval_weighted_cost())


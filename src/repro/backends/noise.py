"""Predicted query fidelity (Sec. 8.1 bounds, pipelined) and the shared backend base.

Gate-level execution only reports a *measured* fidelity when a window runs
functionally; timing-only serving used to report ``None`` and the serving
stack was blind to quality-of-result.  This module turns the paper's
analytic noise-resilience bounds into a *prediction* every backend can
attach to every slot of every window:

* the per-architecture base infidelity is the Sec. 8.1 bound evaluated at
  the backend's :class:`~repro.hardware.parameters.HardwareParameters`
  (``2 log2(N)^2 (eps0 + eps1 + eps2)`` for Fat-Tree, without ``eps2`` for
  BB; Virtual accumulates the per-page BB bound plus one MCX select error
  per page access);
* pipelining-depth degradation: a slot that shares the tree with other
  in-flight queries accrues crosstalk through the shared routers.  Each
  neighbour contributes its residency overlap fraction times a crosstalk
  bound of the same ``2 n^2`` form as the base, charged to the channel the
  concurrent streams actually share — the intra-node SWAP channel
  (``eps2``) for Fat-Tree's pipelined levels, the inter-node SWAP channel
  (``eps1``) for the BB-based architectures.  A lone query (batch size 1)
  reproduces the Table 3 bound exactly, and a sequential backend (BB)
  never overlaps, so its slots never degrade.

QEC-encoded variants (:mod:`repro.backends.encoded`) evaluate the same
expressions at the logical error rates of
:func:`repro.fidelity.qec.encoded_parameters`.

Evaluation-order contract
-------------------------

:func:`pipelined_fidelities` evaluates all window slots in one array
expression; :func:`pipelined_fidelities_scalar` is the original per-slot
loop, kept verbatim as the pinned oracle.  The two are **bit-identical**
by construction, not by accident:

* every per-element operation (``min``/``max`` of offsets, the ``+ 1``,
  the division by the slot's duration, the final ``base + crosstalk *
  overlap``) is a single IEEE-754 double operation in both forms, so the
  elementwise intermediates match bitwise;
* the overlap sum accumulates **left to right** in neighbour order via a
  row-wise cumulative sum (``np.cumsum`` is sequential), exactly the
  order the scalar ``+=`` loop uses — never a pairwise/tree reduction
  (``np.sum``), which would round differently from eight terms on;
* non-overlapping neighbours (and the excluded self term on the
  diagonal) contribute ``+0.0``, which is bitwise-neutral in the
  accumulation: the running overlap is always ``+0.0`` or positive, and
  ``x + 0.0 == x`` bitwise for such ``x``.

The parity is pinned across all five architectures and their encoded
``@d<k>`` variants in ``tests/test_vectorized_parity.py``.

One window-timing formula
-------------------------

Every architecture's window timing is :func:`window_offsets`: slot ``s``
starts at ``(s // lanes) * step + 1``, finishes ``lifetime - 1`` layers
later, and the window drains at ``((k - 1) // lanes) * step + lifetime``.
Fat-Tree pipelines one lane at its feasible interval, BB and Virtual step
a full lifetime (Virtual over ``parallelism`` lanes), and the distributed
baselines run one lane per copy.  :class:`ModelBackend` is the one base
every serving adapter shares: structural delegation, the one
per-occupancy window memo and the single ``run_window``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from typing import Any

import numpy as np

from repro.backends.protocol import WindowResult, ideal_output, output_fidelity
from repro.bucket_brigade.tree import validate_capacity
from repro.core.query import QueryRequest
from repro.fidelity.noise_resilience import (
    bb_query_infidelity,
    fat_tree_query_infidelity,
)
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters

__all__ = [
    "ModelBackend",
    "PredictedFidelityMixin",
    "bb_bounds",
    "fat_tree_bounds",
    "pipelined_fidelities",
    "pipelined_fidelities_scalar",
    "virtual_bounds",
    "window_offsets",
]


def fat_tree_bounds(
    capacity: int, parameters: HardwareParameters
) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for Fat-Tree.

    The crosstalk bound charges one fully-overlapping in-flight neighbour
    the intra-node SWAP channel at the bound's ``2 n^2`` prefactor: the
    pipelined levels are exactly where concurrent queries share routers.
    """
    n = validate_capacity(capacity)
    base = fat_tree_query_infidelity(capacity, parameters)
    crosstalk = min(1.0, 2.0 * n * n * parameters.intra_node_swap_error)
    return base, crosstalk


def bb_bounds(capacity: int, parameters: HardwareParameters) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for BB-type QRAMs."""
    n = validate_capacity(capacity)
    base = bb_query_infidelity(capacity, parameters)
    crosstalk = min(1.0, 2.0 * n * n * parameters.inter_node_swap_error)
    return base, crosstalk


def virtual_bounds(
    capacity: int,
    num_pages: int,
    page_size: int,
    parameters: HardwareParameters,
) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for Virtual QRAM.

    A query is ``num_pages`` sequential page accesses, each a page-sized BB
    query plus one MCX page select (charged one CSWAP-equivalent error).
    """
    m = validate_capacity(page_size)
    per_page = bb_query_infidelity(page_size, parameters) + parameters.cswap_error
    base = min(1.0, num_pages * per_page)
    crosstalk = min(
        1.0, num_pages * 2.0 * m * m * parameters.inter_node_swap_error
    )
    return base, crosstalk


def window_offsets(
    batch_size: int, step: int, lifetime: int, lanes: int = 1
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """``(total_layers, start_offsets, finish_offsets)`` of one window.

    ``lanes`` slots start together every ``step`` layers: slot ``s``
    starts at ``(s // lanes) * step + 1`` and finishes ``lifetime - 1``
    layers later, and the window drains at
    ``((batch_size - 1) // lanes) * step + lifetime``.  All slots are one
    array expression; every value is exact integer arithmetic in float64,
    and the finish keeps the scalar association ``(start + lifetime) - 1``.
    """
    starts = (np.arange(batch_size) // lanes) * float(step) + 1.0
    finishes = starts + float(lifetime) - 1.0
    total = float(((batch_size - 1) // lanes) * step + lifetime)
    return total, tuple(starts.tolist()), tuple(finishes.tolist())


def pipelined_fidelities(
    base_infidelity: float,
    crosstalk_infidelity: float,
    start_offsets: Sequence[float],
    finish_offsets: Sequence[float],
) -> tuple[float, ...]:
    """Per-slot predicted fidelity of one window from its slot offsets.

    Slot ``s`` predicts ``1 - min(1, base + crosstalk * overlap_s)`` where
    ``overlap_s`` sums, over every other slot, the fraction of slot ``s``'s
    residency it spends coexisting with that slot in the hardware.

    All slots are evaluated in one array expression; see the module
    docstring's evaluation-order contract for why the result is
    bit-identical to :func:`pipelined_fidelities_scalar`.
    """
    starts = np.asarray(start_offsets, dtype=np.float64)
    finishes = np.asarray(finish_offsets, dtype=np.float64)
    durations = finishes - starts + 1.0
    # shared[s, o] = min(fin_s, fin_o) - max(start_s, start_o) + 1, the
    # same three IEEE ops the scalar loop performs per neighbour.
    shared = (
        np.minimum(finishes[:, None], finishes[None, :])
        - np.maximum(starts[:, None], starts[None, :])
        + 1.0
    )
    terms = np.where(shared > 0.0, shared / durations[:, None], 0.0)
    # The scalar loop skips o == s; a masked 0.0 in its place is
    # bitwise-neutral in the left-to-right accumulation below.
    np.fill_diagonal(terms, 0.0)
    # Row-wise cumulative sum = the scalar `overlap += ...` order exactly
    # (sequential left-to-right, never numpy's pairwise np.sum).
    overlaps = np.cumsum(terms, axis=1)[:, -1]
    infidelities = np.minimum(
        1.0, base_infidelity + crosstalk_infidelity * overlaps
    )
    return tuple((1.0 - infidelities).tolist())


def pipelined_fidelities_scalar(
    base_infidelity: float,
    crosstalk_infidelity: float,
    start_offsets: Sequence[float],
    finish_offsets: Sequence[float],
) -> tuple[float, ...]:
    """The original per-slot loop, kept verbatim as the pinned oracle.

    Serving always goes through the vectorized
    :func:`pipelined_fidelities`; this reference exists so the parity
    tests can assert bit-identity against an implementation whose
    evaluation order is self-evident.  (The ``_scalar`` suffix marks it
    exempt from simlint's SIM008 hot-loop rule.)
    """
    count = len(start_offsets)
    fidelities = []
    for s in range(count):
        duration = finish_offsets[s] - start_offsets[s] + 1
        overlap = 0.0
        for o in range(count):
            if o == s:
                continue
            shared = (
                min(finish_offsets[s], finish_offsets[o])
                - max(start_offsets[s], start_offsets[o])
                + 1
            )
            if shared > 0:
                overlap += shared / duration
        infidelity = min(1.0, base_infidelity + crosstalk_infidelity * overlap)
        fidelities.append(1.0 - infidelity)
    return tuple(fidelities)


class PredictedFidelityMixin:
    """Shared predicted-fidelity surface of every serving backend.

    Concrete backends provide ``_window_offsets(batch_size)`` — the same
    timing model ``run_window`` uses, as ``(interval, total_layers,
    start_offsets, finish_offsets)`` — and ``_infidelity_bounds(parameters)``
    returning the ``(base, crosstalk)`` pair of their architecture under a
    given noise model (encoded variants pass logical error rates through
    the same hook).

    Offsets and predictions are a pure function of the backend's
    configuration and the window occupancy (the memory image is fixed at
    build), so each backend memoizes one timing-only :class:`WindowResult`
    per occupancy in ``_window_cache`` and answers every prediction from
    it; fleet builds pre-derive every admissible occupancy
    (``warm_schedule_caches``).
    """

    #: Noise model the predictions are evaluated at (set by subclasses).
    parameters: HardwareParameters = DEFAULT_PARAMETERS

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        raise NotImplementedError

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        raise NotImplementedError

    def _compute_window_fidelities(
        self,
        batch_size: int,
        starts: tuple[float, ...],
        finishes: tuple[float, ...],
    ) -> tuple[float, ...]:
        """Derive one window's per-slot predictions from its offsets
        (uncached; called on a :meth:`timing_window` miss with the offsets
        it has just evaluated)."""
        base, crosstalk = self._infidelity_bounds(self.parameters)
        return pipelined_fidelities(base, crosstalk, starts, finishes)

    def timing_window(self, batch_size: int) -> WindowResult:
        """Memoized timing-only :class:`WindowResult` for one occupancy.

        Non-functional windows are pure schedule evaluations, so the
        serving hot path's ``run_window(..., functional=False)`` collapses
        to one dict hit per window, valid for the backend's lifetime.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        cache = self.__dict__.setdefault("_window_cache", {})
        result = cache.get(batch_size)
        if result is None:
            interval, total, starts, finishes = self._window_offsets(batch_size)
            predicted = self._compute_window_fidelities(
                batch_size, starts, finishes
            )
            result = WindowResult(
                interval=interval,
                total_layers=total,
                start_offsets=starts,
                finish_offsets=finishes,
                outputs=(None,) * batch_size,
                fidelities=predicted,
                predicted_fidelities=predicted,
            )
            cache[batch_size] = result
        return result

    def predicted_window_fidelities(self, batch_size: int = 1) -> tuple[float, ...]:
        """Analytic per-slot fidelity of a window of ``batch_size`` queries."""
        return self.timing_window(batch_size).predicted_fidelities

    def predicted_query_fidelity(self) -> float:
        """Analytic fidelity of a lone query (the Sec. 8.1 / Table 3 bound)."""
        return self.predicted_window_fidelities(1)[0]


def query_slots(
    queries: Iterable[Callable[..., Any]],
    requests: Sequence[QueryRequest],
    data: Sequence[int],
) -> tuple[tuple[Any, ...], tuple[float, ...]]:
    """Run each request through its model's ``query`` and score its fidelity."""
    outputs = []
    fidelities = []
    for query, request in zip(queries, requests):
        if request.address_amplitudes is None:
            raise ValueError("functional execution requires address amplitudes")
        actual = query(request.address_amplitudes, initial_bus=request.initial_bus)
        outputs.append(actual)
        fidelities.append(output_fidelity(ideal_output(data, request), actual))
    return tuple(outputs), tuple(fidelities)


class ModelBackend(PredictedFidelityMixin):
    """The one serving adapter: a backend wrapping one architecture model.

    Subclasses name the architecture (``name``) and the model they wrap
    (``model_class``, built as ``model_class(capacity, data)``), and
    provide its window timing (``_window_offsets``, normally one
    :func:`window_offsets` call), noise bounds (``_infidelity_bounds``)
    and functional execution (``_functional_slots``).  Everything else —
    the structural surface, schedule warming and the single
    :meth:`run_window` — is shared here.

    Args:
        capacity: memory size ``N`` (power of two >= 2).
        data: optional classical memory contents, fixed for the backend's
            lifetime.
        parameters: noise model used for the predicted slot fidelities.
    """

    name: str
    #: Architecture model class, built as ``model_class(capacity, data)``.
    model_class: Callable[..., Any]

    def __init__(
        self,
        capacity: int,
        data: Sequence[int] | None = None,
        parameters: HardwareParameters = DEFAULT_PARAMETERS,
    ) -> None:
        # The model is duck-typed: the architecture models share the
        # capacity/data/parallelism surface but no common base class.
        self.model: Any = self.model_class(capacity, data)
        self.parameters = parameters

    # -------------------------------------------------------------- structure
    @property
    def capacity(self) -> int:
        return self.model.capacity

    @property
    def query_parallelism(self) -> int:
        return self.model.query_parallelism

    @property
    def qubit_count(self) -> int:
        return self.model.qubit_count

    @property
    def data(self) -> list[int]:
        return self.model.data

    def warm_schedule_caches(self) -> None:
        """Pre-derive the memoized timing window of every occupancy this
        backend can admit.

        Deriving the offsets resolves the model's executor through the
        :class:`~repro.schedule_cache.ScheduleCacheRegistry`, so later
        replicas of this configuration share it.  Adapters whose model
        holds executors the timing model never touches resolve those
        first.
        """
        for occupancy in range(1, max(2, self.query_parallelism) + 1):
            self.timing_window(occupancy)

    # -------------------------------------------------------------- execution
    def _functional_slots(
        self, requests: Sequence[QueryRequest], interval: int
    ) -> tuple[tuple[Any, ...], tuple[float, ...]]:
        """Execute one window gate-level: ``(outputs, fidelities)`` per slot."""
        raise NotImplementedError

    def run_window(
        self, requests: Sequence[QueryRequest], functional: bool = True
    ) -> WindowResult:
        """Execute one batch of (backend-local) queries.

        Timing-only windows are pure schedule evaluations: one memoized
        :class:`WindowResult` per occupancy (the serving hot path).
        Functional windows share the same offsets and predictions and run
        the queries through :meth:`_functional_slots`.
        """
        if not requests:
            raise ValueError("a window requires at least one request")
        window = self.timing_window(len(requests))
        if not functional:
            return window
        outputs, fidelities = self._functional_slots(requests, window.interval)
        return replace(window, outputs=outputs, fidelities=fidelities)

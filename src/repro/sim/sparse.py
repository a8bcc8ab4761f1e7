"""Sparse basis-state simulator.

A state is a list of *branches*: computational basis assignments over a
fixed qubit ordering, each carrying one complex amplitude.  Permutation
gates (X, SWAP, CSWAP, ANTI_CSWAP) and Z map every branch to one branch, so
they never change the number of branches; H and Y, applied as 2x2
matrices, at most double it.  A QRAM
query over an address register in an ``m``-branch superposition therefore
stays at ``m`` branches throughout the routing circuit, no matter how many
router qubits exist — this is exactly the "limited entanglement among
different paths" property the paper relies on for noise resilience, reused
here for exact simulation.

:class:`SparseState` stores the branches bit-sliced: qubit ``i``'s values
across all branches are one Python ``int``, ``_columns[i]``, whose bit
``t`` is branch ``t``'s value, so one bulk bitwise operation moves every
branch at once.  Amplitudes are one ``complex128`` vector in branch order.

* SWAP exchanges two list entries; CSWAP, ANTI_CSWAP and X are one to
  three big-int XOR/AND operations, each linear in the branch count
  (CPython works through 30 branch bits per digit) and no numpy call;
* Z no longer unpacks its column per gate: it records the column int,
  the next permutation XORs the recorded columns into one sign mask, and
  the signs land on the amplitudes (one negation) only when something
  next reads them.  Z gates after the last permutation are replayed one
  by one instead, because two products by -1 are not the identity on
  signed zeros.  A Z right after a preparation lands at once, because
  the dict storage's prune may then drop branches;
* H/Y duplicate and merge rows (a column constant across rows, such
  as a fresh bus, merges none, so its split skips the merge), and
  preparation, pruning, register readout and the basis view are row
  operations too: for those the bits are held as a ``branches x qubits``
  ``uint8`` matrix instead.

The bits live in one layout at a time and convert (``np.packbits`` /
``np.unpackbits``) only when the next operation needs the other one, so a
functional window converts about twice, not once per gate.

Products are evaluated as explicit real/imaginary float expressions and
merged rows are summed in first-occurrence order, so every amplitude is
bit-identical to the scalar dictionary implementation kept as
:class:`SparseStateScalar` (the reference the tests compare against).

Both classes answer every inspection (``items``, ``probability``,
``register_amplitudes``, ...) from one ``{basis tuple: amplitude}`` view,
written once in :class:`_SparseView`; :class:`SparseState` builds that view
on demand and caches it until the next mutation, and reads register
amplitudes straight from its branch matrix instead.

Every state memoizes how it resolved a gate call (``(gate, qubits)`` to
qubit indices).  States built from one
:class:`QubitLayout` share that memo: circuits replayed on many states of
the same qubit order validate and look up each distinct gate call once,
and :meth:`SparseState.apply_gate` reaches a gate's handler with one memo
lookup.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.gates import GATES, Gate

if TYPE_CHECKING:  # typing.Self is Python 3.11+; annotations here are lazy.
    from typing import Self

Qubit = Hashable
Basis = tuple[int, ...]

_ATOL = 1e-12

__all__ = ["QubitLayout", "SparseState", "SparseStateScalar"]


class QubitLayout:
    """A fixed qubit order that many states start from, all in |0>.

    States built with :meth:`_SparseView.from_layout` (the only way to
    build one) share ``resolved``, the layout's ``(gate, qubits)``
    resolution memo: a state's qubits are fixed by its layout.

    Args:
        qubits: qubit labels in index order (no repeats).
    """

    def __init__(self, qubits: Iterable[Qubit]) -> None:
        self.qubits: tuple[Qubit, ...] = tuple(qubits)
        # Each label's position, copied into every state built from it.
        self.index = {qubit: i for i, qubit in enumerate(self.qubits)}
        if len(self.index) != len(self.qubits):
            raise ValueError("a layout names every qubit once")
        self.resolved: dict[tuple[str, tuple[Qubit, ...]], tuple[int, ...]] = {}


class _SparseView:
    """Qubit bookkeeping and inspection shared by both storages.

    Subclasses keep ``_qubits``/``_index`` (labels in index order and their
    positions) and provide :meth:`_terms`, the state as a
    ``{basis tuple: amplitude}`` dict in branch order.
    """

    _qubits: tuple[Qubit, ...]
    _index: dict[Qubit, int]
    # (gate, qubits) -> qubit indices, valid while the qubit order is.
    _resolved: dict[tuple[str, tuple[Qubit, ...]], tuple[int, ...]]

    @classmethod
    def from_layout(cls, layout: QubitLayout) -> Self:
        """A state over ``layout``'s qubits, all |0>, that resolves gates
        through the layout's shared memo.

        A state never changes its qubits, so it shares the layout's
        labels, positions and memo instead of copying them.
        """
        state = cls()
        state._qubits = layout.qubits
        state._index = layout.index
        state._resolved = layout.resolved
        state._start(len(layout.qubits))
        return state

    def _terms(self) -> dict[Basis, complex]:
        raise NotImplementedError

    def _start(self, count: int) -> None:
        """Set a fresh state's one branch to ``count`` qubits in |0>."""
        raise NotImplementedError

    def apply_gate(self, gate: str, qubits: Sequence[Qubit]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ state
    @property
    def qubits(self) -> list[Qubit]:
        """Qubit labels in index order."""
        return list(self._qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    def _indices(self, qubits: Iterable[Qubit]) -> list[int]:
        """The positions of ``qubits``.

        Raises:
            ValueError: naming the first qubit the state's layout lacks.
        """
        index = self._index
        try:
            return [index[q] for q in qubits]
        except KeyError as exc:
            raise ValueError(f"unknown qubit {exc.args[0]!r}") from None

    def _resolve(self, gate: str, qubits: Sequence[Qubit]) -> tuple[int, ...]:
        """Validate a gate call; return its qubit indices.

        Unknown gate names (looked up exactly as given), unknown qubits and
        repeated qubits are rejected (applied to a basis branch, a repeated
        qubit would not be a unitary).  Each distinct call is validated
        once; repeats hit the memo.
        """
        call = (gate, tuple(qubits))
        resolved = self._resolved.get(call)
        if resolved is not None:
            return resolved
        spec = GATES.get(gate)
        if spec is None:
            raise ValueError(f"unknown gate {gate!r}")
        if len(qubits) != spec.n_qubits:
            raise ValueError(
                f"gate {gate} expects {spec.n_qubits} qubits, got {len(qubits)}"
            )
        if spec.n_qubits > 1 and len(set(qubits)) != spec.n_qubits:
            raise ValueError(f"duplicate qubits in gate {gate}: {tuple(qubits)}")
        resolved = tuple(self._indices(qubits))
        self._resolved[call] = resolved
        return resolved

    def items(self) -> Iterable[tuple[Basis, complex]]:
        return self._terms().items()

    def norm(self) -> float:
        """2-norm of the state (should always be ~1)."""
        return math.sqrt(sum(abs(a) ** 2 for a in self._terms().values()))

    # ------------------------------------------------------------ preparation
    def set_register(self, qubits: Sequence[Qubit], value: int) -> None:
        """Classically set a register (must currently be unentangled |0...0>).

        ``qubits[0]`` is the most significant bit of ``value``.
        """
        self._indices(qubits)
        bits = _int_to_bits(value, len(qubits))
        for q, bit in zip(qubits, bits):
            if bit:
                self.apply_gate("X", (q,))

    # ------------------------------------------------------------- inspection
    def probability(self, assignment: Mapping[Qubit, int]) -> float:
        """Total probability of all basis states consistent with ``assignment``."""
        idx = [(self._index[q], v) for q, v in assignment.items()]
        total = 0.0
        for basis, amp in self._terms().items():
            if all(basis[i] == v for i, v in idx):
                total += abs(amp) ** 2
        return total

    def marginal_distribution(
        self, qubits: Sequence[Qubit]
    ) -> dict[int, float]:
        """Probability distribution over a register (MSB first)."""
        idx = [self._index[q] for q in qubits]
        dist: dict[int, float] = {}
        for basis, amp in self._terms().items():
            value = _bits_to_int(tuple(basis[i] for i in idx))
            dist[value] = dist.get(value, 0.0) + abs(amp) ** 2
        return dist

    def register_amplitudes(self, qubits: Sequence[Qubit]) -> dict[int, complex]:
        """Amplitudes over a register that is in a product state with the rest.

        The register may be in superposition and the *rest* of the system may
        also be in superposition, as long as the overall state factorises as
        ``|register> (x) |rest>``.  The returned amplitudes are normalised and
        carry an overall phase convention fixed by the largest-amplitude
        branch of the rest.  Among rest branches of equal weight, the first
        in the set order of the rest bit tuples wins (the order a ``set``
        of those tuples iterates in, built in branch order).

        Raises:
            ValueError: if the register is genuinely entangled with the rest.
        """
        idx = [self._index[q] for q in qubits]
        others = [i for i in range(len(self._qubits)) if i not in idx]
        terms = self._terms()
        rests = [tuple(basis[i] for i in others) for basis in terms]
        return _factor_register(
            [_bits_to_int(tuple(basis[i] for i in idx)) for basis in terms],
            rests,
            lambda firsts: [rests[t] for t in firsts],
            terms.values(),
        )

    def qubit_values(self) -> dict[Qubit, int] | None:
        """If every qubit has a definite value, return the assignment, else None."""
        terms = self._terms()
        if len(terms) != 1:
            # Qubits may still be definite across branches.
            values: dict[Qubit, int] = {}
            for i, q in enumerate(self._qubits):
                vals = {b[i] for b in terms}
                if len(vals) != 1:
                    return None
                values[q] = vals.pop()
            return values
        basis = next(iter(terms))
        return {q: basis[i] for i, q in enumerate(self._qubits)}

    def fidelity_with(self, other: _SparseView) -> float:
        """|<self|other>|^2 over the union of qubit labels (missing = |0>)."""
        labels = list(dict.fromkeys(self._qubits + other._qubits))
        a = self._expand_to(labels)
        b = other._expand_to(labels)
        overlap = 0.0 + 0.0j
        for basis, amp in a.items():
            overlap += amp.conjugate() * b.get(basis, 0.0)
        return abs(overlap) ** 2

    def _expand_to(self, labels: Sequence[Qubit]) -> dict[Basis, complex]:
        positions = {q: i for i, q in enumerate(labels)}
        out: dict[Basis, complex] = {}
        for basis, amp in self._terms().items():
            new_basis = [0] * len(labels)
            for q, bit in zip(self._qubits, basis):
                new_basis[positions[q]] = bit
            out[tuple(new_basis)] = amp
        return out

    def to_statevector(self, order: Sequence[Qubit] | None = None) -> np.ndarray:
        """Dense statevector over the given qubit order (default: index order).

        Only practical for small qubit counts; used to cross-check against the
        dense simulator.
        """
        order = list(order) if order is not None else list(self._qubits)
        if set(order) != set(self._qubits):
            raise ValueError("order must be a permutation of the state's qubits")
        n = len(order)
        vec = np.zeros(2**n, dtype=complex)
        positions = [self._index[q] for q in order]
        for basis, amp in self._terms().items():
            bits = tuple(basis[i] for i in positions)
            vec[_bits_to_int(bits)] = amp
        return vec


class SparseState(_SparseView):
    """A pure state stored as bit-sliced qubit columns and an amplitude vector.

    Build one with :meth:`from_layout`.
    """

    def __init__(self) -> None:
        self._qubits = ()
        self._index = {}
        self._resolved = {}
        # The branch bits, in exactly one of two layouts at a time (the
        # other is None): _columns[i] is qubit i's column, whose bit t is
        # branch t's value; _rows is a branches x qubits uint8 matrix.
        self._columns: list[int] | None = []
        self._rows: np.ndarray | None = None
        self._amps = np.ones(1, dtype=np.complex128)
        # Cached {basis: amplitude} view, dropped by every mutation.
        self._view: dict[Basis, complex] | None = None
        # The dict storage rebuilds every amplitude as ``0.0 + amp`` on a
        # permutation (a -0.0 part becomes +0.0) and then prunes.  That work
        # is pending only after a preparation, which may also leave |amp| <=
        # _ATOL branches (_unpruned), or a Z, which may leave -0.0 parts.
        self._pending = False
        self._unpruned = False
        # Work deferred while the bits are columns (see _z), applied by
        # _flush: _signs, when not None, is what the permutations since
        # the last read owe (negate the branches of the Z gates before
        # them, the XOR of their columns, then add 0.0); _tail holds the
        # columns of the Z gates since the last permutation, replayed
        # exactly.
        self._signs: int | None = None
        self._tail: list[int] = []

    @property
    def num_terms(self) -> int:
        """Number of nonzero basis states (sparsity)."""
        return len(self._amps)

    def _start(self, count: int) -> None:
        self._columns = [0] * count

    # ---------------------------------------------------------------- layouts
    def _as_columns(self) -> list[int]:
        """The bits as qubit columns, converted from rows if need be."""
        if self._columns is None:
            # Column i's bytes, branch 0 in the low bit of byte 0.
            packed = np.packbits(self._rows.T, axis=1, bitorder="little")
            data, size = packed.tobytes(), packed.shape[1]
            self._columns = [
                int.from_bytes(data[i : i + size], "little")
                for i in range(0, len(data), size)
            ]
            self._rows = None
        return self._columns

    def _as_rows(self) -> np.ndarray:
        """The bits as a branch matrix, converted from columns if need be
        (every row operation reads the amplitudes: deferred Z gates land)."""
        self._flush()
        if self._rows is None:
            terms = len(self._amps)
            size = (terms + 7) // 8
            data = b"".join(c.to_bytes(size, "little") for c in self._columns)
            packed = np.frombuffer(data, dtype=np.uint8).reshape(-1, size)
            # Unpacking the bytes' transpose writes branch-major rows.
            self._rows = np.unpackbits(
                packed.T, axis=0, count=terms, bitorder="little"
            )
            self._columns = None
        return self._rows

    def _branch_mask(self, column: int) -> np.ndarray:
        """A column int as one ``uint8`` bit per branch."""
        terms = len(self._amps)
        data = column.to_bytes((terms + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(data, dtype=np.uint8), count=terms, bitorder="little"
        )

    def _flush(self) -> None:
        """Apply the deferred Z gates (see :meth:`_z`) to the amplitudes."""
        if self._signs is not None:
            if self._signs:
                negate = self._branch_mask(self._signs).view(bool)
                np.negative(self._amps, out=self._amps, where=negate)
            self._amps = self._amps + 0.0
            self._signs = None
        if self._tail:
            re, im = _Z_PHASES
            for column in self._tail:
                bit = self._branch_mask(column)
                self._amps = _multiply(self._amps, re.take(bit), im.take(bit))
            self._tail = []

    # ------------------------------------------------------------- inspection
    def _terms(self) -> dict[Basis, complex]:
        if self._view is None:
            rows = self._as_rows().tolist()
            # list(), not tolist(): the view yields np.complex128 scalars,
            # whose division differs from Python complex division.
            self._view = dict(zip(map(tuple, rows), list(self._amps)))
        return self._view

    def register_amplitudes(self, qubits: Sequence[Qubit]) -> dict[int, complex]:
        """Register amplitudes read from the branch matrix (see
        :meth:`_SparseView.register_amplitudes`): the same branches in the
        same order, without building the full basis view.

        Rest rows are keyed by their packed bytes, so only distinct rests
        become tuples; the weights and the product check run on Python
        ``complex`` and the returned amplitudes are ``np.complex128``, as
        the view's are.
        """
        rows = self._as_rows()
        chosen = [self._index[q] for q in qubits]
        taken = set(chosen)
        rest = [i for i in range(rows.shape[1]) if i not in taken]
        rest_rows = rows[:, rest]
        if rest:
            packed = np.packbits(rest_rows, axis=1)
            void = np.dtype((np.void, packed.shape[1]))
            keys = np.frombuffer(packed.tobytes(), void).tolist()
        else:
            keys = [b""] * len(rows)
        return _factor_register(
            map(_bits_to_int, rows[:, chosen].tolist()),
            keys,
            lambda firsts: map(tuple, rest_rows[firsts].tolist()),
            self._amps.tolist(),
            exact=np.complex128,
        )

    def _prune(self) -> None:
        self._flush()
        self._unpruned = False
        magnitude = np.abs(self._amps)
        if len(magnitude) and not magnitude.min() > _ATOL:
            keep = magnitude > _ATOL
            self._rows = self._as_rows()[keep]
            self._amps = self._amps[keep]

    # ------------------------------------------------------------ preparation
    def prepare_superposition(
        self, qubits: Sequence[Qubit], amplitudes: Mapping[int, complex]
    ) -> None:
        """Prepare an arbitrary superposition over a register of fresh qubits.

        The register must be in |0...0> and unentangled with the rest of the
        state (true at preparation time in all uses here).

        Args:
            qubits: register labels, most significant bit first.
            amplitudes: map from integer basis value to amplitude.  Normalised
                automatically.
        """
        idx = self._indices(qubits)
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
        if norm < _ATOL:
            raise ValueError("cannot prepare the zero vector")
        rows = self._as_rows()
        if rows[:, idx].any():
            raise ValueError("register must be |0...0> before preparation")
        width = len(qubits)
        values = [v for v, a in amplitudes.items() if abs(a) >= _ATOL]
        register = np.array(
            [_int_to_bits(v, width) for v in values], dtype=np.uint8
        ).reshape(len(values), width)
        factors = np.array(
            [amplitudes[v] / norm for v in values], dtype=np.complex128
        )
        # Branch-major, value-minor: the dict storage's insertion order.
        terms = len(self._amps)
        bits = np.repeat(rows, len(values), axis=0)
        bits[:, idx] = np.tile(register, (terms, 1))
        amps = np.repeat(self._amps, len(values))
        tiled = np.tile(factors, terms)
        self._rows = bits
        self._amps = _multiply(amps, tiled.real, tiled.imag)
        self._pending = self._unpruned = True
        self._view = None

    # -------------------------------------------------------------- gate application
    def apply_gate(self, gate: str, qubits: Sequence[Qubit]) -> None:
        """Apply a gate by name to the given qubits."""
        try:
            # A call seen before, with tuple qubits: one memo lookup.
            idx = self._resolved[gate, qubits]
        except (KeyError, TypeError):  # a new call, or list qubits
            idx = self._resolve(gate, qubits)
        _HANDLERS[gate](self, idx)
        self._view = None

    # Gate handlers take the qubit indices.  Permutations and Z work on
    # the columns, H/Y on the rows.
    def _settle(self) -> None:
        """A permutation's share of the dict storage's work (see __init__);
        the hot handlers test ``_pending`` before calling it."""
        if not self._pending:
            return
        if self._unpruned:
            # Nothing is deferred while a preparation is unpruned (see _z).
            self._amps = self._amps + 0.0
            self._prune()
        else:
            # Only the 0.0 + amp is owed: defer it with the Z signs.
            signs = self._signs or 0
            for column in self._tail:
                signs ^= column
            self._signs = signs
            self._tail = []
        self._pending = False

    def _swap(self, q: tuple[int, ...]) -> None:
        cols = self._columns or self._as_columns()
        cols[q[0]], cols[q[1]] = cols[q[1]], cols[q[0]]
        if self._pending:
            self._settle()

    def _cswap(self, q: tuple[int, ...]) -> None:
        cols = self._columns or self._as_columns()
        a, b = cols[q[1]], cols[q[2]]
        diff = (a ^ b) & cols[q[0]]
        cols[q[1]], cols[q[2]] = a ^ diff, b ^ diff
        if self._pending:
            self._settle()

    def _anti_cswap(self, q: tuple[int, ...]) -> None:
        cols = self._columns or self._as_columns()
        a, b = cols[q[1]], cols[q[2]]
        diff = (a ^ b) & ~cols[q[0]]  # differ and control is 0
        cols[q[1]], cols[q[2]] = a ^ diff, b ^ diff
        if self._pending:
            self._settle()

    def _x(self, q: tuple[int, ...]) -> None:
        cols = self._columns or self._as_columns()
        cols[q[0]] ^= (1 << len(self._amps)) - 1
        if self._pending:
            self._settle()

    def _z(self, q: tuple[int, ...]) -> None:
        """Z multiplies each amplitude by +-1, which moves no branch and
        keeps every magnitude, so it only records the qubit's current
        column (a branch keeps its index under later permutations, so the
        column stays a valid branch mask); :meth:`_flush` applies it when
        the amplitudes are read.

        After a preparation the dict storage's prune may drop branches, so
        Z is applied at once there: nothing else is deferred then, and the
        prune flushes this one Z first.
        """
        self._tail.append((self._columns or self._as_columns())[q[0]])
        if self._unpruned:
            self._prune()
        self._pending = True

    def _h(self, q: tuple[int, ...]) -> None:
        self._single_qubit_matrix(_H_MATRIX, q[0])

    def _single_qubit_matrix(self, matrix: np.ndarray, col: int) -> None:
        """Apply a 2x2 matrix: split every branch in two, merge equal rows
        (none on a column that is constant across rows)."""
        rows = self._as_rows()
        terms = len(self._amps)
        column = rows[:, col]
        if not (column != column[0]).any():
            # A constant column (a fresh bus) merges nothing: each branch
            # becomes its nonzero candidates, summed from 0.0 alone.
            old = int(column[0])
            new = [b for b in (0, 1) if abs(matrix[b, old]) >= _ATOL]
            bits = np.repeat(rows, len(new), axis=0)
            bits[:, col] = np.tile(np.array(new, dtype=np.uint8), terms)
            coeffs = np.tile(matrix[new, old], terms)
            amps = _multiply(
                np.repeat(self._amps, len(new)), coeffs.real, coeffs.imag
            )
            self._rows = bits
            self._amps = amps + 0.0
            self._prune()
            return
        # Candidate row 2t + b is branch t with the qubit set to b.
        source = np.repeat(np.arange(terms), 2)
        new_bit = np.tile(np.array([0, 1], dtype=np.uint8), terms)
        old_bit = rows[source, col]
        keep = np.abs(matrix)[new_bit, old_bit] >= _ATOL
        if not keep.all():
            source, new_bit, old_bit = source[keep], new_bit[keep], old_bit[keep]
        bits = rows[source]
        bits[:, col] = new_bit
        amps = _multiply(
            self._amps[source],
            matrix.real[new_bit, old_bit],
            matrix.imag[new_bit, old_bit],
        )
        # Merge equal rows: groups in first-occurrence order, each summed
        # in row order from 0.0 (the dict storage's accumulation).
        keys = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        group = rank[inverse]
        merged = np.empty(len(order), dtype=np.complex128)
        merged.real = np.bincount(group, weights=amps.real, minlength=len(order))
        merged.imag = np.bincount(group, weights=amps.imag, minlength=len(order))
        self._rows = bits[first[order]]
        self._amps = merged
        self._prune()


def _multiply(amps: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``amps * (re + i im)`` elementwise, bit-identical to scalar complex
    multiplication (numpy's vectorized complex multiply may contract to FMA
    and round differently)."""
    ar, ai = amps.real, amps.imag
    out = np.empty(len(amps), dtype=np.complex128)
    out.real = ar * re - ai * im
    out.imag = ar * im + ai * re
    return out


_Handler = Callable[[SparseState, tuple[int, ...]], None]

#: One handler per gate of :data:`GATES`: ``(state, qubit indices)``.
_HANDLERS: dict[str, _Handler] = {
    "X": SparseState._x,
    "SWAP": SparseState._swap,
    "CSWAP": SparseState._cswap,
    "ANTI_CSWAP": SparseState._anti_cswap,
    "H": SparseState._h,
    "Y": lambda s, q: s._single_qubit_matrix(_Y_MATRIX, q[0]),
    "Z": SparseState._z,
}


class SparseStateScalar(_SparseView):
    """Reference storage: a dict from basis tuples to amplitudes.

    One Python loop per gate over every branch.  :class:`SparseState`
    reproduces it bit for bit; tests compare the two.  Build one with
    :meth:`from_layout`.
    """

    def __init__(self) -> None:
        self._qubits = ()
        self._index = {}
        self._resolved = {}
        self._amplitudes: dict[Basis, complex] = {(): 1.0 + 0.0j}

    @property
    def num_terms(self) -> int:
        """Number of nonzero basis states (sparsity)."""
        return len(self._amplitudes)

    def _terms(self) -> dict[Basis, complex]:
        return self._amplitudes

    def _start(self, count: int) -> None:
        self._amplitudes = {(0,) * count: 1.0 + 0.0j}

    def _prune(self) -> None:
        self._amplitudes = {
            b: a for b, a in self._amplitudes.items() if abs(a) > _ATOL
        }

    # ------------------------------------------------------------ preparation
    def prepare_superposition(
        self, qubits: Sequence[Qubit], amplitudes: Mapping[int, complex]
    ) -> None:
        """Prepare an arbitrary superposition over a register of fresh qubits
        (see :meth:`SparseState.prepare_superposition`)."""
        idx = self._indices(qubits)
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
        if norm < _ATOL:
            raise ValueError("cannot prepare the zero vector")
        for basis in self._amplitudes:
            for i in idx:
                if basis[i] != 0:
                    raise ValueError("register must be |0...0> before preparation")
        new_amps: dict[Basis, complex] = {}
        width = len(qubits)
        for basis, amp in self._amplitudes.items():
            for value, a in amplitudes.items():
                if abs(a) < _ATOL:
                    continue
                bits = _int_to_bits(value, width)
                new_basis = list(basis)
                for i, bit in zip(idx, bits):
                    new_basis[i] = bit
                new_amps[tuple(new_basis)] = amp * (a / norm)
        self._amplitudes = new_amps

    # -------------------------------------------------------------- gate application
    def apply_gate(self, gate: str, qubits: Sequence[Qubit]) -> None:
        """Apply a gate by name to the given qubits."""
        idx = self._resolve(gate, qubits)
        spec = GATES[gate]

        if spec.is_permutation:
            self._apply_permutation(spec, idx)
        elif gate == "H":
            self._apply_single_qubit_matrix(_H_MATRIX, idx[0])
        elif gate == "Y":
            self._apply_single_qubit_matrix(_Y_MATRIX, idx[0])
        elif gate == "Z":
            self._apply_z(idx[0])
        else:  # pragma: no cover - defensive, all gates covered above
            raise ValueError(f"gate {gate} not supported by SparseState")

    def _apply_permutation(self, spec: Gate, idx: tuple[int, ...]) -> None:
        new_amps: dict[Basis, complex] = {}
        for basis, amp in self._amplitudes.items():
            bits = tuple(basis[i] for i in idx)
            new_bits = spec.permute_bits(bits)
            if new_bits == bits:
                new_amps[basis] = new_amps.get(basis, 0.0) + amp
                continue
            new_basis = list(basis)
            for i, bit in zip(idx, new_bits):
                new_basis[i] = bit
            key = tuple(new_basis)
            new_amps[key] = new_amps.get(key, 0.0) + amp
        self._amplitudes = new_amps
        self._prune()

    def _apply_single_qubit_matrix(self, matrix: np.ndarray, index: int) -> None:
        new_amps: dict[Basis, complex] = {}
        for basis, amp in self._amplitudes.items():
            bit = basis[index]
            for new_bit in (0, 1):
                coeff = matrix[new_bit, bit]
                if abs(coeff) < _ATOL:
                    continue
                new_basis = list(basis)
                new_basis[index] = new_bit
                key = tuple(new_basis)
                new_amps[key] = new_amps.get(key, 0.0) + coeff * amp
        self._amplitudes = new_amps
        self._prune()

    def _apply_z(self, index: int) -> None:
        self._amplitudes = {
            basis: amp * (-1.0 + 0j if basis[index] else 1.0 + 0j)
            for basis, amp in self._amplitudes.items()
        }
        self._prune()


def _factor_register(
    registers: Iterable[int],
    rests: Iterable[Hashable],
    rest_tuples: Callable[[list[int]], Iterable[Basis]],
    amps: Iterable[complex],
    exact: Callable[[complex], complex] | None = None,
) -> dict[int, complex]:
    """The register column of :meth:`_SparseView.register_amplitudes`.

    Per branch, in branch order: its register value, a key that is equal
    exactly when the rest bits are, and its amplitude.
    ``rest_tuples(branches)`` gives the rest bits of the listed branches
    (the first of each distinct rest) as tuples.  The weights and the
    product check run on ``amps``; the returned amplitudes are computed
    from ``exact(amp)`` (default: ``amp``).
    """
    # Group amplitudes into a (rest branch, register value) matrix, one
    # dict per rest branch; each pair is one basis state, so one branch.
    # Rest branches are numbered in first-occurrence order, so each key is
    # hashed once per branch.
    matrix: list[dict[int, complex]] = []
    register_values: set[int] = set()
    rest_ids: dict[Hashable, int] = {}
    firsts: list[int] = []
    for t, (reg, rest, amp) in enumerate(zip(registers, rests, amps)):
        branch = rest_ids.get(rest)
        if branch is None:
            branch = rest_ids[rest] = len(firsts)
            firsts.append(t)
            matrix.append({})
        matrix[branch][reg] = amp
        register_values.add(reg)
    # The rest tuples added in first-occurrence order, as one add per
    # branch would leave them: their set order breaks ties in max() below.
    # Each maps back to its branch by identity, so the set hashes it once.
    rest_values: set[Basis] = set()
    by_identity: dict[int, int] = {}
    for branch, rest in enumerate(rest_tuples(firsts)):
        rest_values.add(rest)
        by_identity[id(rest)] = branch
    rows = [matrix[by_identity[id(rest)]] for rest in rest_values]

    # Reference rest branch: the one with the largest total weight.
    reference = max(
        rows,
        key=lambda row: sum(
            abs(row.get(reg, 0.0)) ** 2 for reg in register_values
        ),
    )
    # The dict storage's accumulation, 0.0 + amp, on the exact amplitudes.
    exact = exact or (lambda amp: amp)
    column = {
        reg: 0.0 + exact(reference[reg]) if reg in reference else 0.0
        for reg in register_values
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in column.values()))
    if norm < _ATOL:
        raise ValueError("register has no support on the reference branch")
    column = {reg: amp / norm for reg, amp in column.items() if abs(amp) > _ATOL}

    # Rank-1 (product) check including phases: for every entry,
    # amp(reg, rest) * amp(reg0, ref) == amp(reg, ref) * amp(reg0, rest).
    reg0 = max(column, key=lambda reg: abs(column[reg]))
    pivot = reference.get(reg0, 0.0)
    for row in rows:
        scale = row.get(reg0, 0.0)
        for reg in register_values:
            lhs = row.get(reg, 0.0) * pivot
            rhs = reference.get(reg, 0.0) * scale
            if abs(lhs - rhs) > 1e-8:
                raise ValueError(
                    "register is entangled with the rest of the state"
                )
    return column


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    if value < 0 or value >= 2**width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _bits_to_int(bits: Sequence[int]) -> int:
    out = 0
    for bit in bits:
        out = (out << 1) | bit
    return out


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
#: Z's phases (+1 on |0>, -1 on |1>) as real and imaginary parts, each
#: indexed by the qubit's value.
_Z_PHASES = (np.array((1.0, -1.0)), np.array((0.0, 0.0)))

"""Gate-level execution of BB QRAM queries on the sparse simulator.

The executor lowers a :class:`~repro.bucket_brigade.schedule.BBQuerySchedule`
to gates once, as a one-slot :class:`~repro.bucket_brigade.instructions.WindowProgram`,
and replays it on :class:`~repro.sim.sparse.SparseState` for every query,
realising the query unitary of Eq. (1):

    sum_i alpha_i |i>_A |b>_B  ->  sum_i alpha_i |i>_A |b XOR x_i>_B

The replay queries the bus through phase kickback (see
:meth:`~repro.bucket_brigade.instructions.WindowProgram.replay`), which
leaves every router and leaf qubit clean (disentangled) after unloading —
a property the integration tests assert explicitly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bucket_brigade.instructions import (
    QubitNamer,
    WindowProgram,
    lower_instruction,
)
from repro.bucket_brigade.schedule import BBQuerySchedule
from repro.bucket_brigade.tree import BBTree
from repro.sim.sparse import QubitLayout


class BBExecutor:
    """Executes BB QRAM queries by replaying one compiled program.

    The program is compiled once per memory image, as in the Fat-Tree
    executor, and every later query replays it — the fast path
    ``BucketBrigadeQRAM.cached_executor()`` exposes to the serving layer.
    A BB window holds one query, so the program has one slot: the tree,
    then ``("addr", 0, bit)`` for every address bit, then ``("bus", 0)``.

    Args:
        capacity: memory size ``N`` (power of two).
        data: classical memory contents, one bit per address (values are
            reduced mod 2).
    """

    def __init__(self, capacity: int, data: Sequence[int]) -> None:
        self.tree = BBTree(capacity)
        if len(data) != capacity:
            raise ValueError(
                f"data must have {capacity} entries, got {len(data)}"
            )
        self.data = [int(x) & 1 for x in data]
        self.namer: QubitNamer = self.tree.namer
        self._program: WindowProgram | None = None

    @property
    def capacity(self) -> int:
        return self.tree.capacity

    @property
    def address_width(self) -> int:
        return self.tree.address_width

    # -------------------------------------------------------------- program
    def window_program(self) -> WindowProgram:
        """The compiled one-slot program of a query (built on first use)."""
        if self._program is None:
            self._program = self._compile()
        return self._program

    def _compile(self) -> WindowProgram:
        n = self.address_width
        schedule = BBQuerySchedule(self.capacity)
        register = tuple(self.namer.address_qubit(0, bit) for bit in range(n)) + (
            self.namer.bus_qubit(0),
        )
        return WindowProgram(
            total_layers=schedule.raw_layers,
            layout=QubitLayout([*self.tree.all_qubits(), *register]),
            registers=(register,),
            gates=tuple(
                gate
                for instruction in schedule.instructions
                for gate in lower_instruction(
                    instruction, self.namer, n, data=self.data
                )
            ),
        )

    # ------------------------------------------------------------------ query
    def run_query(
        self,
        address_amplitudes: Mapping[int, complex],
        initial_bus: int = 0,
    ) -> dict[tuple[int, int], complex]:
        """Run one full query and return its output.

        Args:
            address_amplitudes: amplitudes of the address superposition
                (normalised automatically).
            initial_bus: initial bus value ``b`` (the query XORs data into it).

        Returns:
            Amplitudes over ``(address, bus)`` after the query.
        """
        (output,), _ = self.window_program().replay(
            [(address_amplitudes, initial_bus)]
        )
        return output

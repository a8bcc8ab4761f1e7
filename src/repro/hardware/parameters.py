"""Hardware timing and error parameters (Sec. 7.1, Sec. 8.1).

The paper's resource estimates use superconducting-cavity parameters from
Weiss, Puri & Girvin (PRX Quantum 2024) and related experiments:

* native (cavity-controlled) CSWAP gate time 1 us  ->  CLOPS = 1e6,
* intra-node beam-splitter SWAP time 125 ns (1/8 of a CSWAP layer),
* gate error rates eps0 = 0.002 (CSWAP), eps1 = 0.002 (inter-node SWAP),
  eps2 = 0.001 (intra-node SWAP) for Fig. 11 and the Sec. 8 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareParameters:
    """Physical parameters of a QRAM hardware platform.

    Attributes:
        cswap_time_us: duration of the native CSWAP gate in microseconds.
        intra_node_swap_time_us: duration of the beam-splitter mediated
            intra-node SWAP in microseconds.
        cswap_error: error probability per CSWAP gate (eps0).
        inter_node_swap_error: error probability per inter-node SWAP (eps1).
        intra_node_swap_error: error probability per intra-node SWAP (eps2).
    """

    cswap_time_us: float = 1.0
    intra_node_swap_time_us: float = 0.125
    cswap_error: float = 0.002
    inter_node_swap_error: float = 0.002
    intra_node_swap_error: float = 0.001

    def __post_init__(self) -> None:
        if self.cswap_time_us <= 0 or self.intra_node_swap_time_us <= 0:
            raise ValueError("gate times must be positive")
        for rate in (
            self.cswap_error,
            self.inter_node_swap_error,
            self.intra_node_swap_error,
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError("error rates must be in [0, 1)")

    @property
    def clops(self) -> float:
        """Circuit layer operations per second: ``1 / cswap_time``."""
        return 1.0e6 / self.cswap_time_us

    @property
    def total_gate_error(self) -> float:
        """eps0 + eps1 + eps2, the combined per-level error of Sec. 8.1."""
        return (
            self.cswap_error
            + self.inter_node_swap_error
            + self.intra_node_swap_error
        )


#: The parameter set used throughout the paper's evaluation.
DEFAULT_PARAMETERS = HardwareParameters()

#: Table 3's parameter sets: eps1 = eps0, eps2 = eps0 / 2 at three baselines.
TABLE3_PARAMETERS = {
    1e-3: HardwareParameters(
        cswap_error=1e-3, inter_node_swap_error=1e-3, intra_node_swap_error=5e-4
    ),
    1e-4: HardwareParameters(
        cswap_error=1e-4, inter_node_swap_error=1e-4, intra_node_swap_error=5e-5
    ),
    1e-5: HardwareParameters(
        cswap_error=1e-5, inter_node_swap_error=1e-5, intra_node_swap_error=5e-6
    ),
}

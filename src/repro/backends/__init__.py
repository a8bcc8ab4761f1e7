"""Backend-agnostic execution engine for the QRAM serving layer.

Every architecture of the paper's evaluation is served through the same
:class:`~repro.backends.protocol.QRAMBackend` protocol, and every adapter
is a subclass of one base, :class:`~repro.backends.noise.ModelBackend`,
which owns the structural delegation, the per-occupancy window memo and
the single ``run_window``:

* :mod:`repro.backends.protocol` — the protocol, the per-window result
  record and the ideal-output / fidelity helpers.
* :mod:`repro.backends.noise` — the shared base, the one window-timing
  formula (:func:`~repro.backends.noise.window_offsets`) and predicted
  per-slot fidelity from the Sec. 8.1 bounds, including pipelining-depth
  degradation.
* :mod:`repro.backends.fat_tree` — Fat-Tree: pipelined windows on the
  memoized gate-level executor.
* :mod:`repro.backends.bucket_brigade` — BB: sequential windows on the
  memoized BB executor.
* :mod:`repro.backends.analytic` — Virtual / D-Fat-Tree / D-BB: model-based
  timing with exact functional queries.
* :mod:`repro.backends.encoded` — QEC-encoded replica wrapper
  (``"<architecture>@d<k>"`` names, Table-5 resource model, logical
  error rates).

Backends are built by name through the single architecture factory,
:func:`repro.baselines.registry.build_backend`.
"""

from repro.backends.protocol import (
    QRAMBackend,
    WindowResult,
    ideal_output,
    output_fidelity,
)
from repro.backends.encoded import (
    EncodedBackend,
    encoded_backend_name,
    parse_encoded_name,
)
from repro.backends.noise import PredictedFidelityMixin, pipelined_fidelities
from repro.backends.fat_tree import FatTreeBackend
from repro.backends.bucket_brigade import BBBackend
from repro.backends.analytic import (
    DistributedBBBackend,
    DistributedFatTreeBackend,
    VirtualBackend,
)

__all__ = [
    "QRAMBackend",
    "WindowResult",
    "ideal_output",
    "output_fidelity",
    "FatTreeBackend",
    "BBBackend",
    "VirtualBackend",
    "DistributedFatTreeBackend",
    "DistributedBBBackend",
    "EncodedBackend",
    "PredictedFidelityMixin",
    "encoded_backend_name",
    "parse_encoded_name",
    "pipelined_fidelities",
]

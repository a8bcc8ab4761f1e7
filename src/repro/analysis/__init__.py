"""Regeneration of the paper's evaluation figures and Table 5.

Tables 1-4 are the ``table*_rows`` / ``table4_comparison`` functions of
:mod:`repro.metrics` and :mod:`repro.fidelity`.
"""

from repro.analysis.tables import generate_table5
from repro.analysis.figures import (
    generate_fig2_milestones,
    generate_fig6_pipeline,
    generate_fig7_schedule,
    generate_fig8_bandwidth,
    generate_fig10_synthetic,
    generate_fig11_qec,
)

__all__ = [
    "generate_table5",
    "generate_fig2_milestones",
    "generate_fig6_pipeline",
    "generate_fig7_schedule",
    "generate_fig8_bandwidth",
    "generate_fig10_synthetic",
    "generate_fig11_qec",
]

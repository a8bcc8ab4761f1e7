"""Regeneration of every table and figure of the paper's evaluation."""

from repro.analysis.tables import (
    generate_table1,
    generate_table2,
    generate_table3,
    generate_table4,
    generate_table5,
)
from repro.analysis.figures import (
    generate_fig2_milestones,
    generate_fig6_pipeline,
    generate_fig7_schedule,
    generate_fig8_bandwidth,
    generate_fig10_synthetic,
    generate_fig11_qec,
)
from repro.analysis.report import format_table, full_report

__all__ = [
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "generate_table5",
    "generate_fig2_milestones",
    "generate_fig6_pipeline",
    "generate_fig7_schedule",
    "generate_fig8_bandwidth",
    "generate_fig10_synthetic",
    "generate_fig11_qec",
    "format_table",
    "full_report",
]

"""Experiment drivers and table rendering for the paper's evaluation."""

from .experiments import (
    SCALED_SWW_BYTES,
    ExperimentResult,
    fig6_compiler_opts,
    fig7_ordering_sww,
    fig8_ge_scaling,
    fig9_energy,
    fig10_plaintext,
    table1_ppc_comparison,
    table2_characteristics,
    table3_wire_traffic,
    table4_area_power,
    table5_prior_work,
)
from .report import fmt, geomean, render_table

__all__ = [
    "ExperimentResult",
    "SCALED_SWW_BYTES",
    "table1_ppc_comparison",
    "table2_characteristics",
    "table3_wire_traffic",
    "table4_area_power",
    "table5_prior_work",
    "fig6_compiler_opts",
    "fig7_ordering_sww",
    "fig8_ge_scaling",
    "fig9_energy",
    "fig10_plaintext",
    "render_table",
    "fmt",
    "geomean",
]

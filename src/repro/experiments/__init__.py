"""Experiment harness (substrate S11): every figure of the paper plus the
extension studies (see ``docs/paper_mapping.md`` for the figure/equation
index).  The grid-shaped figures and the study run as workloads of
:mod:`repro.api`; this package holds their data types, folds and
writers."""

from repro.experiments.ablations import (
    CapPoint,
    ResolutionPoint,
    improvement_summary,
    interpretation_sweep,
    knot_resolution_sweep,
    preemption_cap_sweep,
)
from repro.experiments.ascii import line_plot, render_table
from repro.experiments.fig4 import Fig4Data, generate_fig4, write_fig4_csv
from repro.experiments.fig5 import (
    Fig5Data,
    Fig5Row,
    default_q_grid,
    fig5_campaign_spec,
    fig5_data_from_results,
    write_fig5_csv,
)
from repro.experiments.figure2 import (
    Figure2Demo,
    build_figure2_function,
    run_figure2_demo,
)
from repro.experiments.functions_fig4 import (
    FIG4_MAX,
    FIG4_NAMES,
    FIG4_WCET,
    INTERPRETATIONS,
    fig4_delay_function,
    fig4_functions,
    gaussian,
)
from repro.experiments.io import results_dir, write_csv
from repro.experiments.runner import ReproductionSummary, generate_all
from repro.experiments.schedulability_study import (
    STUDY_METHODS,
    STUDY_UTILIZATIONS,
    StudyPoint,
    fold_study_points,
    reference_study_scenarios,
    study_campaign_spec,
    study_scenarios,
    study_series,
)

__all__ = [
    "gaussian",
    "fig4_delay_function",
    "fig4_functions",
    "FIG4_NAMES",
    "FIG4_MAX",
    "FIG4_WCET",
    "INTERPRETATIONS",
    "Fig4Data",
    "generate_fig4",
    "write_fig4_csv",
    "Fig5Data",
    "Fig5Row",
    "default_q_grid",
    "fig5_campaign_spec",
    "fig5_data_from_results",
    "write_fig5_csv",
    "Figure2Demo",
    "build_figure2_function",
    "run_figure2_demo",
    "interpretation_sweep",
    "knot_resolution_sweep",
    "preemption_cap_sweep",
    "improvement_summary",
    "ResolutionPoint",
    "CapPoint",
    "StudyPoint",
    "STUDY_METHODS",
    "STUDY_UTILIZATIONS",
    "fold_study_points",
    "reference_study_scenarios",
    "study_campaign_spec",
    "study_scenarios",
    "study_series",
    "line_plot",
    "render_table",
    "results_dir",
    "write_csv",
    "ReproductionSummary",
    "generate_all",
]

"""Measurement harness: sweeps, complexity-slope fitting, table rendering.

The paper's evaluation is analytical (Table 1); reproducing it means
*measuring* the implemented protocols across ``(n, f)`` grids and
checking the measured growth exponents and activation thresholds against
the claimed bounds.  This package provides the shared machinery used by
every benchmark under ``benchmarks/``.
"""

from repro.analysis.closed_forms import CLOSED_FORMS
from repro.analysis.export import load_run, save_run
from repro.analysis.fitting import (
    crossover_point,
    fit_loglog_slope,
    fit_slope_vs,
)
from repro.analysis.flows import (
    activity_timeline,
    flow_matrix,
    words_per_tick,
)
from repro.analysis.latency import decision_latencies, latency_summary
from repro.analysis.montecarlo import (
    expected_cost_curve,
    run_probabilistic_trials,
)
from repro.analysis.report import collect_claims, render_report
from repro.analysis.sweeps import SweepPoint, sweep
from repro.analysis.tables import format_table, render_points

__all__ = [
    "fit_loglog_slope",
    "fit_slope_vs",
    "crossover_point",
    "SweepPoint",
    "sweep",
    "format_table",
    "render_points",
    "CLOSED_FORMS",
    "save_run",
    "load_run",
    "activity_timeline",
    "flow_matrix",
    "words_per_tick",
    "decision_latencies",
    "latency_summary",
    "expected_cost_curve",
    "run_probabilistic_trials",
    "collect_claims",
    "render_report",
]

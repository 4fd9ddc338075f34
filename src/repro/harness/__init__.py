"""Experiment drivers that regenerate the paper's tables and figures."""

from .runner import (
    BaselineRun,
    TripsRun,
    run_baseline_workload,
    run_trips_workload,
)
from .tables import table1_rows, table2_rows, table3_rows, render_table

__all__ = [
    "BaselineRun", "TripsRun",
    "run_baseline_workload", "run_trips_workload",
    "table1_rows", "table2_rows", "table3_rows", "render_table",
]

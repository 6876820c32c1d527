"""Replay evaluation harness and the paper's experiment runners."""

from .parallel import FleetSweeper, resolve_n_jobs
from .replay import InstanceReplay, replay_instance
from .reporting import improvement, render_comparison_table, render_simple_table
from .experiments import (
    SweepConfig,
    SweepResult,
    accuracy_table,
    component_summaries,
    component_table,
    end_to_end_comparison,
    fleet_statistics,
    inference_cost,
    prr_analysis,
    run_sweep,
)

__all__ = [
    "FleetSweeper",
    "InstanceReplay",
    "replay_instance",
    "resolve_n_jobs",
    "improvement",
    "render_comparison_table",
    "render_simple_table",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "fleet_statistics",
    "end_to_end_comparison",
    "accuracy_table",
    "component_table",
    "component_summaries",
    "prr_analysis",
    "inference_cost",
]

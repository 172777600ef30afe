"""Experiment harness: sweeps, per-figure definitions, reporting.

Each paper figure has a generator function in
:mod:`repro.experiments.figures` that returns a
:class:`~repro.experiments.report.FigureData`; its ``main`` entry
point (``python -m repro figures <name>``) prints any committed
artefact as an aligned table, and writes or checks its CSV.
"""

from repro.experiments.parallel import (
    ExecutionStats,
    ResultCache,
    derive_seed,
    execute_points,
    run_sweep_point,
)
from repro.experiments.report import (
    FigureData,
    format_execution_summary,
    format_table,
    to_csv,
)
from repro.experiments.runner import (
    SimulationSettings,
    SweepPoint,
    run_simulation,
)
from repro.experiments.specs import (
    available_routings,
    parse_pattern,
    parse_topology,
    parse_topology_routing,
    register_routing,
)

__all__ = [
    "ExecutionStats",
    "FigureData",
    "ResultCache",
    "SimulationSettings",
    "SweepPoint",
    "derive_seed",
    "execute_points",
    "format_execution_summary",
    "format_table",
    "available_routings",
    "parse_pattern",
    "parse_topology",
    "parse_topology_routing",
    "register_routing",
    "run_simulation",
    "run_sweep_point",
    "to_csv",
]

"""Baseline planners the paper compares E-BLOW against.

Each planner here is registered with the unified planning API through the
catalogue in :mod:`repro.api.planners` (one handle per planner); run them
via ``repro.plan(instance, planner="greedy-1d")`` or the batch runtime
rather than instantiating configs by hand.
"""

from repro.baselines.exact_ilp import ExactILP1DPlanner, ExactILP2DPlanner, ExactILPConfig
from repro.baselines.floorplan_2d import Floorplan2DConfig, Floorplan2DPlanner
from repro.baselines.greedy_1d import Greedy1DConfig, Greedy1DPlanner
from repro.baselines.greedy_2d import Greedy2DConfig, Greedy2DPlanner
from repro.baselines.heuristic_1d import Heuristic1DConfig, Heuristic1DPlanner
from repro.baselines.row_structure_1d import RowStructure1DConfig, RowStructure1DPlanner

__all__ = [
    "Greedy1DPlanner",
    "Greedy1DConfig",
    "Heuristic1DPlanner",
    "Heuristic1DConfig",
    "RowStructure1DPlanner",
    "RowStructure1DConfig",
    "Greedy2DPlanner",
    "Greedy2DConfig",
    "Floorplan2DPlanner",
    "Floorplan2DConfig",
    "ExactILP1DPlanner",
    "ExactILP2DPlanner",
    "ExactILPConfig",
]

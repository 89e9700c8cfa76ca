"""Exact ILP planners (formulations (3) and (7)) for tiny instances.

These wrap the full co-optimization formulations in planner-shaped objects so
the Table 5 comparison harness can treat "ILP" like any other algorithm.
They are exponential — the paper could not solve 14-character 1D cases or
12-character 2D cases within an hour — so a time limit is enforced and the
result records whether optimality was proven.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.onedim.formulation import build_full_ilp
from repro.core.twodim.formulation import build_full_ilp_2d
from repro.errors import ValidationError
from repro.model import OSPInstance, Placement2D, RowPlacement, StencilPlan
from repro.model.writing_time import evaluate_plan
from repro.solver import solve_ilp
from repro.solver.result import SolveStatus

__all__ = ["ExactILPConfig", "ExactILP1DPlanner", "ExactILP2DPlanner"]


@dataclass
class ExactILPConfig:
    """Configuration shared by the exact planners."""

    time_limit: float | None = 300.0
    # HiGHS node cap: a load-independent stop.
    node_limit: int | None = None


class ExactILP1DPlanner:
    """Optimal 1DOSP planner via formulation (3)."""

    def __init__(self, config: ExactILPConfig | None = None) -> None:
        self.config = config or ExactILPConfig()

    def plan(self, instance: OSPInstance) -> StencilPlan:
        """Solve the exact ILP and decode the placement."""
        if instance.kind != "1D":
            raise ValidationError("ExactILP1DPlanner expects a 1D instance")
        start = time.perf_counter()
        program, index = build_full_ilp(instance)
        solution = solve_ilp(
            program,
            time_limit=self.config.time_limit,
            node_limit=self.config.node_limit,
        )
        elapsed = time.perf_counter() - start
        plan = StencilPlan(instance=instance)
        if solution.status.has_solution:
            placements = []
            for (i, k), var in index["a"].items():
                if solution.values[var] > 0.5:
                    placements.append(
                        RowPlacement(
                            name=instance.characters[i].name,
                            row=k,
                            x=float(solution.values[index["x"][i]]),
                        )
                    )
            plan.row_placements = placements
            plan.validate()
        report = evaluate_plan(plan)
        plan.stats.update(
            {
                "algorithm": "exact-ilp-1d",
                "runtime_seconds": elapsed,
                "writing_time": report.total,
                "num_selected": report.num_selected,
                "optimal": solution.status == SolveStatus.OPTIMAL,
                "ilp_binary_variables": len(index["a"]) + len(index["p"]),
                "objective": solution.objective,
            }
        )
        return plan


class ExactILP2DPlanner:
    """Optimal 2DOSP planner via formulation (7)."""

    def __init__(self, config: ExactILPConfig | None = None) -> None:
        self.config = config or ExactILPConfig()

    def plan(self, instance: OSPInstance) -> StencilPlan:
        """Solve the exact ILP and decode the placement."""
        if instance.kind != "2D":
            raise ValidationError("ExactILP2DPlanner expects a 2D instance")
        start = time.perf_counter()
        program, index = build_full_ilp_2d(instance)
        solution = solve_ilp(
            program,
            time_limit=self.config.time_limit,
            node_limit=self.config.node_limit,
        )
        elapsed = time.perf_counter() - start
        plan = StencilPlan(instance=instance)
        if solution.status.has_solution:
            placements = []
            for i, var in index["a"].items():
                if solution.values[var] > 0.5:
                    placements.append(
                        Placement2D(
                            name=instance.characters[i].name,
                            x=float(solution.values[index["x"][i]]),
                            y=float(solution.values[index["y"][i]]),
                        )
                    )
            plan.placements2d = placements
            plan.validate()
        report = evaluate_plan(plan)
        plan.stats.update(
            {
                "algorithm": "exact-ilp-2d",
                "runtime_seconds": elapsed,
                "writing_time": report.total,
                "num_selected": report.num_selected,
                "optimal": solution.status == SolveStatus.OPTIMAL,
                "ilp_binary_variables": len(index["a"]) + len(index["p"]) + len(index["q"]),
                "objective": solution.objective,
            }
        )
        return plan

"""Result records for algorithm comparisons.

Each planner run on a benchmark case is condensed into an
:class:`AlgorithmResult` holding the three columns the paper reports for
every algorithm: writing time ``T``, the number of characters on the final
stencil ``char#``, and the runtime ``CPU(s)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.model import OSPInstance, StencilPlan
from repro.model.writing_time import evaluate_plan

__all__ = ["AlgorithmResult", "result_from_plan"]


@dataclass
class AlgorithmResult:
    """One (algorithm, benchmark case) measurement."""

    algorithm: str
    case: str
    writing_time: float
    num_selected: int
    runtime_seconds: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "case": self.case,
            "writing_time": self.writing_time,
            "num_selected": self.num_selected,
            "runtime_seconds": self.runtime_seconds,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AlgorithmResult":
        return cls(
            algorithm=data["algorithm"],
            case=data["case"],
            writing_time=data["writing_time"],
            num_selected=data["num_selected"],
            runtime_seconds=data["runtime_seconds"],
            extra=dict(data.get("extra", {})),
        )


def result_from_plan(
    plan: StencilPlan, algorithm: str | None = None, case: str | None = None
) -> AlgorithmResult:
    """Condense a plan into an :class:`AlgorithmResult`."""
    instance: OSPInstance = plan.instance
    report = evaluate_plan(plan)
    return AlgorithmResult(
        algorithm=algorithm or str(plan.stats.get("algorithm", "unknown")),
        case=case or instance.name,
        writing_time=report.total,
        num_selected=report.num_selected,
        runtime_seconds=float(plan.stats.get("runtime_seconds", 0.0)),
        extra={
            k: v
            for k, v in plan.stats.items()
            if k
            in (
                "lp_iterations",
                "lp_solve_seconds",
                "stage_seconds",
                "post_swaps",
                "post_insertions",
                "num_clusters",
                "annealing_moves",
                "optimal",
                "ilp_binary_variables",
            )
        },
    )

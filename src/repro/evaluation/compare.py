"""Comparison harness: run several planners over a list of benchmark cases.

This is the engine behind the Table 3 / Table 4 / Table 5 reproductions.
The cases × planners grid runs through the batch runtime's one path
(:func:`~repro.runtime.engine.grid_jobs` →
:func:`~repro.runtime.engine.run_jobs`), so every cell is a
:class:`~repro.runtime.jobs.JobResult` carrying the paper's three columns:
writing time ``T``, the characters on the stencil ``char#``, and the
runtime ``CPU(s)``.  Results are grouped per case so the reporting module
can lay them out in the paper's row format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.model import OSPInstance

if TYPE_CHECKING:
    from repro.runtime.jobs import JobResult, PlannerSpec

__all__ = ["ComparisonRow", "Comparison", "run_comparison"]


@dataclass
class ComparisonRow:
    """All algorithm results for one benchmark case."""

    case: str
    instance_summary: dict
    results: dict[str, JobResult] = field(default_factory=dict)


@dataclass
class Comparison:
    """Results of running a set of algorithms over a set of cases."""

    rows: list[ComparisonRow] = field(default_factory=list)

    def algorithms(self) -> list[str]:
        """Algorithm names, preserving first-appearance order."""
        seen: list[str] = []
        for row in self.rows:
            for name in row.results:
                if name not in seen:
                    seen.append(name)
        return seen

    def averages(self) -> dict[str, dict[str, float]]:
        """Per-algorithm averages of writing time, char count, and runtime."""
        out: dict[str, dict[str, float]] = {}
        for name in self.algorithms():
            results = [row.results[name] for row in self.rows if name in row.results]
            if not results:
                continue
            count = len(results)
            out[name] = {
                "writing_time": sum(r.writing_time for r in results) / count,
                "num_selected": sum(r.num_selected for r in results) / count,
                "runtime_seconds": sum(r.runtime_seconds for r in results) / count,
            }
        return out

    def ratios(self, reference: str) -> dict[str, dict[str, float]]:
        """Averages normalised to the reference algorithm (the paper's Ratio row)."""
        averages = self.averages()
        if reference not in averages:
            return {}
        ref = averages[reference]
        return {
            name: {
                metric: (values[metric] / ref[metric] if ref[metric] else float("nan"))
                for metric in values
            }
            for name, values in averages.items()
        }

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "case": row.case,
                    "instance": row.instance_summary,
                    "results": {
                        name: {
                            "algorithm": result.label,
                            "case": result.case,
                            "writing_time": result.writing_time,
                            "num_selected": result.num_selected,
                            "runtime_seconds": result.runtime_seconds,
                            "extra": dict(result.extra),
                        }
                        for name, result in row.results.items()
                    },
                }
                for row in self.rows
            ]
        }


def run_comparison(
    cases: Sequence[str] | Sequence[OSPInstance],
    planners: Mapping[str, PlannerSpec | str],
    scale: float = 1.0,
    jobs: int = 1,
    store=None,
    telemetry=None,
    timeout: float | None = None,
) -> Comparison:
    """Run every planner on every case.

    ``cases`` may contain benchmark-case names (resolved with ``scale``) or
    pre-built :class:`OSPInstance` objects; ``planners`` maps each column
    label to a :class:`~repro.runtime.jobs.PlannerSpec` or a registry name.
    ``jobs > 1`` runs the grid on a local process pool.  Plans are identical
    to an inline run provided the planner configs are load-independent.
    Every default config is, E-BLOW's included (its fast-convergence ILP
    stops on a MIP gap, not on wall clock); only the exact ILP planners'
    ``time_limit`` returns whatever incumbent the wall clock allowed.
    """
    from repro.runtime import LocalScheduler, grid_jobs, run_jobs

    grid = grid_jobs(cases, planners, scale=scale, timeout=timeout)
    results = run_jobs(grid, scheduler=LocalScheduler(jobs), store=store, telemetry=telemetry)

    comparison = Comparison()
    # Rows are keyed by the planning input, not by its name: two instances
    # that share a name are two rows.
    row_by_input: dict[str, ComparisonRow] = {}
    for job, result in zip(grid, results):
        if not result.ok:
            raise RuntimeError(
                f"planner {result.label!r} failed on case {result.case!r} "
                f"({result.status}): {result.error}"
            )
        row = row_by_input.get(job.instance_hash)
        if row is None:
            row = ComparisonRow(case=result.case, instance_summary=dict(result.instance_summary))
            row_by_input[job.instance_hash] = row
            comparison.rows.append(row)
        row.results[result.label] = result
    return comparison

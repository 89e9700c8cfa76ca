"""Comparison harness: run several planners over a list of benchmark cases.

This is the engine behind the Table 3 / Table 4 / Table 5 reproductions — a
thin client of the unified planning API: planner specs build through the
shared :mod:`repro.api.registry` handles (declared capabilities + option
schemas), and pooled grids execute through the batch runtime's single
execution path.  Results are grouped per case so the reporting module can
lay them out in the paper's row format.

Planners may still be supplied as bare factories (legacy, serial-only); the
spec form (:class:`~repro.runtime.jobs.PlannerSpec` or registry-name
strings) is required for pooled execution and validated against the
planner's declared option schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.evaluation.metrics import AlgorithmResult, result_from_plan
from repro.model import OSPInstance
from repro.workloads import build_instance

__all__ = ["ComparisonRow", "Comparison", "run_comparison"]

PlannerFactory = Callable[[], object]


@dataclass
class ComparisonRow:
    """All algorithm results for one benchmark case."""

    case: str
    instance_summary: dict
    results: dict[str, AlgorithmResult] = field(default_factory=dict)


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
                    "results": {k: v.to_dict() for k, v in row.results.items()},
                }
                for row in self.rows
            ]
        }


def run_comparison(
    cases: Sequence[str] | Sequence[OSPInstance],
    planners: Mapping[str, PlannerFactory],
    scale: float = 1.0,
    jobs: int = 1,
    store=None,
    telemetry=None,
    timeout: float | None = None,
) -> Comparison:
    """Run every planner on every case.

    ``cases`` may contain benchmark-case names (resolved through
    :func:`repro.workloads.build_instance` with ``scale``) or pre-built
    :class:`OSPInstance` objects.

    ``planners`` values may be plain factories (legacy, serial-only) or
    :class:`repro.runtime.PlannerSpec` / registry-name strings.  With
    ``jobs > 1`` — or a result ``store`` / ``telemetry`` manifest — the grid
    executes through the batch runtime (:mod:`repro.runtime`), which requires
    the spec form.  Plans are identical to serial runs provided the planner
    configs are load-independent.  Every default config is, E-BLOW's
    included (its fast-convergence ILP stops on a MIP gap, not on wall
    clock); only the exact ILP planners' ``time_limit`` returns whatever
    incumbent the wall clock allowed.
    """
    if jobs > 1 or store is not None or telemetry is not None:
        return _run_comparison_pooled(
            cases, planners, scale=scale, jobs=jobs, store=store,
            telemetry=telemetry, timeout=timeout,
        )
    from repro.runtime.jobs import summarize_instance

    comparison = Comparison()
    for case in cases:
        instance = case if isinstance(case, OSPInstance) else build_instance(case, scale)
        row = ComparisonRow(case=instance.name, instance_summary=summarize_instance(instance))
        for name, factory in planners.items():
            planner = _build_planner(factory, instance.kind)
            plan = planner.plan(instance)
            row.results[name] = result_from_plan(plan, algorithm=name, case=instance.name)
        comparison.rows.append(row)
    return comparison


def _build_planner(factory, kind: str):
    """Support both legacy factories and runtime planner specs."""
    from repro.runtime.jobs import PlannerSpec

    if isinstance(factory, PlannerSpec):
        return factory.build(kind)
    if isinstance(factory, str):
        return PlannerSpec(factory).build(kind)
    return factory()


def _run_comparison_pooled(
    cases, planners, scale, jobs, store, telemetry, timeout
) -> Comparison:
    from repro.runtime import LocalScheduler, grid_jobs, run_jobs

    grid = grid_jobs(cases, planners, scale=scale, timeout=timeout)
    results = run_jobs(
        grid, scheduler=LocalScheduler(jobs), store=store, telemetry=telemetry
    )

    comparison = Comparison()
    row_by_case: dict[str, ComparisonRow] = {}
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"planner {result.label!r} failed on case {result.case!r} "
                f"({result.status}): {result.error}"
            )
        row = row_by_case.get(result.case)
        if row is None:
            row = ComparisonRow(case=result.case, instance_summary=dict(result.instance_summary))
            row_by_case[result.case] = row
            comparison.rows.append(row)
        row.results[result.label] = result.to_algorithm_result()
    return comparison

"""Reproduction entry points for every table and figure of the paper.

Each function regenerates one experiment of Section 5 and returns plain data
structures; the CLI prints them and the benchmark harness times them.

* :func:`run_table3`  — 1DOSP comparison (Greedy[24], Heur[24], [25]-style, E-BLOW),
* :func:`run_table4`  — 2DOSP comparison (Greedy[24], SA[24], E-BLOW),
* :func:`run_table5`  — exact ILP vs E-BLOW on tiny instances,
* :func:`run_fig5`    — unsolved characters per successive-rounding iteration,
* :func:`run_fig6`    — distribution of the last LP's assignment values,
* :func:`run_fig11_12` — E-BLOW-0 vs E-BLOW-1 ablation (quality and runtime).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.api import plan as run_plan
from repro.evaluation import Comparison, run_comparison
from repro.runtime.jobs import PlannerSpec
from repro.workloads import (
    SUITE_1D,
    SUITE_1M,
    SUITE_1T,
    SUITE_2D,
    SUITE_2M,
    SUITE_2T,
    default_scale,
)

__all__ = [
    "TABLE3_CASES",
    "TABLE4_CASES",
    "TABLE5_1D_CASES",
    "TABLE5_2D_CASES",
    "planners_table3",
    "planners_table4",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_fig5",
    "run_fig6",
    "run_fig11_12",
]

TABLE3_CASES: tuple[str, ...] = tuple(SUITE_1D) + tuple(SUITE_1M)
TABLE4_CASES: tuple[str, ...] = tuple(SUITE_2D) + tuple(SUITE_2M)
TABLE5_1D_CASES: tuple[str, ...] = tuple(SUITE_1T)
TABLE5_2D_CASES: tuple[str, ...] = tuple(SUITE_2T)


def planners_table3() -> Mapping[str, PlannerSpec]:
    """Planner specs for the Table 3 comparison (picklable, pool-ready)."""
    return {
        "greedy[24]": PlannerSpec("greedy-1d"),
        "heur[24]": PlannerSpec("heur-1d"),
        "rows[25]": PlannerSpec("rows-1d"),
        "e-blow": PlannerSpec("eblow-1d"),
    }


def planners_table4() -> Mapping[str, PlannerSpec]:
    """Planner specs for the Table 4 comparison (picklable, pool-ready)."""
    return {
        "greedy[24]": PlannerSpec("greedy-2d"),
        "sa[24]": PlannerSpec("sa-2d"),
        "e-blow": PlannerSpec("eblow-2d"),
    }


def run_table3(
    cases: Sequence[str] | None = None, scale: float | None = None, jobs: int = 1
) -> Comparison:
    """Reproduce Table 3 (1DOSP comparison) on the given cases."""
    cases = list(cases) if cases is not None else list(TABLE3_CASES)
    scale = scale if scale is not None else default_scale()
    return run_comparison(cases, planners_table3(), scale=scale, jobs=jobs)


def run_table4(
    cases: Sequence[str] | None = None, scale: float | None = None, jobs: int = 1
) -> Comparison:
    """Reproduce Table 4 (2DOSP comparison) on the given cases."""
    cases = list(cases) if cases is not None else list(TABLE4_CASES)
    scale = scale if scale is not None else default_scale()
    return run_comparison(cases, planners_table4(), scale=scale, jobs=jobs)


def run_table5(
    cases_1d: Sequence[str] | None = None,
    cases_2d: Sequence[str] | None = None,
    time_limit: float = 60.0,
    jobs: int = 1,
) -> Comparison:
    """Reproduce Table 5 (exact ILP vs E-BLOW on tiny instances)."""
    cases_1d = list(cases_1d) if cases_1d is not None else list(TABLE5_1D_CASES)
    cases_2d = list(cases_2d) if cases_2d is not None else list(TABLE5_2D_CASES)
    comparison = Comparison()
    if cases_1d:
        part = run_comparison(
            cases_1d,
            {
                "ilp": PlannerSpec("ilp-1d", {"time_limit": time_limit}),
                "e-blow": PlannerSpec("eblow-1d"),
            },
            jobs=jobs,
        )
        comparison.rows.extend(part.rows)
    if cases_2d:
        part = run_comparison(
            cases_2d,
            {
                "ilp": PlannerSpec("ilp-2d", {"time_limit": time_limit}),
                "e-blow": PlannerSpec("eblow-2d"),
            },
            jobs=jobs,
        )
        comparison.rows.extend(part.rows)
    return comparison


def run_fig5(
    cases: Sequence[str] = ("1M-1", "1M-2", "1M-3", "1M-4"),
    scale: float | None = None,
) -> dict[str, list[int]]:
    """Reproduce Fig. 5: unsolved-character counts per LP iteration."""
    scale = scale if scale is not None else default_scale()
    traces: dict[str, list[int]] = {}
    for case in cases:
        result = run_plan(case, planner="eblow-1d", scale=scale)
        traces[case] = list(result.stats["unsolved_history"])
    return traces


def run_fig6(
    case: str = "1M-1",
    scale: float | None = None,
    bins: int = 10,
) -> dict[str, list]:
    """Reproduce Fig. 6: histogram of the assignment values in the last LP."""
    scale = scale if scale is not None else default_scale()
    result = run_plan(case, planner="eblow-1d", scale=scale)
    values = list(result.stats["last_lp_values"])
    edges = [i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for value in values:
        slot = min(int(value * bins), bins - 1)
        counts[slot] += 1
    return {"case": case, "bin_edges": edges, "counts": counts, "num_values": len(values)}


def run_fig11_12(
    cases: Sequence[str] | None = None, scale: float | None = None, jobs: int = 1
) -> Comparison:
    """Reproduce Figs. 11-12: E-BLOW-0 vs E-BLOW-1 ablation.

    E-BLOW-0 disables fast ILP convergence and post-insertion; E-BLOW-1 is
    the full flow.  Fig. 11 compares writing times, Fig. 12 runtimes; both
    come from the same comparison object.
    """
    cases = list(cases) if cases is not None else list(SUITE_1D) + list(SUITE_1M)
    scale = scale if scale is not None else default_scale()
    planners = {
        "e-blow-0": PlannerSpec("eblow-1d", {"ablated": True}),
        "e-blow-1": PlannerSpec("eblow-1d"),
    }
    return run_comparison(cases, planners, scale=scale, jobs=jobs)

"""A from-scratch branch & bound solver: the MILP reference oracle.

The planner solves every mixed-integer program with HiGHS ``milp``
(:func:`repro.solver.solve_ilp`).  This module is the independent
implementation the solver tests check it against: best-first branch & bound
on LP relaxations, solved with HiGHS (``lp_backend="scipy"``) or with the
from-scratch simplex of :mod:`tests.oracles.simplex` (``"simplex"``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.solver.model import LinearProgram
from repro.solver.result import Solution, SolveStatus
from repro.solver.scipy_backend import solve_lp_scipy
from tests.oracles.simplex import solve_lp_simplex

__all__ = ["solve_ilp_branch_and_bound", "BranchAndBoundConfig"]

_INT_TOL = 1e-6


@dataclass
class BranchAndBoundConfig:
    """Tuning knobs for the branch & bound search."""

    max_nodes: int = 100_000
    time_limit: float | None = None
    gap_tolerance: float = 1e-6
    lp_backend: str = "scipy"  # "scipy" or "simplex"


def _lp_solver(backend: str) -> Callable[[LinearProgram], Solution]:
    if backend == "simplex":
        return solve_lp_simplex
    return solve_lp_scipy


def _most_fractional(program: LinearProgram, values: list[float]) -> int | None:
    """Integer variable whose value is farthest from an integer (None if all integral)."""
    best_index = None
    best_frac = _INT_TOL
    for idx in program.integer_indices:
        value = values[idx]
        frac = abs(value - round(value))
        if frac > best_frac:
            best_frac = frac
            best_index = idx
    return best_index


def solve_ilp_branch_and_bound(
    program: LinearProgram, config: BranchAndBoundConfig | None = None
) -> Solution:
    """Solve a mixed-integer program by LP-based branch & bound.

    Returns a solution whose status is ``OPTIMAL`` when the search completed,
    ``FEASIBLE`` when a limit was hit with an incumbent available, and
    ``INFEASIBLE`` when no integral solution exists.
    """
    config = config or BranchAndBoundConfig()
    solve_lp = _lp_solver(config.lp_backend)
    start = time.monotonic()

    root = solve_lp(program.relaxed())
    if root.status == SolveStatus.INFEASIBLE:
        return Solution(status=SolveStatus.INFEASIBLE)
    if root.status == SolveStatus.UNBOUNDED:
        return Solution(status=SolveStatus.UNBOUNDED)

    # Internally work in minimization sense.
    sign = -1.0 if program.maximize else 1.0

    counter = itertools.count()
    heap: list[tuple[float, int, dict[int, tuple[float, float]], Solution]] = []
    heapq.heappush(heap, (sign * root.objective, next(counter), {}, root))

    incumbent: Solution | None = None
    incumbent_value = math.inf
    nodes = 0
    exhausted = True

    while heap:
        bound, _, bounds_override, relaxation = heapq.heappop(heap)
        if bound >= incumbent_value - config.gap_tolerance:
            continue
        nodes += 1
        if nodes > config.max_nodes or (
            config.time_limit is not None
            and time.monotonic() - start > config.time_limit
        ):
            exhausted = False
            break

        branch_var = _most_fractional(program, relaxation.values)
        if branch_var is None:
            value = sign * relaxation.objective
            if value < incumbent_value - config.gap_tolerance:
                incumbent_value = value
                incumbent = relaxation
            continue

        value = relaxation.values[branch_var]
        floor_val = math.floor(value + _INT_TOL)
        var = program.variables[branch_var]
        for lo, hi in (
            (var.lower, float(floor_val)),
            (float(floor_val + 1), var.upper),
        ):
            lo = max(lo, var.lower)
            hi = min(hi, var.upper)
            if lo > hi:
                continue
            child_bounds = dict(bounds_override)
            child_bounds[branch_var] = (lo, hi)
            child_program = program.with_bounds(child_bounds).relaxed()
            child = solve_lp(child_program)
            if child.status != SolveStatus.OPTIMAL:
                continue
            child_bound = sign * child.objective
            if child_bound < incumbent_value - config.gap_tolerance:
                heapq.heappush(heap, (child_bound, next(counter), child_bounds, child))

    if incumbent is None:
        if exhausted:
            return Solution(status=SolveStatus.INFEASIBLE, iterations=nodes)
        return Solution(status=SolveStatus.ERROR, iterations=nodes)

    values = [
        round(v) if i in set(program.integer_indices) else v
        for i, v in enumerate(incumbent.values)
    ]
    return Solution(
        status=SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE,
        objective=program.objective_value(values),
        values=values,
        iterations=nodes,
        metadata={"nodes": nodes},
    )

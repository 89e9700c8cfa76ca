"""A from-scratch dense two-phase simplex solver: the LP reference oracle.

The planner solves every LP with HiGHS (:mod:`repro.solver`).  This module
is an independent implementation the solver tests check HiGHS against: the
classic two-phase primal simplex on a dense tableau with Bland's
anti-cycling rule, meant for small programs (a few hundred variables).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import IterationLimitError
from repro.solver.model import LinearProgram
from repro.solver.result import Solution, SolveStatus

__all__ = ["solve_lp_simplex"]

_TOL = 1e-9


class _StandardForm:
    """Conversion of a natural-form LP to ``min c'x, Ax = b, x >= 0``."""

    def __init__(self, program: LinearProgram) -> None:
        self.program = program
        n = program.num_variables
        # Column bookkeeping: each original variable maps to either one
        # shifted column (finite lower bound) or a pair of columns (free).
        self.shift = np.zeros(n)
        self.pos_col = np.full(n, -1, dtype=int)
        self.neg_col = np.full(n, -1, dtype=int)
        columns = 0
        for v in program.variables:
            if v.lower == -math.inf:
                self.pos_col[v.index] = columns
                self.neg_col[v.index] = columns + 1
                columns += 2
            else:
                self.shift[v.index] = v.lower
                self.pos_col[v.index] = columns
                columns += 1
        self.num_structural = columns

        rows: list[np.ndarray] = []
        senses: list[str] = []
        rhs: list[float] = []

        def add_row(coeffs: dict[int, float], sense: str, value: float) -> None:
            row = np.zeros(self.num_structural)
            offset = 0.0
            for idx, coeff in coeffs.items():
                row[self.pos_col[idx]] += coeff
                if self.neg_col[idx] >= 0:
                    row[self.neg_col[idx]] -= coeff
                offset += coeff * self.shift[idx]
            rows.append(row)
            senses.append(sense)
            rhs.append(value - offset)

        for constraint in program.constraints:
            add_row(dict(constraint.coefficients), constraint.sense, constraint.rhs)
        # Finite upper bounds become explicit <= rows on the shifted variable.
        for v in program.variables:
            if v.upper != math.inf:
                add_row({v.index: 1.0}, "<=", v.upper)

        self.rows = rows
        self.senses = senses
        self.rhs = rhs

        # Objective in min-sense over structural columns.
        self.c = np.zeros(self.num_structural)
        self.obj_offset = program.objective_constant
        sign = -1.0 if program.maximize else 1.0
        for idx, coeff in program.objective.items():
            self.c[self.pos_col[idx]] += sign * coeff
            if self.neg_col[idx] >= 0:
                self.c[self.neg_col[idx]] -= sign * coeff
            self.obj_offset += 0.0
            # constant from the shift is folded back when recovering values
        self.obj_shift = sum(
            coeff * self.shift[idx] for idx, coeff in program.objective.items()
        )

    def recover(self, x_structural: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to original variable values."""
        n = self.program.num_variables
        values = np.zeros(n)
        for i in range(n):
            value = x_structural[self.pos_col[i]]
            if self.neg_col[i] >= 0:
                value -= x_structural[self.neg_col[i]]
            else:
                value += self.shift[i]
            values[i] = value
        return values


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    max_iterations: int,
) -> tuple[str, int]:
    """Run primal simplex iterations on an (m x n+1) tableau.

    ``cost`` is the reduced-cost row (length n+1, last entry = -objective).
    Returns (status, iterations) with status in {"optimal", "unbounded"}.
    """
    m, width = tableau.shape
    iterations = 0
    while True:
        if iterations >= max_iterations:
            raise IterationLimitError(
                f"simplex exceeded {max_iterations} iterations"
            )
        # Bland's rule: smallest index with negative reduced cost.
        entering = -1
        for j in range(width - 1):
            if cost[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return "optimal", iterations
        # Ratio test.
        best_ratio = math.inf
        leaving = -1
        for r in range(m):
            a = tableau[r, entering]
            if a > _TOL:
                ratio = tableau[r, -1] / a
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded", iterations
        _pivot(tableau, basis, leaving, entering)
        cost -= cost[entering] * tableau[leaving]
        iterations += 1


def solve_lp_simplex(
    program: LinearProgram, max_iterations: int = 50_000
) -> Solution:
    """Solve an LP with the from-scratch two-phase simplex.

    Integrality constraints are ignored (this is an LP solver); use
    :func:`tests.oracles.branch_and_bound.solve_ilp_branch_and_bound` for
    integer programs.
    """
    std = _StandardForm(program)
    m = len(std.rows)
    n = std.num_structural

    if m == 0:
        # Unconstrained besides bounds: each variable sits at whichever finite
        # bound minimizes the objective; unbounded if a favourable direction
        # has no finite bound.
        values = []
        sign = -1.0 if program.maximize else 1.0
        objective = program.objective
        for v in program.variables:
            coeff = sign * objective.get(v.index, 0.0)
            if coeff > 0:
                target = v.lower
            elif coeff < 0:
                target = v.upper
            else:
                target = v.lower if v.lower != -math.inf else 0.0
            if target in (math.inf, -math.inf):
                return Solution(status=SolveStatus.UNBOUNDED)
            values.append(target)
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=program.objective_value(values),
            values=list(values),
        )

    # Build equality system with slack/surplus columns, RHS >= 0.
    slack_count = sum(1 for s in std.senses if s in ("<=", ">="))
    total = n + slack_count
    a = np.zeros((m, total))
    b = np.zeros(m)
    slack_col = n
    for r, (row, sense, rhs) in enumerate(zip(std.rows, std.senses, std.rhs)):
        a[r, :n] = row
        b[r] = rhs
        if sense == "<=":
            a[r, slack_col] = 1.0
            slack_col += 1
        elif sense == ">=":
            a[r, slack_col] = -1.0
            slack_col += 1
    negative = b < 0
    a[negative] *= -1
    b[negative] *= -1

    # Phase 1: minimize the sum of artificial variables.
    tableau = np.zeros((m, total + m + 1))
    tableau[:, :total] = a
    tableau[:, -1] = b
    basis = np.zeros(m, dtype=int)
    for r in range(m):
        tableau[r, total + r] = 1.0
        basis[r] = total + r
    phase1_cost = np.zeros(total + m + 1)
    phase1_cost[total : total + m] = 1.0
    # Price out the artificial basis.
    for r in range(m):
        phase1_cost -= tableau[r]
    status, it1 = _run_simplex(tableau, basis, phase1_cost, max_iterations)
    phase1_objective = -phase1_cost[-1]
    if phase1_objective > 1e-6:
        return Solution(status=SolveStatus.INFEASIBLE, iterations=it1)

    # Drive any remaining artificial variables out of the basis.
    for r in range(m):
        if basis[r] >= total:
            pivot_col = -1
            for j in range(total):
                if abs(tableau[r, j]) > 1e-7:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)

    # Phase 2 on the original objective (drop artificial columns).
    keep = list(range(total)) + [total + m]
    tableau2 = tableau[:, keep].copy()
    basis2 = basis.copy()
    redundant = [r for r in range(m) if basis2[r] >= total]
    if redundant:
        keep_rows = [r for r in range(m) if r not in redundant]
        tableau2 = tableau2[keep_rows]
        basis2 = basis2[keep_rows]
    cost = np.zeros(total + 1)
    cost[:n] = std.c
    for r, col in enumerate(basis2):
        if abs(cost[col]) > _TOL:
            cost -= cost[col] * tableau2[r]
    status, it2 = _run_simplex(tableau2, basis2, cost, max_iterations)
    if status == "unbounded":
        return Solution(status=SolveStatus.UNBOUNDED, iterations=it1 + it2)

    x = np.zeros(total)
    for r, col in enumerate(basis2):
        if col < total:
            x[col] = tableau2[r, -1]
    values = std.recover(x[:n])
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=program.objective_value(values),
        values=values.tolist(),
        iterations=it1 + it2,
    )

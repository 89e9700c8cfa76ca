"""SciPy (HiGHS) backends for :class:`~repro.solver.model.LinearProgram`.

These wrappers translate the natural-form model into the matrix form SciPy
expects.  They are the only solvers the library runs; the test suite checks
them against from-scratch simplex and branch & bound oracles.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
from scipy import optimize, sparse

from repro.errors import SolverError
from repro.solver.model import LinearProgram
from repro.solver.result import Solution, SolveStatus

__all__ = ["solve_lp_scipy", "solve_milp_scipy", "solve_lp_arrays"]


@contextlib.contextmanager
def _silence_native_stdout():
    """Temporarily redirect the C-level stdout to /dev/null.

    HiGHS occasionally prints diagnostic lines from its MIP presolve directly
    to the process stdout, bypassing Python's ``sys.stdout``; this keeps the
    benchmark and CLI output clean.
    """
    try:
        stdout_fd = sys.stdout.fileno()
    except (OSError, ValueError, AttributeError):
        yield
        return
    saved_fd = os.dup(stdout_fd)
    try:
        with open(os.devnull, "wb") as devnull:
            sys.stdout.flush()
            os.dup2(devnull.fileno(), stdout_fd)
            yield
    finally:
        # ``saved_fd`` must be closed even if the flush or the restoring dup2
        # raises, otherwise every failed solve leaks one descriptor.
        try:
            sys.stdout.flush()
            os.dup2(saved_fd, stdout_fd)
        finally:
            os.close(saved_fd)


def _build_matrices(program: LinearProgram):
    """Split constraints into (A_ub, b_ub) and (A_eq, b_eq) sparse matrices."""
    n = program.num_variables
    ub_rows, ub_cols, ub_vals, b_ub = [], [], [], []
    eq_rows, eq_cols, eq_vals, b_eq = [], [], [], []
    for constraint in program.constraints:
        if constraint.sense == "==":
            row = len(b_eq)
            for idx, coeff in constraint.coefficients:
                eq_rows.append(row)
                eq_cols.append(idx)
                eq_vals.append(coeff)
            b_eq.append(constraint.rhs)
        else:
            sign = 1.0 if constraint.sense == "<=" else -1.0
            row = len(b_ub)
            for idx, coeff in constraint.coefficients:
                ub_rows.append(row)
                ub_cols.append(idx)
                ub_vals.append(sign * coeff)
            b_ub.append(sign * constraint.rhs)
    a_ub = (
        sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n))
        if b_ub
        else None
    )
    a_eq = (
        sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n))
        if b_eq
        else None
    )
    return a_ub, np.asarray(b_ub, dtype=float), a_eq, np.asarray(b_eq, dtype=float)


def _objective_vector(program: LinearProgram) -> np.ndarray:
    c = np.zeros(program.num_variables)
    for idx, coeff in program.objective.items():
        c[idx] = coeff
    if program.maximize:
        c = -c
    return c


def _finalize(program: LinearProgram, values: np.ndarray) -> float:
    return float(program.objective_value(values))


def _linprog_solution(result, objective_of) -> Solution:
    """Map a ``linprog`` result to a :class:`Solution` (shared by both paths).

    ``objective_of`` computes the objective in the caller's original
    optimization sense from the solution vector.
    """
    if result.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE, metadata={"message": result.message})
    if result.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED, metadata={"message": result.message})
    if not result.success:
        raise SolverError(f"linprog failed: {result.message}")
    values = np.asarray(result.x, dtype=float)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(objective_of(values)),
        values=values.tolist(),
        iterations=int(getattr(result, "nit", 0) or 0),
        metadata={"message": result.message},
    )


def solve_lp_scipy(program: LinearProgram) -> Solution:
    """Solve the LP relaxation of ``program`` with HiGHS ``linprog``."""
    c = _objective_vector(program)
    a_ub, b_ub, a_eq, b_eq = _build_matrices(program)
    bounds = [
        (v.lower, None if v.upper == float("inf") else v.upper)
        for v in program.variables
    ]
    result = optimize.linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=bounds,
        method="highs",
    )
    return _linprog_solution(result, lambda values: _finalize(program, values))


def solve_lp_arrays(
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    maximize: bool = False,
) -> Solution:
    """Solve an LP given directly in matrix form (no ``LinearProgram`` object).

    This is the fast path used by callers that assemble (and re-slice) their
    constraint matrices themselves, e.g. the cached simplified-formulation
    structure of the successive-rounding loop.  ``a_ub`` may be any SciPy
    sparse matrix (or ``None`` for a bounds-only problem); ``lower``/``upper``
    are per-variable bound vectors (``np.inf`` for unbounded).
    """
    cost = -c if maximize else c
    bounds = np.column_stack((lower, upper))
    b = b_ub if a_ub is not None else None
    result = optimize.linprog(cost, A_ub=a_ub, b_ub=b, bounds=bounds, method="highs")
    return _linprog_solution(result, lambda values: c @ values)


def solve_milp_scipy(
    program: LinearProgram,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    node_limit: int | None = None,
) -> Solution:
    """Solve the mixed-integer program with HiGHS ``milp``.

    ``mip_rel_gap`` accepts an early-stop relative optimality gap (e.g. 0.02
    for 2 %); the heuristic stages of E-BLOW use it because a near-optimal
    assignment is refined further downstream anyway.  ``node_limit`` stops
    the branch & bound after that many nodes: unlike ``time_limit``, the
    incumbent it returns does not depend on how fast the host runs.
    """
    c = _objective_vector(program)
    a_ub, b_ub, a_eq, b_eq = _build_matrices(program)
    constraints = []
    if a_ub is not None:
        constraints.append(
            optimize.LinearConstraint(a_ub, -np.inf * np.ones(len(b_ub)), b_ub)
        )
    if a_eq is not None:
        constraints.append(optimize.LinearConstraint(a_eq, b_eq, b_eq))
    integrality = np.array(
        [1 if v.is_integer else 0 for v in program.variables], dtype=int
    )
    bounds = optimize.Bounds(
        np.array([v.lower for v in program.variables], dtype=float),
        np.array(
            [v.upper if v.upper != float("inf") else np.inf for v in program.variables],
            dtype=float,
        ),
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    with _silence_native_stdout():
        result = optimize.milp(
            c,
            constraints=constraints or None,
            integrality=integrality,
            bounds=bounds,
            options=options or None,
        )
    if result.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE, metadata={"message": result.message})
    if result.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED, metadata={"message": result.message})
    if result.x is None:
        return Solution(status=SolveStatus.ERROR, metadata={"message": result.message})
    values = np.asarray(result.x, dtype=float)
    status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
    return Solution(
        status=status,
        objective=_finalize(program, values),
        values=values.tolist(),
        iterations=int(getattr(result, "mip_node_count", 0) or 0),
        metadata={"message": result.message, "mip_gap": getattr(result, "mip_gap", None)},
    )

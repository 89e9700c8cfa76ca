"""Math-programming substrate (the library's replacement for GUROBI).

Provides a small natural-form model builder plus interchangeable backends:

* :func:`solve_lp` — linear programs (SciPy/HiGHS or from-scratch simplex),
* :func:`solve_ilp` — mixed-integer programs (SciPy/HiGHS ``milp`` or
  from-scratch branch & bound).
"""

from __future__ import annotations

from repro.solver.branch_and_bound import BranchAndBoundConfig, solve_ilp_branch_and_bound
from repro.solver.model import Constraint, LinearExpr, LinearProgram, Variable
from repro.solver.result import Solution, SolveStatus
from repro.solver.scipy_backend import solve_lp_arrays, solve_lp_scipy, solve_milp_scipy
from repro.solver.simplex import solve_lp_simplex

__all__ = [
    "LinearProgram",
    "LinearExpr",
    "Variable",
    "Constraint",
    "Solution",
    "SolveStatus",
    "BranchAndBoundConfig",
    "solve_lp",
    "solve_ilp",
    "solve_lp_arrays",
    "solve_lp_scipy",
    "solve_milp_scipy",
    "solve_lp_simplex",
    "solve_ilp_branch_and_bound",
]


def solve_lp(program: LinearProgram, backend: str = "scipy") -> Solution:
    """Solve a linear program with the chosen backend (``"scipy"`` or ``"simplex"``)."""
    if backend == "simplex":
        return solve_lp_simplex(program)
    return solve_lp_scipy(program)


def solve_ilp(
    program: LinearProgram,
    backend: str = "scipy",
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    node_limit: int | None = None,
) -> Solution:
    """Solve a mixed-integer program.

    Parameters
    ----------
    backend:
        ``"scipy"`` uses HiGHS ``milp``; ``"bnb"`` uses the from-scratch
        branch & bound (with HiGHS LP relaxations); ``"bnb-simplex"`` is the
        fully self-contained stack.
    mip_rel_gap:
        Optional early-stop relative gap (HiGHS backend only).
    node_limit:
        Optional branch & bound node cap (HiGHS backend only).
    """
    if node_limit is not None and backend != "scipy":
        raise ValueError(f"node_limit needs the scipy backend, not {backend!r}")
    if backend == "bnb":
        return solve_ilp_branch_and_bound(
            program, BranchAndBoundConfig(time_limit=time_limit)
        )
    if backend == "bnb-simplex":
        return solve_ilp_branch_and_bound(
            program,
            BranchAndBoundConfig(time_limit=time_limit, lp_backend="simplex"),
        )
    return solve_milp_scipy(
        program, time_limit=time_limit, mip_rel_gap=mip_rel_gap, node_limit=node_limit
    )

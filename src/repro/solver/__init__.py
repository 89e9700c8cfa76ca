"""Math-programming substrate (the library's replacement for GUROBI).

A small natural-form model builder solved by SciPy's HiGHS:

* :func:`solve_lp` — linear programs (HiGHS ``linprog``),
* :func:`solve_ilp` — mixed-integer programs (HiGHS ``milp``).
"""

from __future__ import annotations

from repro.solver.model import Constraint, LinearExpr, LinearProgram, Variable
from repro.solver.result import Solution, SolveStatus
from repro.solver.scipy_backend import solve_lp_arrays, solve_lp_scipy, solve_milp_scipy

__all__ = [
    "LinearProgram",
    "LinearExpr",
    "Variable",
    "Constraint",
    "Solution",
    "SolveStatus",
    "solve_lp",
    "solve_ilp",
    "solve_lp_arrays",
    "solve_lp_scipy",
    "solve_milp_scipy",
]

#: Solve a linear program with HiGHS ``linprog``.
solve_lp = solve_lp_scipy

#: Solve a mixed-integer program with HiGHS ``milp`` (``time_limit``,
#: ``mip_rel_gap`` and ``node_limit`` stop it early).
solve_ilp = solve_milp_scipy

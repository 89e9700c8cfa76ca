"""Property-based tests for the math-programming substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import LinearProgram, SolveStatus, solve_lp_scipy, solve_milp_scipy
from tests.oracles.branch_and_bound import solve_ilp_branch_and_bound
from tests.oracles.simplex import solve_lp_simplex


@st.composite
def bounded_lps(draw):
    """Random bounded-feasible LPs: maximize c'x over 0 <= x <= u, Ax <= b."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=4))
    lp = LinearProgram(maximize=True)
    for i in range(n):
        upper = draw(st.floats(min_value=0.5, max_value=10))
        lp.add_variable(f"x{i}", 0.0, upper)
    for _ in range(m):
        coeffs = {
            i: draw(st.floats(min_value=0.05, max_value=3)) for i in range(n)
        }
        rhs = draw(st.floats(min_value=1, max_value=30))
        lp.add_constraint(coeffs, "<=", rhs)
    lp.set_objective(
        {i: draw(st.floats(min_value=0.1, max_value=5)) for i in range(n)}
    )
    return lp


@given(lp=bounded_lps())
@settings(max_examples=40, deadline=None)
def test_simplex_agrees_with_highs(lp):
    ours = solve_lp_simplex(lp)
    reference = solve_lp_scipy(lp)
    assert ours.status == SolveStatus.OPTIMAL
    assert reference.status == SolveStatus.OPTIMAL
    assert abs(ours.objective - reference.objective) < 1e-5
    assert lp.is_feasible(ours.values, tol=1e-5)


@st.composite
def knapsacks(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = [draw(st.integers(min_value=1, max_value=12)) for _ in range(n)]
    profits = [draw(st.integers(min_value=1, max_value=15)) for _ in range(n)]
    capacity = draw(st.integers(min_value=1, max_value=max(2, sum(weights) // 2)))
    lp = LinearProgram(maximize=True)
    for i in range(n):
        lp.add_binary(f"a{i}")
    lp.add_constraint({i: float(w) for i, w in enumerate(weights)}, "<=", float(capacity))
    lp.set_objective({i: float(p) for i, p in enumerate(profits)})
    return lp, weights, profits, capacity


@given(problem=knapsacks())
@settings(max_examples=30, deadline=None)
def test_branch_and_bound_matches_dynamic_program(problem):
    lp, weights, profits, capacity = problem
    solution = solve_ilp_branch_and_bound(lp)
    assert solution.status == SolveStatus.OPTIMAL

    # Exact 0/1 knapsack dynamic program as an independent oracle.
    best = [0] * (capacity + 1)
    for w, p in zip(weights, profits):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + p)
    assert abs(solution.objective - best[capacity]) < 1e-6
    assert lp.is_feasible(solution.values)


@given(problem=knapsacks())
@settings(max_examples=20, deadline=None)
def test_highs_milp_matches_dynamic_program(problem):
    lp, weights, profits, capacity = problem
    solution = solve_milp_scipy(lp)
    best = [0] * (capacity + 1)
    for w, p in zip(weights, profits):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + p)
    assert abs(solution.objective - best[capacity]) < 1e-6

"""Unit tests for the from-scratch branch & bound oracle and ``solve_ilp``."""

import numpy as np
import pytest

from repro.solver import LinearProgram, SolveStatus, solve_ilp, solve_milp_scipy
from tests.oracles.branch_and_bound import (
    BranchAndBoundConfig,
    solve_ilp_branch_and_bound,
)


def knapsack_program(weights, profits, capacity):
    lp = LinearProgram(maximize=True)
    for i in range(len(weights)):
        lp.add_binary(f"a{i}")
    lp.add_constraint({i: w for i, w in enumerate(weights)}, "<=", capacity)
    lp.set_objective({i: p for i, p in enumerate(profits)})
    return lp


def test_small_knapsack_optimal():
    lp = knapsack_program([3, 4, 5, 6, 7], [4, 5, 6, 7, 9], 12)
    sol = solve_ilp_branch_and_bound(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(15.0)
    assert lp.is_feasible(sol.values)


def test_matches_highs_on_random_knapsacks():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = 10
        weights = rng.integers(2, 15, n).tolist()
        profits = rng.integers(1, 20, n).tolist()
        capacity = int(sum(weights) * 0.4)
        lp = knapsack_program(weights, profits, capacity)
        ours = solve_ilp_branch_and_bound(lp)
        reference = solve_milp_scipy(lp)
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


def test_infeasible_integer_program():
    lp = LinearProgram(maximize=True)
    a = lp.add_binary("a")
    b = lp.add_binary("b")
    lp.add_constraint({a: 1.0, b: 1.0}, ">=", 3.0)  # impossible for two binaries
    lp.set_objective({a: 1.0, b: 1.0})
    sol = solve_ilp_branch_and_bound(lp)
    assert sol.status == SolveStatus.INFEASIBLE


def test_mixed_integer_with_continuous_variables():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 0, 10)        # continuous
    b = lp.add_binary("b")
    lp.add_constraint({x: 1.0, b: 4.0}, "<=", 9.0)
    lp.set_objective({x: 1.0, b: 6.0})
    sol = solve_ilp_branch_and_bound(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.values[1] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(11.0)


def test_node_limit_returns_incumbent_or_error():
    lp = knapsack_program(list(range(2, 22)), list(range(3, 23)), 50)
    sol = solve_ilp_branch_and_bound(lp, BranchAndBoundConfig(max_nodes=3))
    assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.OPTIMAL, SolveStatus.ERROR)


def test_simplex_backed_branch_and_bound():
    lp = knapsack_program([3, 5, 7], [3, 6, 7], 10)
    sol = solve_ilp_branch_and_bound(lp, BranchAndBoundConfig(lp_backend="simplex"))
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(10.0)  # items of weight 3 and 7


def test_solve_ilp_dispatch():
    """``solve_ilp`` (HiGHS) and both branch & bound stacks agree."""
    lp = knapsack_program([2, 3], [2, 5], 3)
    for sol in (
        solve_ilp(lp),
        solve_ilp_branch_and_bound(lp),
        solve_ilp_branch_and_bound(lp, BranchAndBoundConfig(lp_backend="simplex")),
    ):
        assert sol.objective == pytest.approx(5.0)


def test_solve_ilp_node_limit_is_scipy_only():
    """The load-independent node cap is a HiGHS option of ``solve_ilp``."""
    lp = knapsack_program([2, 3], [2, 5], 3)
    assert solve_ilp(lp, node_limit=50).objective == pytest.approx(5.0)

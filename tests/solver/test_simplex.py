"""Unit tests for the from-scratch simplex oracle."""

import numpy as np
import pytest

from repro.solver import LinearProgram, SolveStatus, solve_lp_scipy
from tests.oracles.simplex import solve_lp_simplex


def test_simple_maximization():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 0, 4)
    y = lp.add_variable("y", 0, 6)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 8.0)
    lp.set_objective({x: 3.0, y: 2.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    # x = 4 (its bound), then y = 8 - 4 = 4: objective 3*4 + 2*4 = 20.
    assert sol.objective == pytest.approx(20.0)
    assert sol.values == pytest.approx([4.0, 4.0])


def test_minimization_with_equality_and_geq():
    lp = LinearProgram(maximize=False)
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0, y: 1.0}, "==", 10.0)
    lp.add_constraint({x: 1.0}, ">=", 3.0)
    lp.set_objective({x: 2.0, y: 1.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(13.0)
    assert sol.values[0] == pytest.approx(3.0)


def test_infeasible_detection():
    lp = LinearProgram()
    x = lp.add_variable("x", 0, 1)
    lp.add_constraint({x: 1.0}, ">=", 5.0)
    lp.set_objective({x: 1.0})
    assert solve_lp_simplex(lp).status == SolveStatus.INFEASIBLE


def test_unbounded_detection():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({y: 1.0}, "<=", 1.0)
    lp.set_objective({x: 1.0})
    assert solve_lp_simplex(lp).status == SolveStatus.UNBOUNDED


def test_no_constraints_uses_bounds():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 1, 7)
    y = lp.add_variable("y", 0, 3)
    lp.set_objective({x: 1.0, y: -1.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([7.0, 0.0])


def test_free_variable_handling():
    lp = LinearProgram(maximize=False)
    x = lp.add_variable("x", -float("inf"), float("inf"))
    lp.add_constraint({x: 1.0}, ">=", -4.0)
    lp.set_objective({x: 1.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-4.0)


def test_shifted_lower_bounds():
    lp = LinearProgram(maximize=False)
    x = lp.add_variable("x", 2, 10)
    y = lp.add_variable("y", 3, 10)
    lp.add_constraint({x: 1.0, y: 1.0}, ">=", 7.0)
    lp.set_objective({x: 1.0, y: 2.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(4.0 + 6.0)
    assert sol.values[0] == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    lp = LinearProgram(maximize=bool(seed % 2))
    n = 8
    for i in range(n):
        lp.add_variable(f"x{i}", 0, float(rng.uniform(1, 10)))
    for _ in range(5):
        coeffs = {i: float(rng.uniform(0.1, 3)) for i in range(n)}
        lp.add_constraint(coeffs, "<=", float(rng.uniform(5, 25)))
    lp.set_objective({i: float(rng.uniform(0.5, 2)) for i in range(n)})
    ours = solve_lp_simplex(lp)
    reference = solve_lp_scipy(lp)
    assert ours.status == reference.status == SolveStatus.OPTIMAL
    assert ours.objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-6)
    assert lp.is_feasible(ours.values)

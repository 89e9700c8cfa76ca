"""Cross-solver equivalence: the simplex oracle vs SciPy/HiGHS.

Focuses on the awkward corners: degenerate vertices (redundant/tied
constraints), free variables (lower bound -inf), and zero-objective
feasibility problems.  Also checks that the COO-assembled simplified-LP
structure solves to the same optimum as the object-based formulation.
"""

import math

import pytest

from repro.core.onedim.formulation import (
    SimplifiedLPStructure,
    build_simplified_formulation,
)
from repro.core.profits import compute_profits
from repro.solver import LinearProgram, SolveStatus, solve_lp, solve_lp_scipy
from repro.workloads import generate_1d_instance
from tests.oracles.simplex import solve_lp_simplex


def assert_backends_agree(lp: LinearProgram):
    scipy_sol = solve_lp_scipy(lp)
    simplex_sol = solve_lp_simplex(lp)
    assert simplex_sol.status == scipy_sol.status
    if scipy_sol.status == SolveStatus.OPTIMAL:
        assert simplex_sol.objective == pytest.approx(scipy_sol.objective, abs=1e-6)
        assert lp.is_feasible(simplex_sol.values)


def test_degenerate_vertex_redundant_constraints():
    # Three constraints meeting at the same optimal vertex (2, 2).
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0)
    lp.add_constraint({x: 1.0}, "<=", 2.0)
    lp.add_constraint({x: 2.0, y: 2.0}, "<=", 8.0)  # redundant duplicate facet
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0)  # exact duplicate
    lp.set_objective({x: 1.0, y: 1.0})
    assert_backends_agree(lp)
    assert solve_lp_simplex(lp).objective == pytest.approx(4.0)


def test_degenerate_zero_rhs():
    # A vertex where a basic variable sits at 0 (classic degeneracy trigger).
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0, y: -1.0}, "<=", 0.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0)
    lp.add_constraint({x: 1.0}, ">=", 0.0)
    lp.set_objective({x: 2.0, y: 1.0})
    assert_backends_agree(lp)


def test_free_variable_lp():
    lp = LinearProgram()
    x = lp.add_variable("x", lower=-math.inf)  # free
    y = lp.add_variable("y", 0.0)
    lp.add_constraint({x: 1.0, y: 1.0}, ">=", 2.0)
    lp.add_constraint({x: 1.0, y: -1.0}, "<=", 4.0)
    lp.set_objective({x: 1.0, y: 2.0})
    assert_backends_agree(lp)
    sol = solve_lp_simplex(lp)
    # Optimum drives x negative? No: min x + 2y s.t. x + y >= 2 -> x = 2, y = 0.
    assert sol.objective == pytest.approx(2.0)


def test_free_variable_negative_optimum():
    lp = LinearProgram()
    x = lp.add_variable("x", lower=-math.inf, upper=math.inf)
    lp.add_constraint({x: 1.0}, ">=", -5.0)
    lp.set_objective({x: 1.0})
    sol = solve_lp_simplex(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-5.0)
    assert_backends_agree(lp)


def test_zero_objective_feasibility_problem():
    lp = LinearProgram()
    x = lp.add_variable("x", 0, 1)
    y = lp.add_variable("y", 0, 1)
    lp.add_constraint({x: 1.0, y: 1.0}, "==", 1.0)
    lp.set_objective({})
    assert_backends_agree(lp)


def test_tied_ratio_degenerate_pivots():
    # Multiple identical ratio-test ties in a row (exercises Bland's rule).
    lp = LinearProgram(maximize=True)
    xs = [lp.add_variable(f"x{i}", 0, 1) for i in range(4)]
    for i in range(3):
        lp.add_constraint({xs[i]: 1.0, xs[i + 1]: 1.0}, "<=", 1.0)
    lp.set_objective({v: 1.0 for v in xs})
    assert_backends_agree(lp)
    assert solve_lp_simplex(lp).objective == pytest.approx(2.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simplified_structure_matches_object_formulation(seed):
    """COO-structure LP == object-built LP on randomized instances."""
    instance = generate_1d_instance(
        num_characters=25,
        num_regions=3,
        seed=seed,
        stencil_width=200.0,
        stencil_height=120.0,
        name=f"equiv-{seed}",
    )
    profits = compute_profits(instance)
    num_rows = instance.row_count()
    characters = list(range(instance.num_characters))
    row_capacity = [instance.stencil.width] * num_rows
    row_min_blank = [0.0] * num_rows

    formulation = build_simplified_formulation(
        instance, profits, characters, row_capacity, row_min_blank, relax=True
    )
    reference = solve_lp(formulation.program)
    assert reference.status == SolveStatus.OPTIMAL

    structure = SimplifiedLPStructure(instance, characters, row_capacity)
    values = structure.solve_relaxation(
        profits, row_capacity, row_min_blank, set(characters)
    )
    assert set(values) == set(formulation.assign_index)
    objective = sum(profits[i] * v for (i, _), v in values.items())
    assert objective == pytest.approx(reference.objective, rel=1e-7, abs=1e-7)

    # Retiring characters (smaller unsolved set) matches a fresh object build.
    unsolved = set(characters[::2])
    values2 = structure.solve_relaxation(
        profits, row_capacity, row_min_blank, unsolved
    )
    formulation2 = build_simplified_formulation(
        instance, profits, sorted(unsolved), row_capacity, row_min_blank, relax=True
    )
    reference2 = solve_lp(formulation2.program)
    objective2 = sum(profits[i] * v for (i, _), v in values2.items())
    assert objective2 == pytest.approx(reference2.objective, rel=1e-7, abs=1e-7)
    assert set(values2) == set(formulation2.assign_index)

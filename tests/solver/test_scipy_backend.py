"""Unit tests for the SciPy/HiGHS backends."""

import os

import pytest

from repro.solver import LinearProgram, SolveStatus, solve_lp, solve_lp_scipy, solve_milp_scipy
from repro.solver.scipy_backend import _silence_native_stdout
from tests.oracles.simplex import solve_lp_simplex


def _open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else -1


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to count descriptors"
)
def test_silence_native_stdout_does_not_leak_fds():
    # Warm up any lazily opened resources, then assert a stable fd count
    # across many uses of the redirection context — including when the body
    # raises, which must still restore and close the saved descriptor.
    with _silence_native_stdout():
        pass
    before = _open_fd_count()
    for _ in range(50):
        with _silence_native_stdout():
            print("swallowed")
        with pytest.raises(RuntimeError):
            with _silence_native_stdout():
                raise RuntimeError("boom")
    assert _open_fd_count() == before


def test_lp_basic():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 0, 10)
    y = lp.add_variable("y", 0, 10)
    lp.add_constraint({x: 2.0, y: 1.0}, "<=", 14.0)
    lp.add_constraint({x: 1.0, y: 3.0}, "<=", 15.0)
    lp.set_objective({x: 3.0, y: 2.0})
    sol = solve_lp_scipy(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert lp.is_feasible(sol.values)
    # Optimum at the intersection of the two constraints: x = 5.4, y = 3.2.
    assert sol.objective == pytest.approx(22.6, rel=1e-6)


def test_lp_equality_constraints():
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0, y: 1.0}, "==", 4.0)
    lp.set_objective({x: 1.0, y: 3.0})
    sol = solve_lp_scipy(lp)
    assert sol.objective == pytest.approx(4.0)
    assert sol.values[0] == pytest.approx(4.0)


def test_lp_infeasible_and_unbounded():
    infeasible = LinearProgram()
    x = infeasible.add_variable("x", 0, 1)
    infeasible.add_constraint({x: 1.0}, ">=", 2.0)
    infeasible.set_objective({x: 1.0})
    assert solve_lp_scipy(infeasible).status == SolveStatus.INFEASIBLE

    unbounded = LinearProgram(maximize=True)
    y = unbounded.add_variable("y")
    unbounded.set_objective({y: 1.0})
    assert solve_lp_scipy(unbounded).status == SolveStatus.UNBOUNDED


def test_milp_respects_integrality():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 0, 10, is_integer=True)
    lp.add_constraint({x: 2.0}, "<=", 7.0)
    lp.set_objective({x: 1.0})
    sol = solve_milp_scipy(lp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.values[0] == pytest.approx(3.0)


def test_milp_objective_constant_preserved():
    lp = LinearProgram(maximize=True)
    x = lp.add_binary("x")
    lp.set_objective({x: 2.0}, constant=10.0)
    sol = solve_milp_scipy(lp)
    assert sol.objective == pytest.approx(12.0)


def test_solve_lp_dispatch_backends():
    """``solve_lp`` is HiGHS; the simplex oracle agrees with it."""
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", 0, 2)
    lp.set_objective({x: 1.0})
    assert solve_lp(lp).objective == pytest.approx(2.0)
    assert solve_lp_simplex(lp).objective == pytest.approx(2.0)


"""Unit tests for fast ILP convergence (Algorithm 2)."""

from repro.core.onedim.fast_convergence import FastConvergenceConfig, fast_ilp_convergence
from repro.core.onedim.successive_rounding import (
    SuccessiveRoundingConfig,
    initial_state,
    successive_rounding,
)


def rounded_state(instance, trigger=10):
    """Stop rounding early so plenty of characters remain for the ILP step."""
    state = initial_state(instance)
    successive_rounding(
        state, SuccessiveRoundingConfig(convergence_trigger=trigger, max_iterations=3)
    )
    return state


def test_assigns_more_characters(small_1d_instance):
    state = rounded_state(small_1d_instance)
    before = len(state.assignment)
    fast_ilp_convergence(state, FastConvergenceConfig())
    after = len(state.assignment)
    assert after >= before
    for row in state.rows:
        assert row.used_width <= row.capacity + 1e-6


def test_noop_when_everything_solved(small_1d_instance):
    state = initial_state(small_1d_instance)
    successive_rounding(state, SuccessiveRoundingConfig(convergence_trigger=0, max_iterations=50))
    unsolved_before = set(state.unsolved)
    if unsolved_before:
        # If the rounding left stragglers, convergence may still assign them;
        # the point of this test is the fully-solved early-return path, so
        # clear the leftovers explicitly.
        state.unsolved.clear()
    assignment_before = dict(state.assignment)
    fast_ilp_convergence(state)
    assert state.assignment == assignment_before


def test_upper_threshold_assigns_directly(small_mcc_instance):
    state = rounded_state(small_mcc_instance)
    # Force every remaining LP value above the "assign immediately" threshold.
    config = FastConvergenceConfig(lower_threshold=0.0, upper_threshold=0.0)
    before_unsolved = len(state.unsolved)
    fast_ilp_convergence(state, config)
    # All pairs were either assigned directly or dropped; rows stay legal.
    assert len(state.unsolved) <= before_unsolved
    for row in state.rows:
        assert row.used_width <= row.capacity + 1e-6


def test_respects_max_ilp_variables(small_mcc_instance):
    state = rounded_state(small_mcc_instance)
    config = FastConvergenceConfig(max_ilp_variables=3)
    fast_ilp_convergence(state, config)
    for row in state.rows:
        assert row.used_width <= row.capacity + 1e-6

"""Unit tests for successive rounding (Algorithm 1)."""

import pytest

from repro.core.onedim.successive_rounding import (
    SuccessiveRoundingConfig,
    initial_state,
    successive_rounding,
)


def run_rounding(instance, **config_kwargs):
    state = initial_state(instance)
    config = SuccessiveRoundingConfig(**config_kwargs)
    return successive_rounding(state, config)


class TestInitialState:
    def test_all_characters_start_unsolved(self, small_1d_instance):
        state = initial_state(small_1d_instance)
        assert len(state.unsolved) + len(state.rejected) == small_1d_instance.num_characters
        assert state.assignment == {}
        assert len(state.rows) == small_1d_instance.row_count()

    def test_oversized_characters_rejected_upfront(self, handmade_1d_instance):
        # Shrink the stencil so nothing fits.
        from repro.model import OSPInstance, StencilSpec

        inst = OSPInstance(
            name="tiny-stencil",
            characters=handmade_1d_instance.characters,
            regions=handmade_1d_instance.regions,
            stencil=StencilSpec(width=10.0, height=20.0, rows=2),
            kind="1D",
        )
        state = initial_state(inst)
        assert state.unsolved == set()
        assert len(state.rejected) == inst.num_characters


class TestRounding:
    def test_assigns_characters_within_row_capacity(self, small_1d_instance):
        state = run_rounding(small_1d_instance, convergence_trigger=0)
        assert state.assignment  # something was selected
        for row in state.rows:
            assert row.used_width <= row.capacity + 1e-6
        # Every assigned character is in exactly one row.
        assigned_names = [
            small_1d_instance.characters[i].name for i in state.assignment
        ]
        names_on_rows = [name for row in state.rows for name in row.names()]
        assert sorted(assigned_names) == sorted(names_on_rows)

    def test_unsolved_history_is_recorded_and_decreasing(self, small_mcc_instance):
        state = run_rounding(small_mcc_instance, convergence_trigger=0)
        history = state.unsolved_history
        assert history
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert state.lp_iterations == len(history)

    def test_last_lp_values_available_for_convergence(self, small_mcc_instance):
        state = run_rounding(small_mcc_instance, convergence_trigger=5)
        assert state.last_lp_values
        assert all(-1e-6 <= v <= 1 + 1e-6 for v in state.last_lp_values.values())

    def test_iteration_limit_respected(self, small_mcc_instance):
        state = run_rounding(small_mcc_instance, max_iterations=1, convergence_trigger=0)
        assert state.lp_iterations == 1


def test_lp_solve_times_recorded(small_1d_instance):
    """Each LP iteration's solve wall time lands in the state telemetry."""
    state = initial_state(small_1d_instance)
    successive_rounding(state, SuccessiveRoundingConfig())
    assert state.lp_iterations >= 1
    assert len(state.lp_solve_seconds) >= state.lp_iterations
    assert all(t >= 0.0 for t in state.lp_solve_seconds)

"""Unit tests for the generic (mutate/undo) simulated-annealing engine."""

import random

import pytest

from repro.floorplan import AnnealingSchedule, simulated_annealing_in_place


class _Step:
    """Reversible move on a one-element list state: add ``delta``."""

    kind = "step"

    def __init__(self, delta):
        self.delta = delta

    def apply(self, state):
        self.before = state[0]
        state[0] += self.delta

    def revert(self, state):
        state[0] = self.before


def _anneal(initial, cost, draw, schedule, seed):
    return simulated_annealing_in_place(
        state=[initial],
        cost=lambda s: cost(s[0]),
        propose=lambda s, rng: _Step(draw(rng)),
        snapshot=lambda s: s[0],
        schedule=schedule,
        rng=random.Random(seed),
    )


def test_minimizes_simple_quadratic():
    # State: an integer; cost: (x - 17)^2.
    result = _anneal(
        -40,
        lambda x: float((x - 17) ** 2),
        lambda rng: rng.choice([-3, -2, -1, 1, 2, 3]),
        AnnealingSchedule(
            initial_temperature=1.0,
            final_temperature=1e-3,
            cooling_rate=0.9,
            moves_per_temperature=50,
        ),
        seed=0,
    )
    assert abs(result.best_state - 17) <= 2
    assert result.best_cost <= 4.0
    assert result.moves > 0
    assert result.accepted <= result.moves
    assert len(result.cost_trace) >= 2


def test_best_cost_never_worse_than_initial():
    result = _anneal(
        10.0,
        float,
        lambda rng: rng.uniform(-1, 1),
        AnnealingSchedule(moves_per_temperature=5, cooling_rate=0.7),
        seed=1,
    )
    assert result.best_cost <= 10.0


def test_max_total_moves_limit():
    result = _anneal(
        0.0,
        abs,
        lambda rng: rng.uniform(-1, 1),
        AnnealingSchedule(moves_per_temperature=100, max_total_moves=37),
        seed=2,
    )
    assert result.moves == 37


def test_temperature_ladder_is_decreasing():
    schedule = AnnealingSchedule(initial_temperature=1.0, final_temperature=0.1, cooling_rate=0.5)
    ladder = list(schedule.temperatures())
    assert ladder == pytest.approx([1.0, 0.5, 0.25, 0.125])

"""Equivalence of the mutate/undo annealing engine with the copy engine.

The in-place engine must walk the *identical* trajectory as the copy-based
oracle (``tests/oracles/annealing.py``): same RNG consumption, same costs
(via the same incremental region-time updates and rebase points), same
acceptances — so with the same seed and schedule the best state and best
cost are bit-identical, not merely close.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.floorplan import (
    AnnealingSchedule,
    Block,
    FixedOutlinePacker,
    simulated_annealing_in_place,
)
from tests.oracles.annealing import CopyEngine


class _ToyTimeModel:
    """Multi-region model exercising the delta-cost protocol."""

    def __init__(self, names):
        self.names = list(names)
        self.vsb = np.array([500.0, 650.0, 430.0])
        self.rows = {
            name: np.array([float(i + 1), 2.0 * (i + 1), 0.5 * (i + 1)])
            for i, name in enumerate(self.names)
        }

    def vsb_times_array(self):
        return self.vsb

    def reduction_rows(self, names):
        return np.array([self.rows[name] for name in names])


def _blocks(n: int) -> dict[str, Block]:
    return {
        f"b{i:02d}": Block(f"b{i:02d}", 20 + (i % 7) * 3.7, 18 + (i % 5) * 4.1, 2, 2, 2, 2)
        for i in range(n)
    }


def _schedule() -> AnnealingSchedule:
    return AnnealingSchedule(
        initial_temperature=0.4,
        final_temperature=3e-3,
        cooling_rate=0.9,
        moves_per_temperature=40,
    )


# Moves in the whole ladder of _schedule(): 47 temperatures of 40 moves.
FULL_LADDER = 1880


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engines_visit_identical_best_states(seed):
    """Same seed + schedule -> bit-identical best state, cost, and trace."""
    blocks = _blocks(24)
    model = _ToyTimeModel(sorted(blocks))
    copy_packer = FixedOutlinePacker(90, 90, blocks, model)
    inc_packer = FixedOutlinePacker(90, 90, blocks, model)

    reference = CopyEngine(copy_packer).pack(schedule=_schedule(), seed=seed)
    incremental = inc_packer.pack(schedule=_schedule(), seed=seed)

    assert incremental.pair == reference.pair
    assert incremental.cost == reference.cost  # exact, not approx
    assert incremental.inside == reference.inside
    assert incremental.annealing.moves == reference.annealing.moves
    assert incremental.annealing.accepted == reference.annealing.accepted
    assert incremental.annealing.cost_trace == reference.annealing.cost_trace


# (blocks, outline side, seed): a start at the cost floor, and two searches
# that reach it after 671 and 1539 of the ladder's 1880 moves.
FLOOR_CASES = [(6, 100, 1), (7, 80, 1), (8, 80, 1)]


@pytest.mark.parametrize("n, side, seed", FLOOR_CASES)
def test_engines_stop_together_at_the_cost_floor(n, side, seed):
    """Both engines stop at the same move once every block fits, and the
    full ladder (no bound) ends at the same best state."""
    blocks = _blocks(n)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(side, side, blocks, model)

    reference = CopyEngine(FixedOutlinePacker(side, side, blocks, model)).pack(
        schedule=_schedule(), seed=seed
    )
    incremental = packer.pack(schedule=_schedule(), seed=seed)
    unbounded = CopyEngine(FixedOutlinePacker(side, side, blocks, model)).pack(
        schedule=_schedule(), seed=seed, bound=False
    )

    assert incremental.cost == reference.cost == packer.cost_floor()
    assert len(incremental.inside) == n
    assert incremental.pair == reference.pair == unbounded.pair
    assert incremental.annealing.moves == reference.annealing.moves < FULL_LADDER
    assert incremental.annealing.accepted == reference.annealing.accepted
    assert incremental.annealing.cost_trace == reference.annealing.cost_trace
    assert unbounded.cost == incremental.cost
    assert unbounded.annealing.moves == FULL_LADDER


def test_engines_identical_across_rebase_boundaries():
    """Equivalence holds when the delta-cost rebase fires mid-search."""

    class SmallRebase(FixedOutlinePacker):
        REBASE_INTERVAL = 13

    blocks = _blocks(16)
    model = _ToyTimeModel(sorted(blocks))
    reference = CopyEngine(SmallRebase(80, 80, blocks, model)).pack(
        schedule=_schedule(), seed=3
    )
    incremental = SmallRebase(80, 80, blocks, model).pack(schedule=_schedule(), seed=3)
    assert incremental.pair == reference.pair
    assert incremental.cost == reference.cost
    assert incremental.annealing.accepted == reference.annealing.accepted


def test_auto_engine_selects_incremental():
    """``pack`` runs the mutate/undo engine, the only one recording move kinds."""
    blocks = _blocks(6)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(90, 90, blocks, model)
    assert packer.pack(schedule=_schedule(), seed=0).annealing.move_stats
    assert CopyEngine(packer).pack(schedule=_schedule(), seed=0).annealing.move_stats == {}


def test_empty_block_set_returns_the_empty_packing():
    """No blocks, nothing to anneal: 0 moves, no events, cost of the empty set."""
    from repro.events import emitting

    seen = []
    packer = FixedOutlinePacker(10, 10, {}, _ToyTimeModel([]))
    with emitting(seen.append):
        result = packer.pack(schedule=_schedule(), seed=0)
    assert result.inside == {}
    assert result.packing.positions == {}
    assert result.annealing.moves == 0
    assert result.annealing.accepted == 0
    # The empty selection leaves every region at its pure-VSB time.
    assert result.cost == 650.0
    assert seen == []


def test_move_stats_cover_all_moves():
    blocks = _blocks(12)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(70, 70, blocks, model)
    result = packer.pack(schedule=_schedule(), seed=5)
    stats = result.annealing.move_stats
    assert set(stats) <= {"swap_positive", "swap_negative", "swap_both", "none"}
    assert sum(s.proposed for s in stats.values()) == result.annealing.moves
    assert sum(s.accepted for s in stats.values()) == result.annealing.accepted
    for s in stats.values():
        assert 0 <= s.improved <= s.accepted <= s.proposed
        assert 0.0 <= s.acceptance_rate <= 1.0


def test_single_block_runs_null_moves():
    """One block has nothing to swap: both engines walk the ladder in place.

    The block is larger than the outline, so the search never reaches its
    cost floor.
    """
    blocks = _blocks(1)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(10, 10, blocks, model)
    reference = CopyEngine(packer).pack(schedule=_schedule(), seed=0)
    incremental = packer.pack(schedule=_schedule(), seed=0)
    assert incremental.inside == {}
    assert incremental.cost == reference.cost > packer.cost_floor()
    assert incremental.annealing.moves == reference.annealing.moves == FULL_LADDER
    assert set(incremental.annealing.move_stats) == {"none"}


def test_single_block_that_fits_costs_no_move():
    """A lone block inside the outline starts at the cost floor: 0 moves."""
    from repro.events import emitting

    blocks = _blocks(1)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(90, 90, blocks, model)
    reference = CopyEngine(packer).pack(schedule=_schedule(), seed=0)
    seen = []
    with emitting(seen.append):
        incremental = packer.pack(schedule=_schedule(), seed=0)
    assert incremental.inside == {"b00": (0.0, 0.0)}
    assert incremental.cost == reference.cost == packer.cost_floor() == 648.0
    assert incremental.annealing.moves == reference.annealing.moves == 0
    assert incremental.annealing.accepted == 0
    assert incremental.annealing.move_stats == {}
    assert incremental.annealing.cost_trace == [incremental.cost]
    assert seen == []


class _NegativeRowModel(_ToyTimeModel):
    """The toy model with one block whose reduction row has a negative entry."""

    def __init__(self, names):
        super().__init__(names)
        self.rows[self.names[0]] = np.array([1.0, -2.0, 0.5])


class _NegativeFloorModel(_ToyTimeModel):
    """The toy model with reductions that take every region time below 0."""

    def __init__(self, names):
        super().__init__(names)
        self.vsb = np.array([0.5, 1.0, 0.25])


@pytest.mark.parametrize("model_class", [_NegativeRowModel, _NegativeFloorModel])
def test_model_outside_the_bound_argument_gets_no_bound(model_class):
    """A negative reduction entry or floor gives no bound: the search walks
    the whole ladder even though its start fits."""
    blocks = _blocks(1)
    model = model_class(sorted(blocks))
    packer = FixedOutlinePacker(90, 90, blocks, model)
    assert packer.cost_floor() is None
    assert CopyEngine(packer).cost_floor() is None
    result = packer.pack(schedule=_schedule(), seed=0)
    assert result.inside == {"b00": (0.0, 0.0)}
    assert result.annealing.moves == FULL_LADDER


class _Shift:
    """Reversible move on a one-element list state: add ``delta``."""

    kind = "shift"

    def __init__(self, delta):
        self.delta = delta

    def apply(self, state):
        self.before = state[0]
        state[0] += self.delta

    def revert(self, state):
        state[0] = self.before


def test_in_place_engine_generic_state():
    """The engine is generic: a toy integer state with mutate/undo moves."""

    def propose(state, rng):
        return _Shift(rng.choice([-3, -2, -1, 1, 2, 3]))

    result = simulated_annealing_in_place(
        state=[-40],
        cost=lambda s: float((s[0] - 17) ** 2),
        propose=propose,
        snapshot=lambda s: s[0],
        schedule=AnnealingSchedule(
            initial_temperature=1.0,
            final_temperature=1e-3,
            cooling_rate=0.9,
            moves_per_temperature=50,
        ),
        rng=random.Random(0),
    )
    assert abs(result.best_state - 17) <= 2
    assert result.best_cost <= 4.0
    assert result.move_stats["shift"].proposed == result.moves


def _walk(schedule):
    return simulated_annealing_in_place(
        state=[10.0],
        cost=lambda s: float(s[0]),
        propose=lambda s, rng: _Shift(rng.uniform(-1, 1)),
        snapshot=lambda s: s[0],
        schedule=schedule,
        rng=random.Random(1),
    )


def test_cost_trace_has_one_entry_per_temperature():
    result = _walk(AnnealingSchedule(moves_per_temperature=5, cooling_rate=0.7))
    # One entry per temperature plus the initial cost.
    temps = len(list(AnnealingSchedule(moves_per_temperature=5, cooling_rate=0.7).temperatures()))
    assert len(result.cost_trace) == temps + 1


def _walk_down(lower_bound):
    """A walk from 10 down by one per move, to a floor of ``lower_bound``."""
    return simulated_annealing_in_place(
        state=[10],
        cost=lambda s: float(s[0]),
        propose=lambda s, rng: _Shift(-1),
        snapshot=lambda s: s[0],
        schedule=AnnealingSchedule(moves_per_temperature=4, cooling_rate=0.5),
        rng=random.Random(1),
        lower_bound=lower_bound,
    )


def test_search_stops_on_the_move_that_reaches_its_lower_bound():
    """The 7th move reaches the bound: the stop comes mid-temperature, and
    the visited temperatures keep their trace entries, the partial one too."""
    result = _walk_down(3.0)
    assert result.best_state == 3
    assert result.best_cost == 3.0
    assert result.moves == result.accepted == 7
    assert result.cost_trace == [10.0, 6.0, 3.0]


def test_search_starting_at_its_lower_bound_makes_no_move():
    result = _walk_down(10.0)
    assert result.best_state == 10
    assert result.moves == 0
    assert result.cost_trace == [10.0]

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

    def __call__(self, selected):
        times = self.vsb.copy()
        for name in selected:
            times = times - self.rows[name]
        return float(times.max())


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_model", [True, False])
def test_engines_visit_identical_best_states(seed, with_model):
    """Same seed + schedule -> bit-identical best state, cost, and trace."""
    blocks = _blocks(24)
    model = _ToyTimeModel(sorted(blocks))
    kwargs = {"time_model": model} if with_model else {}
    copy_packer = FixedOutlinePacker(90, 90, blocks, writing_time_of=model, **kwargs)
    inc_packer = FixedOutlinePacker(90, 90, blocks, writing_time_of=model, **kwargs)

    reference = CopyEngine(copy_packer).pack(schedule=_schedule(), seed=seed)
    incremental = inc_packer.pack(schedule=_schedule(), seed=seed)

    assert incremental.pair == reference.pair
    assert incremental.cost == reference.cost  # exact, not approx
    assert incremental.inside == reference.inside
    assert incremental.annealing.moves == reference.annealing.moves
    assert incremental.annealing.accepted == reference.annealing.accepted
    assert incremental.annealing.cost_trace == reference.annealing.cost_trace


def test_engines_identical_across_rebase_boundaries():
    """Equivalence holds when the delta-cost rebase fires mid-search."""

    class SmallRebase(FixedOutlinePacker):
        REBASE_INTERVAL = 13

    blocks = _blocks(16)
    model = _ToyTimeModel(sorted(blocks))
    reference = CopyEngine(
        SmallRebase(80, 80, blocks, writing_time_of=model, time_model=model)
    ).pack(schedule=_schedule(), seed=3)
    incremental = SmallRebase(
        80, 80, blocks, writing_time_of=model, time_model=model
    ).pack(schedule=_schedule(), seed=3)
    assert incremental.pair == reference.pair
    assert incremental.cost == reference.cost
    assert incremental.annealing.accepted == reference.annealing.accepted


def test_auto_engine_selects_incremental():
    """``pack`` runs the mutate/undo engine, the only one recording move kinds."""
    blocks = _blocks(6)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(90, 90, blocks, writing_time_of=model, time_model=model)
    assert packer.pack(schedule=_schedule(), seed=0).annealing.move_stats
    assert CopyEngine(packer).pack(schedule=_schedule(), seed=0).annealing.move_stats == {}


def test_empty_block_set_returns_the_empty_packing():
    """No blocks, nothing to anneal: 0 moves, no events, cost of the empty set."""
    from repro.events import emitting

    seen = []
    packer = FixedOutlinePacker(10, 10, {}, writing_time_of=lambda s: 40.0 + len(s))
    with emitting(seen.append):
        result = packer.pack(schedule=_schedule(), seed=0)
    assert result.inside == {}
    assert result.packing.positions == {}
    assert result.annealing.moves == 0
    assert result.annealing.accepted == 0
    assert result.cost == packer.writing_time_of(set()) == 40.0
    assert seen == []


def test_move_stats_cover_all_moves():
    blocks = _blocks(12)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(70, 70, blocks, writing_time_of=model, time_model=model)
    result = packer.pack(schedule=_schedule(), seed=5)
    stats = result.annealing.move_stats
    assert set(stats) <= {"swap_positive", "swap_negative", "swap_both", "none"}
    assert sum(s.proposed for s in stats.values()) == result.annealing.moves
    assert sum(s.accepted for s in stats.values()) == result.annealing.accepted
    for s in stats.values():
        assert 0 <= s.improved <= s.accepted <= s.proposed
        assert 0.0 <= s.acceptance_rate <= 1.0


def test_single_block_runs_null_moves():
    """One block has nothing to swap: both engines walk the ladder in place."""
    blocks = _blocks(1)
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(90, 90, blocks, writing_time_of=model, time_model=model)
    reference = CopyEngine(packer).pack(schedule=_schedule(), seed=0)
    incremental = packer.pack(schedule=_schedule(), seed=0)
    assert incremental.cost == reference.cost
    assert incremental.annealing.moves == reference.annealing.moves > 0
    assert set(incremental.annealing.move_stats) == {"none"}


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


def test_trace_stride_samples_temperatures():
    """trace_stride=k keeps every k-th temperature (+ initial + final)."""
    dense = _walk(AnnealingSchedule(moves_per_temperature=2, cooling_rate=0.7))
    strided = _walk(
        AnnealingSchedule(moves_per_temperature=2, cooling_rate=0.7, trace_stride=4)
    )
    # Identical search; only the sampling density differs.
    assert strided.best_cost == dense.best_cost
    assert len(strided.cost_trace) < len(dense.cost_trace)
    # initial entry + one sample per 4 temperatures + the final state
    temps = len(dense.cost_trace) - 1
    expected = 1 + temps // 4 + (1 if temps % 4 else 0)
    assert len(strided.cost_trace) == expected
    # The strided trace is a subsequence anchored at the same endpoints.
    assert strided.cost_trace[0] == dense.cost_trace[0]
    assert strided.cost_trace[-1] == dense.cost_trace[-1]
    assert set(strided.cost_trace) <= set(dense.cost_trace)


def test_trace_stride_default_keeps_existing_behaviour():
    result = _walk(AnnealingSchedule(moves_per_temperature=5, cooling_rate=0.7))
    # One entry per temperature plus the initial cost (the pre-stride shape).
    temps = len(list(AnnealingSchedule(moves_per_temperature=5, cooling_rate=0.7).temperatures()))
    assert len(result.cost_trace) == temps + 1

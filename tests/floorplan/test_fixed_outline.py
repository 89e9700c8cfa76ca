"""Unit tests for the fixed-outline packer."""

import random

import numpy as np
import pytest

from repro.floorplan import Block, FixedOutlinePacker
from repro.floorplan.fixed_outline import _sample_two
from tests.oracles.annealing import CopyEngine, random_neighbor


class _CountModel:
    """Toy objective: the fewer blocks selected, the worse (100 - 10 each)."""

    def vsb_times_array(self):
        return np.array([100.0])

    def reduction_rows(self, names):
        return np.full((len(names), 1), 10.0)


def test_all_blocks_fit_small_case(fast_schedule):
    blocks = {f"b{i}": Block(f"b{i}", 20, 20, 2, 2, 2, 2) for i in range(4)}
    packer = FixedOutlinePacker(
        width=100, height=100, blocks=blocks, time_model=_CountModel()
    )
    result = packer.pack(schedule=fast_schedule, seed=1)
    assert set(result.inside) == set(blocks)
    assert result.cost == pytest.approx(60.0)


def test_outline_excludes_blocks_when_too_small(fast_schedule):
    blocks = {f"b{i}": Block(f"b{i}", 30, 30) for i in range(6)}
    packer = FixedOutlinePacker(width=60, height=60, blocks=blocks, time_model=_CountModel())
    result = packer.pack(schedule=fast_schedule, seed=2)
    # At most 4 blocks of 30x30 fit a 60x60 outline.
    assert 1 <= len(result.inside) <= 4
    for name, (x, y) in result.inside.items():
        block = blocks[name]
        assert x + block.width <= 60 + 1e-6
        assert y + block.height <= 60 + 1e-6


def test_empty_block_set(fast_schedule):
    packer = FixedOutlinePacker(width=10, height=10, blocks={}, time_model=_CountModel())
    result = packer.pack(schedule=fast_schedule, seed=0)
    assert result.inside == {}
    assert result.cost == pytest.approx(100.0)


def test_inside_blocks_positions_are_consistent(fast_schedule):
    blocks = {f"b{i}": Block(f"b{i}", 25, 25, 3, 3, 3, 3) for i in range(5)}
    packer = FixedOutlinePacker(width=80, height=80, blocks=blocks, time_model=_CountModel())
    result = packer.pack(schedule=fast_schedule, seed=3)
    for name, position in result.inside.items():
        assert result.packing.positions[name] == position


class _ToyTimeModel:
    """Two-region model: block b_i contributes (i+1, 2(i+1)) reduction."""

    def __init__(self, names):
        self.names = list(names)
        self.vsb = np.array([500.0, 650.0])
        self.rows = {
            name: np.array([float(i + 1), 2.0 * (i + 1)])
            for i, name in enumerate(self.names)
        }

    def vsb_times_array(self):
        return self.vsb

    def reduction_rows(self, names):
        return np.array([self.rows[name] for name in names])


def test_delta_cost_protocol_matches_full_evaluation(fast_schedule):
    """Incremental (delta-cost) annealing equals full re-evaluation exactly.

    The full re-score exists only in the copy-engine oracle (``cost_of``).
    """
    import random

    from repro.floorplan.sequence_pair import SequencePair

    blocks = {f"b{i}": Block(f"b{i}", 22 + i, 20, 2, 2, 2, 2) for i in range(8)}
    model = _ToyTimeModel(sorted(blocks))
    packer = FixedOutlinePacker(70, 70, blocks, model)

    rf = CopyEngine(packer).pack(schedule=fast_schedule, seed=5, delta=False)
    rd = packer.pack(schedule=fast_schedule, seed=5)
    assert rd.cost == pytest.approx(rf.cost, abs=1e-9)
    assert rd.pair == rf.pair

    # Move-by-move (the copy engine's cost path): delta_cost must equal
    # cost_of for arbitrary transitions (two engines: separate caches).
    delta_engine, full_engine = CopyEngine(packer), CopyEngine(packer)
    rng = random.Random(11)
    current = SequencePair.initial(sorted(blocks), rng)
    current_cost = delta_engine.cost_of(current)
    for _ in range(100):
        candidate = random_neighbor(current, rng)
        assert delta_engine.delta_cost(
            current, candidate, current_cost
        ) == pytest.approx(full_engine.cost_of(candidate), abs=1e-9)
        if rng.random() < 0.5:
            current = candidate
            current_cost = full_engine.cost_of(current)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 21, 22, 30, 48, 100])
def test_sample_two_matches_random_sample(n):
    """_sample_two consumes the RNG exactly like rng.sample(range(n), 2)."""
    for seed in range(10):
        reference = random.Random(seed)
        inlined = random.Random(seed)
        for _ in range(100):
            expected = tuple(reference.sample(range(n), 2))
            assert _sample_two(inlined, n) == expected
            assert inlined.getstate() == reference.getstate()

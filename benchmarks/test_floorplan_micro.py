"""Floorplan micro-benchmarks (regression tracking for the 2D hot path).

Three families:

* *Per-move packing* — the cost of evaluating one annealing move's packing
  at n≈64 blocks: the copy path re-runs the full O(n^2) longest-path DP
  (``PackingContext.pack_arrays``) per candidate, the incremental path
  (:class:`IncrementalPacker`) applies the move in place and recomputes only
  the dirty suffix.  Both are driven through the *same* move sequence, so
  the ratio of the two means is the per-move packing speedup recorded in
  the ``BENCH_<date>.json`` trajectory.
* *Annealing engines* — the end-to-end fixed-outline search with the
  copy-based reference engine (the oracle in ``tests/oracles/annealing.py``)
  vs. the planner's mutate/undo engine, identical seeds and schedules (the
  results are bit-identical; only the throughput differs).
* *Per-move cost by size* — the mutate/undo engine under the 2D planner's
  default schedule at n = 9 (a tiny 2T plan), 40 and 132 blocks, recorded
  as ``us_per_move``.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from repro.core.twodim.planner import EBlow2DConfig
from repro.floorplan import AnnealingSchedule, Block, FixedOutlinePacker, SequencePair
from repro.floorplan.packing import (
    IncrementalPacker,
    PackingContext,
    SwapBoth,
    SwapNegative,
    SwapPositive,
)
from tests.oracles.annealing import CopyEngine

N_BLOCKS = 64
N_MOVES = 300


def _random_blocks(n: int, seed: int = 2) -> dict[str, Block]:
    rng = random.Random(seed)
    return {
        f"b{i:03d}": Block(
            f"b{i:03d}",
            width=rng.uniform(20, 60),
            height=rng.uniform(20, 60),
            blank_left=rng.uniform(0, 6),
            blank_right=rng.uniform(0, 6),
            blank_top=rng.uniform(0, 6),
            blank_bottom=rng.uniform(0, 6),
        )
        for i in range(n)
    }


def _swap_moves(n: int, count: int, seed: int = 5) -> list[tuple[int, int, int]]:
    """The annealer's uniform move mix: swap-positive/negative/both."""
    rng = random.Random(seed)
    return [(rng.randrange(3), *rng.sample(range(n), 2)) for _ in range(count)]


def _run_full(context: PackingContext, pair: SequencePair, moves) -> float:
    acc = 0.0
    p = pair
    for kind, i, j in moves:
        if kind == 0:
            p = p.swap_positive(i, j)
        elif kind == 1:
            p = p.swap_negative(i, j)
        else:
            p = p.swap_both(p.positive[i], p.positive[j])
        x, _ = context.pack_arrays(p)
        acc += x[0]
    return acc


def _run_incremental(packer: IncrementalPacker, moves) -> float:
    acc = 0.0
    for kind, i, j in moves:
        if kind == 0:
            move = SwapPositive(i, j)
        elif kind == 1:
            move = SwapNegative(i, j)
        else:
            move = SwapBoth(i, j)
        move.apply(packer)
        acc += packer.width
    return acc


def test_micro_packing_full_per_move(benchmark):
    """Baseline: full DP re-pack for every move (the copy engine's cost)."""
    blocks = _random_blocks(N_BLOCKS)
    context = PackingContext(blocks)
    pair = SequencePair.initial(list(blocks), random.Random(1))
    moves = _swap_moves(N_BLOCKS, N_MOVES)
    total = benchmark(lambda: _run_full(context, pair, moves))
    assert total >= 0.0


def test_micro_packing_incremental_per_move(benchmark):
    """Dirty-suffix incremental packing for the identical move sequence."""
    blocks = _random_blocks(N_BLOCKS)
    context = PackingContext(blocks)
    pair = SequencePair.initial(list(blocks), random.Random(1))
    moves = _swap_moves(N_BLOCKS, N_MOVES)

    def run():
        packer = IncrementalPacker(context, pair)
        return _run_incremental(packer, moves)

    total = benchmark(run)
    assert total >= 0.0


def test_micro_packing_per_move_speedup(benchmark):
    """Record the per-move packing speedup (incremental vs. full re-pack)."""
    blocks = _random_blocks(N_BLOCKS)
    context = PackingContext(blocks)
    pair = SequencePair.initial(list(blocks), random.Random(1))
    moves = _swap_moves(N_BLOCKS, N_MOVES)

    start = time.perf_counter()
    _run_full(context, pair, moves)
    t_full = time.perf_counter() - start

    packer = IncrementalPacker(context, pair)
    rounds = 3
    start = time.perf_counter()
    for _ in range(rounds):
        _run_incremental(packer, moves)
    t_incremental = (time.perf_counter() - start) / rounds
    speedup = t_full / max(t_incremental, 1e-12)

    benchmark(lambda: _run_incremental(packer, moves))
    benchmark.extra_info["full_us_per_move"] = round(t_full / N_MOVES * 1e6, 1)
    benchmark.extra_info["incremental_us_per_move"] = round(
        t_incremental / N_MOVES * 1e6, 1
    )
    benchmark.extra_info["per_move_speedup"] = round(speedup, 2)
    # Generous floor: the honest win on the uniform swap mix is ~3-5x; the
    # assert only guards against the incremental path regressing to parity.
    assert speedup > 1.5


class _BenchTimeModel:
    """Synthetic two-region time model driving the delta-cost protocol."""

    def __init__(self, names):
        self.names = list(names)
        self.vsb = np.array([5000.0, 6500.0])
        self.rows = {
            name: np.array([float(i % 17 + 1), 2.0 * (i % 13 + 1)])
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


def _engine_packer() -> FixedOutlinePacker:
    blocks = _random_blocks(48, seed=3)
    model = _BenchTimeModel(sorted(blocks))
    return FixedOutlinePacker(
        220, 220, blocks, writing_time_of=model, time_model=model
    )


_ENGINE_SCHEDULE = AnnealingSchedule(
    initial_temperature=0.4,
    final_temperature=5e-3,
    cooling_rate=0.85,
    moves_per_temperature=40,
)


@pytest.mark.parametrize("n", [9, 40, 132])
def test_micro_annealing_per_move(benchmark, n):
    """Per-move cost of the incremental engine at the planner's schedule.

    The outline holds about 60 % of the block area, so moves keep changing
    which blocks fit, as in the planner's searches.  ``us_per_move`` is the
    fastest of three identical runs divided by its move count.
    """
    blocks = _random_blocks(n, seed=3)
    model = _BenchTimeModel(sorted(blocks))
    side = math.sqrt(0.6 * sum(b.width * b.height for b in blocks.values()))
    packer = FixedOutlinePacker(
        side, side, blocks, writing_time_of=model, time_model=model
    )
    schedule = EBlow2DConfig().resolved_schedule(n)
    result = benchmark.pedantic(
        lambda: packer.pack(schedule=schedule, seed=1),
        rounds=3,
        iterations=1,
    )
    moves = result.annealing.moves
    benchmark.extra_info["blocks"] = n
    benchmark.extra_info["moves"] = moves
    benchmark.extra_info["us_per_move"] = round(
        benchmark.stats.stats.min / moves * 1e6, 1
    )
    assert sum(s.proposed for s in result.annealing.move_stats.values()) == moves


@pytest.mark.parametrize("engine", ["copy", "incremental"])
def test_micro_annealing_engine(benchmark, engine):
    """Fixed-outline annealing throughput per engine (identical results)."""
    packer = _engine_packer()
    search = CopyEngine(packer) if engine == "copy" else packer
    result = benchmark.pedantic(
        lambda: search.pack(schedule=_ENGINE_SCHEDULE, seed=1),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["moves"] = result.annealing.moves
    benchmark.extra_info["best_cost"] = round(result.cost, 3)
    if engine == "copy":
        assert result.cost == packer.pack(schedule=_ENGINE_SCHEDULE, seed=1).cost

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
  copy-based reference engine vs. the mutate/undo engine, identical seeds
  and schedules (the results are bit-identical; only the throughput
  differs).
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
        lambda: packer.pack(schedule=schedule, seed=1, engine="incremental"),
        rounds=3,
        iterations=1,
    )
    moves = result.annealing.moves
    benchmark.extra_info["blocks"] = n
    benchmark.extra_info["moves"] = moves
    benchmark.extra_info["us_per_move"] = round(
        benchmark.stats.stats.min / moves * 1e6, 1
    )
    assert result.engine == "incremental"


@pytest.mark.parametrize("engine", ["copy", "incremental"])
def test_micro_annealing_engine(benchmark, engine):
    """Fixed-outline annealing throughput per engine (identical results)."""
    packer = _engine_packer()
    result = benchmark.pedantic(
        lambda: packer.pack(schedule=_ENGINE_SCHEDULE, seed=1, engine=engine),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["moves"] = result.annealing.moves
    benchmark.extra_info["best_cost"] = round(result.cost, 3)
    assert result.engine == engine


@pytest.mark.parametrize("chains", [1, 8, 32])
def test_micro_annealing_batched(benchmark, chains):
    """Batched multi-chain annealing throughput at K chains per dispatch.

    Chain ``c`` is seeded ``seed + c``, so K=1 is bit-identical to the
    incremental engine and each chain of a K>1 run is bit-identical to the
    corresponding solo run.  ``agg_moves_per_s`` is the aggregate move
    throughput (all chains); ``per_chain_moves_per_s`` divides by K.
    """
    packer = _engine_packer()
    result = benchmark.pedantic(
        lambda: packer.pack(
            schedule=_ENGINE_SCHEDULE, seed=1, engine="batched", chains=chains
        ),
        rounds=1,
        iterations=1,
    )
    batched = result.batched
    elapsed = max(benchmark.stats.stats.mean, 1e-12)
    agg_moves = batched.moves * chains
    benchmark.extra_info["chains"] = chains
    benchmark.extra_info["agg_moves"] = agg_moves
    benchmark.extra_info["agg_moves_per_s"] = round(agg_moves / elapsed, 1)
    benchmark.extra_info["per_chain_moves_per_s"] = round(
        agg_moves / elapsed / chains, 1
    )
    benchmark.extra_info["best_cost"] = round(result.cost, 3)
    assert result.engine == "batched"
    assert batched.chains == chains


def test_micro_annealing_batched_speedup(benchmark):
    """Gate: aggregate K=32 batched throughput vs. the same engine at K=1.

    One ufunc dispatch advances all 32 chains, so the per-move Python
    overhead is amortized K ways.  K=1 is the anchor: the same engine with
    nothing to amortize, so the ratio does not move when the single-chain
    incremental engine gets faster.  Over twelve runs on a 2-CPU VM, K=32
    reached 8.7-12.6x of K=1 (median 10.4x).  The floor keeps the margin
    of the earlier gate, 3.0 against a measured ~4.4x.  The ratio to the
    incremental engine is recorded, not gated.
    """
    packer = _engine_packer()

    def rate(engine: str, chains: int) -> float:
        start = time.perf_counter()
        result = packer.pack(
            schedule=_ENGINE_SCHEDULE, seed=1, engine=engine, chains=chains
        )
        elapsed = time.perf_counter() - start
        moves = result.batched.moves if result.batched else result.annealing.moves
        return moves * chains / max(elapsed, 1e-12)

    solo_rate = rate("incremental", 1)
    k1_rate = rate("batched", 1)
    chains = 32
    batched_rate = rate("batched", chains)
    speedup = batched_rate / max(k1_rate, 1e-12)

    benchmark.pedantic(
        lambda: packer.pack(
            schedule=_ENGINE_SCHEDULE, seed=1, engine="batched", chains=chains
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["incremental_moves_per_s"] = round(solo_rate, 1)
    benchmark.extra_info["batched_k1_moves_per_s"] = round(k1_rate, 1)
    benchmark.extra_info["batched_agg_moves_per_s"] = round(batched_rate, 1)
    benchmark.extra_info["agg_speedup_k32_vs_k1"] = round(speedup, 2)
    benchmark.extra_info["agg_speedup_k32"] = round(
        batched_rate / max(solo_rate, 1e-12), 2
    )
    assert speedup > 7.0

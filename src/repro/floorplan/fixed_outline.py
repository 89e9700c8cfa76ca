"""Fixed-outline, selection-aware floorplanning for OSP.

Following [24] (and Section 4.2 of the E-BLOW paper), the 2DOSP problem is
attacked as *fixed-outline floorplanning*: blocks are packed by a sequence
pair; any block whose placement falls outside the stencil outline is simply
**not selected** (it will be written by VSB).  The annealer therefore
minimizes the system writing time of the blocks that remain inside, with a
small area-efficiency term as a tie breaker.

The writing time comes from a *region-time model* (the pure-VSB region
times and one reduction vector per block, see :class:`RegionTimeModel`).
The packer scores moves incrementally: the per-region writing-time vector
of the current state is cached and each candidate is scored by applying
only the reduction rows of the blocks whose inside/outside status actually
changed — O(changed x P) instead of O(inside x P) per move, and no NumPy
call at all when no block entered or left the outline.  Only the blocks at
the positions the :class:`IncrementalPacker` reports as touched by the move
are re-tested.  The full re-score it is checked against lives in the
copy-engine oracle, ``tests/oracles/annealing.py``.

Once every block is inside with no overshoot, the cost sits at its floor
(:meth:`FixedOutlinePacker.cost_floor`) and the search stops there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.events import emit
from repro.floorplan.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    simulated_annealing_in_place,
)
from repro.floorplan.packing import (
    _REBASES,
    Block,
    IncrementalPacker,
    NullMove,
    PackingResult,
    SwapBoth,
    SwapNegative,
    SwapPositive,
    pack_sequence_pair,
)
from repro.floorplan.sequence_pair import SequencePair

__all__ = ["FixedOutlineResult", "FixedOutlinePacker", "RegionTimeModel"]


class RegionTimeModel(Protocol):
    """Protocol for vectorized per-region writing-time evaluation of blocks."""

    def vsb_times_array(self) -> np.ndarray:
        """``(P,)`` pure-VSB region writing times."""
        ...

    def reduction_rows(self, names: Sequence[str]) -> np.ndarray:
        """``(len(names), P)`` reduction vectors, one row per block name."""
        ...


@dataclass
class FixedOutlineResult:
    """Outcome of a fixed-outline packing run."""

    inside: dict[str, tuple[float, float]]  # block name -> position
    packing: PackingResult
    pair: SequencePair
    cost: float
    annealing: AnnealingResult


class FixedOutlinePacker:
    """Sequence-pair simulated annealing inside a fixed outline.

    Parameters
    ----------
    width, height:
        The stencil outline.
    blocks:
        Blocks to pack (characters or clusters).
    time_model:
        The :class:`RegionTimeModel` of the blocks: the writing time being
        minimized is the peak of its VSB region times less the reduction
        rows of the inside blocks.
    area_weight:
        Weight of the out-of-outline bounding-box penalty.
    """

    # Rebuild the cached region-time vector from scratch every this many
    # delta evaluations so floating-point drift stays bounded.
    REBASE_INTERVAL = 2048

    def __init__(
        self,
        width: float,
        height: float,
        blocks: Mapping[str, Block],
        time_model: RegionTimeModel,
        area_weight: float = 0.05,
    ) -> None:
        self.width = width
        self.height = height
        self.blocks = dict(blocks)
        self.area_weight = area_weight
        # Reduction rows aligned with the packer's canonical (sorted-name)
        # block order.
        self._model_reductions = np.asarray(
            time_model.reduction_rows(sorted(self.blocks)), dtype=float
        )
        self._model_vsb = np.asarray(time_model.vsb_times_array(), dtype=float)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def inside_blocks(self, packing: PackingResult) -> dict[str, tuple[float, float]]:
        """Blocks whose placement fits entirely inside the outline."""
        inside = {}
        for name, (x, y) in packing.positions.items():
            block = self.blocks[name]
            if x + block.width <= self.width + 1e-9 and y + block.height <= self.height + 1e-9:
                inside[name] = (x, y)
        return inside

    def _penalized_dims(
        self, writing_time: float, packed_width: float, packed_height: float
    ) -> float:
        """Writing time with the small out-of-outline bounding-box penalty.

        The pressure to shrink the overall bounding box helps more blocks
        migrate inside the outline in later moves.
        """
        overshoot = max(0.0, packed_width - self.width) + max(
            0.0, packed_height - self.height
        )
        return writing_time * (1.0 + self.area_weight * overshoot / max(self.width, 1.0))

    # ------------------------------------------------------------------ #
    # In-place (mutate/undo) engine
    # ------------------------------------------------------------------ #
    def _inplace_cost(self, packer: "_ScoredPacker") -> float:
        """Cost of the in-place search state's current configuration.

        The first call scores the full inside selection.  Every later call
        re-tests against the outline only the blocks at the positions the
        last move touched (every other block kept its coordinates) and
        scores the blocks that entered or left against the last *accepted*
        state, with a periodic rebase:

        * no block entered or left: the accepted state's cached peak, with
          no NumPy call;
        * one block entered (or left): its reduction row, applied directly;
        * two or more: ``reductions[rows].sum(axis=0)`` over the sorted row
          indices, the call a boolean mask would make, since NumPy's
          reduction order decides their float sum.

        This mirrors the copy engine of ``tests/oracles/annealing.py``
        operation for operation, so their trajectories are bit-identical.
        """
        if packer.inside is None:
            # Initial full evaluation.
            packer.inside = self._inside_flags(packer)
            packer.base_times = self._region_times(packer.inside)
            packer.base_peak = float(packer.base_times.max())
            return self._penalized_dims(packer.base_peak, packer.width, packer.height)
        packer.promote_pending()
        xs, ys, widths, heights = packer.xs, packer.ys, packer.widths, packer.heights
        width_limit = self.width + 1e-9
        height_limit = self.height + 1e-9
        inside = packer.inside
        order = packer.order
        entered = []
        left = []
        for p in packer.touched:
            c = order[p]
            fits = xs[c] + widths[c] <= width_limit and ys[c] + heights[c] <= height_limit
            if fits != inside[c]:
                (entered if fits else left).append(c)
        times = packer.base_times
        peak = packer.base_peak
        if entered or left:
            if entered:
                times = times - self._row_sum(entered)
            if left:
                times = times + self._row_sum(left)
            peak = float(times.max())
        packer.deltas_since_rebase += 1
        if packer.deltas_since_rebase >= self.REBASE_INTERVAL:
            packer.deltas_since_rebase = 0
            times = self._region_times(self._inside_flags(packer))
            peak = float(times.max())
            _REBASES.inc(scope="region-times")
            emit("rebase", scope="region-times", interval=self.REBASE_INTERVAL)
        packer.pending = (entered, left, times, peak)
        return self._penalized_dims(peak, packer.width, packer.height)

    def _row_sum(self, rows: list[int]) -> np.ndarray:
        """Sum of the reduction rows of the blocks ``rows`` (sorted in place)."""
        if len(rows) == 1:
            return self._model_reductions[rows[0]]
        rows.sort()
        return self._model_reductions[rows].sum(axis=0)

    def _inside_flags(self, packer: IncrementalPacker) -> list[bool]:
        """Per block (canonical order), whether it lies inside the outline."""
        width_limit = self.width + 1e-9
        height_limit = self.height + 1e-9
        return [
            x + w <= width_limit and y + h <= height_limit
            for x, y, w, h in zip(packer.xs, packer.ys, packer.widths, packer.heights)
        ]

    def _region_times(self, inside: list[bool]) -> np.ndarray:
        """Region times of a full inside selection, rows summed in index order."""
        rows = [c for c, flag in enumerate(inside) if flag]
        return self._model_vsb - self._model_reductions[rows].sum(axis=0)

    def cost_floor(self) -> float | None:
        """The least cost any packing can reach, or None when there is none to use.

        With every reduction entry ≥ 0, each block that enters the outline
        can only lower the region times, so every region time is at least
        its all-inside value and the writing time at least the all-inside
        peak.  When that peak is ≥ 0 too, the overshoot penalty factor
        (≥ 1) cannot take a cost below it.  So the all-inside peak is the
        floor, and a start that fits with no overshoot scores exactly it,
        because it is computed through the same :meth:`_region_times`.  A
        negative entry or floor breaks the argument: no bound.
        """
        if (self._model_reductions < 0).any():
            return None
        floor = float(self._region_times([True] * len(self.blocks)).max())
        return floor if floor >= 0 else None

    @staticmethod
    def _propose_swap(packer: IncrementalPacker, rng: random.Random):
        """Uniform swap proposal, RNG-compatible with the copy-engine oracle.

        Draws the random numbers of ``random_neighbor`` in
        ``tests/oracles/annealing.py`` and returns the matching packer move.
        The three swap moves of [24] are the only moves: each permutes the
        sequence pair and leaves every block's geometry alone, so the
        in-place engine snapshots *just* the sequence pair for best-state
        tracking and re-derives the final packing from ``self.blocks``.
        """
        size = packer.size
        if size < 2:
            return NullMove()
        # randrange(3) and rng.sample(range(size), 2) without their
        # per-call overhead, drawing the identical random numbers.
        move = rng._randbelow(3)
        i, j = _sample_two(rng, size)
        if move == 0:
            return SwapPositive(i, j)
        if move == 1:
            return SwapNegative(i, j)
        return SwapBoth(i, j)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def pack(
        self,
        schedule: AnnealingSchedule | None = None,
        seed: int = 0,
        initial: SequencePair | None = None,
    ) -> FixedOutlineResult:
        """Run the annealer and return the best packing found.

        ``initial`` seeds the search with a known-good sequence pair (e.g. a
        shelf packing); the annealer keeps the best state ever visited, so the
        result is never worse than that starting point.

        The search is the mutate/undo engine over an
        :class:`IncrementalPacker`: one mutable state, dirty-suffix packing
        updates, O(changed) cost updates.  It stops once every block is
        inside the outline with no overshoot, at :meth:`cost_floor`: no
        later state can be strictly cheaper, so the best state, and with it
        the plan, is the one the full ladder would return.  A start that
        fits therefore costs 0 moves.  With no blocks there is nothing to
        anneal: the result is the empty packing after 0 moves, at the peak
        pure-VSB region time.
        """
        if not self.blocks:
            cost = float(self._model_vsb.max())
            result = AnnealingResult(
                best_state=SequencePair(positive=(), negative=()),
                best_cost=cost,
                moves=0,
                accepted=0,
                cost_trace=[cost],
            )
        else:
            rng = random.Random(seed)
            if initial is None:
                initial = SequencePair.initial(sorted(self.blocks), rng)
            result = simulated_annealing_in_place(
                _ScoredPacker(self.blocks, initial),
                cost=self._inplace_cost,
                propose=self._propose_swap,
                snapshot=IncrementalPacker.snapshot_pair,
                schedule=schedule,
                rng=rng,
                lower_bound=self.cost_floor(),
            )
        packing = pack_sequence_pair(result.best_state, self.blocks)
        return FixedOutlineResult(
            inside=self.inside_blocks(packing),
            packing=packing,
            pair=result.best_state,
            cost=result.best_cost,
            annealing=result,
        )


class _ScoredPacker(IncrementalPacker):
    """The in-place engine's search state: a packer with a region-time cache.

    ``inside`` flags each block of the last *accepted* configuration,
    ``base_times`` is its region-time vector and ``base_peak`` that vector's
    maximum.  ``pending`` holds the last evaluated candidate's ``(entered,
    left, times, peak)``: it is promoted to base lazily on the next
    evaluation, and a reverted move discards it (``_restore``).  A reverted
    :class:`NullMove` restores nothing, but its candidate is the accepted
    configuration, so promoting it changes no value.
    """

    def __init__(self, blocks: Mapping[str, Block], pair: SequencePair) -> None:
        super().__init__(blocks, pair)
        self.inside: list[bool] | None = None
        self.base_times: np.ndarray | None = None
        self.base_peak = 0.0
        self.pending: tuple[list[int], list[int], np.ndarray, float] | None = None
        self.deltas_since_rebase = 0

    def _restore(self, checkpoint) -> None:
        super()._restore(checkpoint)
        self.pending = None

    def promote_pending(self) -> None:
        if self.pending is not None:
            entered, left, self.base_times, self.base_peak = self.pending
            for c in entered:
                self.inside[c] = True
            for c in left:
                self.inside[c] = False
            self.pending = None


def _sample_two(rng: random.Random, n: int) -> tuple[int, int]:
    """``rng.sample(range(n), 2)`` with identical RNG consumption, inlined.

    ``random.sample`` burns several microseconds per call on an abc
    ``isinstance`` check and generic bookkeeping — measurable when the
    in-place engine samples once per move.  This reproduces its two code
    paths for ``k=2`` over ``range(n)`` exactly (the pool shuffle below 22
    elements, rejection sampling above), drawing the same ``_randbelow``
    sequence so the in-place engine stays in RNG lockstep with the
    copy-engine oracle's ``random_neighbor`` (``tests/oracles/annealing.py``).
    Guarded by a test that checks agreement with ``rng.sample`` across
    sizes, so a future stdlib change cannot silently break lockstep.
    """
    randbelow = rng._randbelow
    if n <= 21:  # random.sample's small-population pool path (k=2)
        i = randbelow(n)
        j = randbelow(n - 1)
        return i, (n - 1 if j == i else j)
    i = randbelow(n)
    j = randbelow(n)
    while j == i:
        j = randbelow(n)
    return i, j

"""Fixed-outline, selection-aware floorplanning for OSP.

Following [24] (and Section 4.2 of the E-BLOW paper), the 2DOSP problem is
attacked as *fixed-outline floorplanning*: blocks are packed by a sequence
pair; any block whose placement falls outside the stencil outline is simply
**not selected** (it will be written by VSB).  The annealer therefore
minimizes the system writing time of the blocks that remain inside, with a
small area-efficiency term as a tie breaker.

When the caller supplies a *region-time model* (an object exposing the
pure-VSB region times and the per-block reduction vectors, see
:class:`RegionTimeModel`), the packer scores moves incrementally: the
per-region writing-time vector of the current state is cached and each
candidate is scored by applying only the reduction rows of the blocks whose
inside/outside status actually changed — O(changed x P) instead of
O(inside x P) per move.  The copy engine finds those blocks by comparing
inside masks (the annealer's delta-cost protocol); the in-place engine
re-tests only the blocks at the positions the :class:`IncrementalPacker`
reports as touched by the move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.events import emit
from repro.floorplan.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    simulated_annealing,
    simulated_annealing_in_place,
)
from repro.floorplan.packing import _REBASES
from repro.floorplan.batched import (
    BatchedAnnealer,
    BatchedAnnealingResult,
    _sample_two,
)
from repro.floorplan.packing import (
    Block,
    IncrementalPacker,
    NullMove,
    PackingContext,
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
    engine: str = "copy"
    # Populated by engine="batched": the per-chain view of the run.  ``pair``
    # / ``cost`` / ``annealing`` then describe the winning chain.
    batched: BatchedAnnealingResult | None = None


class FixedOutlinePacker:
    """Sequence-pair simulated annealing inside a fixed outline.

    Parameters
    ----------
    width, height:
        The stencil outline.
    blocks:
        Blocks to pack (characters or clusters).
    writing_time_of:
        Callback mapping the *set of inside block names* to the writing-time
        objective being minimized (the caller closes over the instance and
        the block-to-character mapping).
    time_model:
        Optional :class:`RegionTimeModel` equivalent of ``writing_time_of``.
        When given, moves are scored incrementally through the annealer's
        delta-cost protocol; results are identical up to floating-point
        noise (cross-checked in the test suite).
    """

    # Rebuild the cached region-time vector from scratch every this many
    # delta evaluations so floating-point drift stays bounded.
    REBASE_INTERVAL = 2048

    def __init__(
        self,
        width: float,
        height: float,
        blocks: Mapping[str, Block],
        writing_time_of: Callable[[set[str]], float],
        area_weight: float = 0.05,
        time_model: RegionTimeModel | None = None,
    ) -> None:
        self.width = width
        self.height = height
        self.blocks = dict(blocks)
        self.writing_time_of = writing_time_of
        self.area_weight = area_weight
        self._context = PackingContext(self.blocks) if self.blocks else None
        self.time_model = time_model
        if time_model is not None and self._context is not None:
            # Reduction rows aligned with the packing context's block order.
            self._model_reductions = np.asarray(
                time_model.reduction_rows(self._context.names), dtype=float
            )
            self._model_vsb = np.asarray(time_model.vsb_times_array(), dtype=float)
        else:
            self._model_reductions = None
            self._model_vsb = None
        # Delta-evaluation cache: inside mask + region times of the last
        # evaluated states (base = last accepted, last = last candidate).
        # Pair objects are held by reference (not id()) so identity checks
        # cannot be fooled by CPython address reuse after garbage collection.
        self._base_pair: SequencePair | None = None
        self._base_mask: np.ndarray | None = None
        self._base_times: np.ndarray | None = None
        self._last_pair: SequencePair | None = None
        self._last_mask: np.ndarray | None = None
        self._last_times: np.ndarray | None = None
        self._deltas_since_rebase = 0

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

    def _inside_mask(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        context = self._context
        return (x + context.widths <= self.width + 1e-9) & (
            y + context.heights <= self.height + 1e-9
        )

    def _penalized(self, writing_time: float, x: np.ndarray, y: np.ndarray) -> float:
        """Writing time with the small out-of-outline bounding-box penalty.

        The pressure to shrink the overall bounding box helps more blocks
        migrate inside the outline in later moves.
        """
        context = self._context
        packed_width = float((x + context.widths).max()) if len(x) else 0.0
        packed_height = float((y + context.heights).max()) if len(y) else 0.0
        return self._penalized_dims(writing_time, packed_width, packed_height)

    def _penalized_dims(
        self, writing_time: float, packed_width: float, packed_height: float
    ) -> float:
        overshoot = max(0.0, packed_width - self.width) + max(
            0.0, packed_height - self.height
        )
        return writing_time * (1.0 + self.area_weight * overshoot / max(self.width, 1.0))

    def cost_of(self, pair: SequencePair) -> float:
        """Cost of a sequence pair: writing time + small out-of-outline penalty."""
        context = self._context
        if context is None:
            return self.writing_time_of(set())
        x, y = context.pack_arrays(pair)
        inside_mask = self._inside_mask(x, y)
        if self._model_reductions is not None:
            times = self._model_vsb - self._model_reductions[inside_mask].sum(axis=0)
            writing_time = float(times.max())
            self._remember_last(pair, inside_mask, times)
        else:
            inside = {context.names[i] for i in np.nonzero(inside_mask)[0]}
            writing_time = self.writing_time_of(inside)
        return self._penalized(writing_time, x, y)

    # ------------------------------------------------------------------ #
    # Delta-cost protocol (incremental evaluation)
    # ------------------------------------------------------------------ #
    def _remember_last(
        self, pair: SequencePair, mask: np.ndarray, times: np.ndarray
    ) -> None:
        self._last_pair = pair
        self._last_mask = mask
        self._last_times = times

    def _base_for(self, current: SequencePair) -> tuple[np.ndarray, np.ndarray]:
        """Inside mask + region times of the annealer's current state."""
        if self._base_pair is not current:
            if self._last_pair is current:
                # The previous candidate was accepted: promote its evaluation.
                self._base_mask = self._last_mask
                self._base_times = self._last_times
            else:
                x, y = self._context.pack_arrays(current)
                self._base_mask = self._inside_mask(x, y)
                self._base_times = (
                    self._model_vsb
                    - self._model_reductions[self._base_mask].sum(axis=0)
                )
            self._base_pair = current
        return self._base_mask, self._base_times

    def delta_cost(
        self, current: SequencePair, candidate: SequencePair, current_cost: float
    ) -> float:
        """Candidate cost via incremental region-time update vs. ``current``.

        Only the reduction rows of blocks whose inside/outside status changed
        are applied to the cached time vector of the current state.
        """
        base_mask, base_times = self._base_for(current)
        x, y = self._context.pack_arrays(candidate)
        mask = self._inside_mask(x, y)
        changed = mask ^ base_mask
        if not changed.any():
            times = base_times
        else:
            entered = mask & changed
            left = base_mask & changed
            times = base_times.copy()
            if entered.any():
                times -= self._model_reductions[entered].sum(axis=0)
            if left.any():
                times += self._model_reductions[left].sum(axis=0)
        self._deltas_since_rebase += 1
        if self._deltas_since_rebase >= self.REBASE_INTERVAL:
            self._deltas_since_rebase = 0
            times = self._model_vsb - self._model_reductions[mask].sum(axis=0)
            _REBASES.inc(scope="region-times")
            emit("rebase", scope="region-times", interval=self.REBASE_INTERVAL)
        self._remember_last(candidate, mask, times)
        return self._penalized(float(times.max()), x, y)

    # ------------------------------------------------------------------ #
    # In-place (mutate/undo) engine
    # ------------------------------------------------------------------ #
    def _reset_delta_cache(self) -> None:
        """Forget cached evaluations from a previous ``pack`` run."""
        self._base_pair = None
        self._base_mask = None
        self._base_times = None
        self._last_pair = None
        self._last_mask = None
        self._last_times = None
        self._deltas_since_rebase = 0

    def _inplace_cost(self, state: "_InPlaceState") -> float:
        """Cost of the in-place state's current configuration.

        Mirrors :meth:`cost_of` (first call) and :meth:`delta_cost` (every
        later call) operation for operation: the entered/left blocks against
        the last *accepted* state are applied as sorted row indices through
        the same ``reductions[...].sum(axis=0)`` calls a boolean mask would
        make, with the same periodic rebase — so a trajectory through this
        function is bit-identical to the copy engine's.  Only the blocks at
        the positions the last move touched are re-tested against the
        outline; every other block kept its coordinates.
        """
        packer = state.packer
        if self._model_reductions is None:
            mask = packer.inside_mask(self.width, self.height)
            inside = {self._context.names[i] for i in np.nonzero(mask)[0]}
            writing_time = self.writing_time_of(inside)
            return self._penalized_dims(writing_time, packer.width, packer.height)
        if state.inside is None:
            # Initial full evaluation (the copy engine's cost_of path).
            state.inside = self._inside_flags(packer)
            state.base_times = self._region_times(state.inside)
            return self._penalized_dims(
                float(state.base_times.max()), packer.width, packer.height
            )
        state.promote_pending()
        xs, ys, widths, heights = packer.xs, packer.ys, packer.widths, packer.heights
        width_limit = self.width + 1e-9
        height_limit = self.height + 1e-9
        inside = state.inside
        order = packer.order
        entered = []
        left = []
        for p in packer.touched:
            c = order[p]
            fits = xs[c] + widths[c] <= width_limit and ys[c] + heights[c] <= height_limit
            if fits != inside[c]:
                (entered if fits else left).append(c)
        times = state.base_times
        if entered or left:
            times = times.copy()
            if entered:
                entered.sort()
                times -= self._model_reductions[entered].sum(axis=0)
            if left:
                left.sort()
                times += self._model_reductions[left].sum(axis=0)
        state.deltas_since_rebase += 1
        if state.deltas_since_rebase >= self.REBASE_INTERVAL:
            state.deltas_since_rebase = 0
            times = self._region_times(self._inside_flags(packer))
            _REBASES.inc(scope="region-times")
            emit("rebase", scope="region-times", interval=self.REBASE_INTERVAL)
        state.pending = (entered, left, times)
        return self._penalized_dims(float(times.max()), packer.width, packer.height)

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

    @staticmethod
    def _propose_swap(state: "_InPlaceState", rng: random.Random):
        """Uniform swap proposal, RNG-compatible with ``random_neighbor``.

        Only sequence-pair moves are proposed.  The in-place engine snapshots
        *just* the sequence pair for best-state tracking (the final packing
        is re-derived from ``self.blocks``), so geometry-mutating packer
        moves — ``Rotate``, which transposes a block — must not be proposed
        here; they are for standalone :class:`IncrementalPacker` use.
        """
        size = state.packer.size
        if size < 2:
            return NullMove()
        # randrange(3) and rng.sample(range(size), 2) without their
        # per-call overhead, drawing the identical random numbers.
        move = rng._randbelow(3)
        i, j = _sample_two(rng, size)
        if move == 0:
            inner = SwapPositive(i, j)
        elif move == 1:
            inner = SwapNegative(i, j)
        else:
            inner = SwapBoth(i, j)
        return _EngineMove(inner)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def pack(
        self,
        schedule: AnnealingSchedule | None = None,
        seed: int = 0,
        initial: SequencePair | None = None,
        engine: str = "auto",
        chains: int | None = None,
    ) -> FixedOutlineResult:
        """Run the annealer and return the best packing found.

        ``initial`` seeds the search with a known-good sequence pair (e.g. a
        shelf packing); the annealer keeps the best state ever visited, so the
        result is never worse than that starting point.

        ``engine`` selects the search engine: ``"incremental"`` runs the
        mutate/undo engine over an :class:`IncrementalPacker` (one mutable
        state, dirty-suffix packing updates, O(changed) cost updates);
        ``"copy"`` runs the copy-based reference engine; ``"batched"`` runs
        ``chains`` lockstep chains in stacked arrays (chain ``c`` seeded
        ``seed + c``) and returns the best chain.  ``"auto"`` picks the
        batched engine when more than one chain is requested and the
        incremental engine otherwise.  All engines visit bit-identical
        states under RNG lockstep (asserted in the test suite); they differ
        only in speed.  ``chains`` overrides ``schedule.chains`` when given.
        """
        if engine not in ("auto", "copy", "incremental", "batched"):
            raise ValueError(f"unknown annealing engine {engine!r}")
        schedule_chains = schedule.chains if schedule is not None else 1
        effective_chains = int(chains) if chains is not None else schedule_chains
        if effective_chains < 1:
            raise ValueError(f"chains must be >= 1, got {effective_chains}")
        resolved = engine
        if resolved == "auto":
            if self._context is None:
                resolved = "copy"
            elif effective_chains > 1:
                resolved = "batched"
            else:
                resolved = "incremental"
        if resolved in ("incremental", "batched") and self._context is None:
            resolved = "copy"
        self._reset_delta_cache()

        if resolved == "batched":
            return self._pack_batched(schedule, seed, initial, effective_chains)

        rng = random.Random(seed)
        names = sorted(self.blocks)
        if initial is None:
            initial = SequencePair.initial(names, rng)

        if resolved == "incremental":
            state = _InPlaceState(IncrementalPacker(self._context, initial))
            result = simulated_annealing_in_place(
                state,
                cost=self._inplace_cost,
                propose=self._propose_swap,
                snapshot=lambda s: s.packer.snapshot_pair(),
                schedule=schedule,
                rng=rng,
            )
        else:
            use_delta = self._model_reductions is not None and self._context is not None
            result = simulated_annealing(
                initial_state=initial,
                cost=self.cost_of,
                neighbor=lambda pair, r: pair.random_neighbor(r),
                schedule=schedule,
                rng=rng,
                delta_cost=self.delta_cost if use_delta else None,
            )
        packing = pack_sequence_pair(result.best_state, self.blocks)
        inside = self.inside_blocks(packing)
        return FixedOutlineResult(
            inside=inside,
            packing=packing,
            pair=result.best_state,
            cost=result.best_cost,
            annealing=result,
            engine=resolved,
        )

    def _pack_batched(
        self,
        schedule: AnnealingSchedule | None,
        seed: int,
        initial: SequencePair | None,
        chains: int,
    ) -> FixedOutlineResult:
        """Run K stacked chains and surface the winner as the result.

        Chain ``c`` consumes ``random.Random(seed + c)`` exactly as a solo
        ``pack(seed=seed + c)`` run would — including its initial-pair
        shuffles when ``initial`` is None — so every chain is bit-identical
        to the corresponding solo incremental run.
        """
        annealer = BatchedAnnealer(
            self,
            schedule=schedule,
            chains=chains,
            seed=seed,
            initial=initial,
        )
        batched = annealer.run()
        best = batched.best_chain
        result = batched.annealing_result_for(best)
        packing = pack_sequence_pair(result.best_state, self.blocks)
        inside = self.inside_blocks(packing)
        return FixedOutlineResult(
            inside=inside,
            packing=packing,
            pair=result.best_state,
            cost=result.best_cost,
            annealing=result,
            engine="batched",
            batched=batched,
        )


class _InPlaceState:
    """Mutable search state of the in-place engine.

    Bundles the :class:`IncrementalPacker` with the incremental region-time
    bookkeeping: ``inside`` flags each block of the last *accepted*
    configuration and ``base_times`` is its region-time vector; ``pending``
    holds the last evaluated candidate's ``(entered, left, times)``.  The
    candidate is promoted to base lazily on the next evaluation — mirroring
    the copy engine's ``_base_for`` promotion — and discarded when the move
    is reverted.
    """

    def __init__(self, packer: IncrementalPacker) -> None:
        self.packer = packer
        self.inside: list[bool] | None = None
        self.base_times: np.ndarray | None = None
        self.pending: tuple[list[int], list[int], np.ndarray] | None = None
        self.deltas_since_rebase = 0

    def promote_pending(self) -> None:
        if self.pending is not None:
            entered, left, self.base_times = self.pending
            for c in entered:
                self.inside[c] = True
            for c in left:
                self.inside[c] = False
            self.pending = None


class _EngineMove:
    """Adapter: a packer move applied through the annealing state."""

    __slots__ = ("inner", "kind")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.kind = inner.kind

    def apply(self, state: _InPlaceState) -> None:
        self.inner.apply(state.packer)

    def revert(self, state: _InPlaceState) -> None:
        self.inner.revert(state.packer)
        state.pending = None

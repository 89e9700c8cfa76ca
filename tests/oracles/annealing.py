"""The copy-based annealing engine: the reference oracle of the 2D annealer.

:func:`simulated_annealing` materialises a fresh candidate state per move
(``neighbor(current, rng)``) and drops rejected ones.  Its proposal,
:func:`random_neighbor`, draws one of the three swap moves of [24]
(:func:`swap_positive`, :func:`swap_negative`, :func:`swap_both`), each of
which returns a new :class:`~repro.floorplan.SequencePair`.
:class:`CopyEngine` drives it over a
:class:`~repro.floorplan.FixedOutlinePacker`'s blocks, re-packing every
candidate from scratch (the batch packer of ``tests/oracles/packing.py``)
and scoring it through the delta-cost protocol against cached region times,
or, with ``delta=False``, re-scoring it in full.

The planner runs the mutate/undo engine
(:func:`repro.floorplan.simulated_annealing_in_place`).  It walks the same
schedule, applies the same acceptance rule, draws the same random numbers,
stops at the same cost floor and emits the same ``temperature``/``incumbent``
events, so with equal seeds both engines visit bit-identical states; the
floorplan tests and ``benchmarks/test_floorplan_micro.py`` compare them.
"""

from __future__ import annotations

import math
import random
from typing import Callable, TypeVar

import numpy as np

from repro.events import emit
from repro.floorplan import (
    AnnealingResult,
    AnnealingSchedule,
    FixedOutlinePacker,
    FixedOutlineResult,
    SequencePair,
    pack_sequence_pair,
)
from tests.oracles.packing import PackingContext

__all__ = [
    "CopyEngine",
    "random_neighbor",
    "simulated_annealing",
    "swap_both",
    "swap_negative",
    "swap_positive",
]

S = TypeVar("S")


def swap_positive(pair: SequencePair, i: int, j: int) -> SequencePair:
    """Swap two positions in Gamma+ only."""
    positive = list(pair.positive)
    positive[i], positive[j] = positive[j], positive[i]
    return SequencePair(positive=tuple(positive), negative=pair.negative)


def swap_negative(pair: SequencePair, i: int, j: int) -> SequencePair:
    """Swap two positions in Gamma- only."""
    negative = list(pair.negative)
    negative[i], negative[j] = negative[j], negative[i]
    return SequencePair(positive=pair.positive, negative=tuple(negative))


def swap_both(pair: SequencePair, a: str, b: str) -> SequencePair:
    """Swap two blocks in both sequences (exchanges their roles entirely)."""

    def swapped(seq: tuple[str, ...]) -> tuple[str, ...]:
        out = list(seq)
        ia, ib = out.index(a), out.index(b)
        out[ia], out[ib] = out[ib], out[ia]
        return tuple(out)

    return SequencePair(positive=swapped(pair.positive), negative=swapped(pair.negative))


def random_neighbor(pair: SequencePair, rng: random.Random) -> SequencePair:
    """A random neighbouring sequence pair (uniform over the three swap moves).

    The copy engine's proposal.  ``FixedOutlinePacker._propose_swap`` draws
    the same random numbers and returns the matching in-place packer move.
    """
    if pair.size < 2:
        return pair
    move = rng.randrange(3)
    i, j = rng.sample(range(pair.size), 2)
    if move == 0:
        return swap_positive(pair, i, j)
    if move == 1:
        return swap_negative(pair, i, j)
    return swap_both(pair, pair.positive[i], pair.positive[j])


def simulated_annealing(
    initial_state: S,
    cost: Callable[[S], float],
    neighbor: Callable[[S, random.Random], S],
    schedule: AnnealingSchedule | None = None,
    rng: random.Random | None = None,
    delta_cost: Callable[[S, S, float], float] | None = None,
    lower_bound: float | None = None,
) -> AnnealingResult[S]:
    """Minimize ``cost`` over states reachable through ``neighbor``.

    The initial temperature is auto-scaled to the magnitude of the initial
    cost so callers can use the default schedule regardless of cost units.
    ``lower_bound`` stops the search once the best cost reaches it, tested
    where the in-place engine tests it: before the first temperature and
    on the new-best branch.

    ``delta_cost`` is the optional *delta-cost protocol*: when given, it is
    called as ``delta_cost(current, candidate, current_cost)`` instead of
    ``cost(candidate)`` for every move.  ``current`` is always the last
    accepted state (the one ``candidate`` was derived from), so an
    implementation can evaluate only the perturbed sub-problem against
    cached state instead of re-scoring from scratch.  It must return the
    same value as ``cost(candidate)`` up to floating-point noise.
    """
    schedule = schedule or AnnealingSchedule()
    rng = rng or random.Random(0)

    current = initial_state
    current_cost = cost(current)
    best = current
    best_cost = current_cost
    scale = max(abs(current_cost), 1.0)
    at_floor = lower_bound is not None and best_cost <= lower_bound

    moves = 0
    accepted = 0
    trace = [current_cost]

    for temperature in () if at_floor else schedule.temperatures():
        effective_t = temperature * scale
        for _ in range(schedule.moves_per_temperature):
            if moves >= schedule.max_total_moves:
                break
            moves += 1
            candidate = neighbor(current, rng)
            if delta_cost is not None:
                candidate_cost = delta_cost(current, candidate, current_cost)
            else:
                candidate_cost = cost(candidate)
            delta = candidate_cost - current_cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(effective_t, 1e-12)):
                current = candidate
                current_cost = candidate_cost
                accepted += 1
                if current_cost < best_cost:
                    best = current
                    best_cost = current_cost
                    emit("incumbent", cost=best_cost, moves=moves)
                    if lower_bound is not None and best_cost <= lower_bound:
                        at_floor = True
                        break
        trace.append(current_cost)
        emit("temperature", temperature=temperature, cost=current_cost, moves=moves)
        if at_floor or moves >= schedule.max_total_moves:
            break
    return AnnealingResult(
        best_state=best,
        best_cost=best_cost,
        moves=moves,
        accepted=accepted,
        cost_trace=trace,
    )


class CopyEngine:
    """The copy engine's cost path over one packer's blocks and cost model.

    ``cost_of`` packs a sequence pair from scratch; ``delta_cost`` re-packs
    the candidate and applies only the reduction rows of the blocks whose
    inside/outside status changed against the annealer's current state, with
    the packer's ``REBASE_INTERVAL`` full rebuilds.  The in-place engine's
    ``FixedOutlinePacker._inplace_cost`` mirrors this operation for
    operation.
    """

    def __init__(self, packer: FixedOutlinePacker) -> None:
        self.packer = packer
        self._context = PackingContext(packer.blocks)
        self._model_reductions = packer._model_reductions
        self._model_vsb = packer._model_vsb
        self._reset_delta_cache()

    def _reset_delta_cache(self) -> None:
        """Forget cached evaluations from a previous ``pack`` run.

        ``base`` is the last accepted state, ``last`` the last candidate.
        Pairs are held by reference (not ``id()``) so identity checks cannot
        be fooled by address reuse after garbage collection.
        """
        self._base_pair: SequencePair | None = None
        self._base_mask: np.ndarray | None = None
        self._base_times: np.ndarray | None = None
        self._last_pair: SequencePair | None = None
        self._last_mask: np.ndarray | None = None
        self._last_times: np.ndarray | None = None
        self._deltas_since_rebase = 0

    def _inside_mask(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        context = self._context
        return (x + context.widths <= self.packer.width + 1e-9) & (
            y + context.heights <= self.packer.height + 1e-9
        )

    def _penalized(self, writing_time: float, x: np.ndarray, y: np.ndarray) -> float:
        """Writing time with the packer's out-of-outline bounding-box penalty."""
        context = self._context
        packed_width = float((x + context.widths).max()) if len(x) else 0.0
        packed_height = float((y + context.heights).max()) if len(y) else 0.0
        return self.packer._penalized_dims(writing_time, packed_width, packed_height)

    def cost_of(self, pair: SequencePair) -> float:
        """Cost of a sequence pair, re-scored in full: writing time + penalty."""
        x, y = self._context.pack_arrays(pair)
        inside_mask = self._inside_mask(x, y)
        times = self._model_vsb - self._model_reductions[inside_mask].sum(axis=0)
        self._remember_last(pair, inside_mask, times)
        return self._penalized(float(times.max()), x, y)

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
        """Candidate cost via incremental region-time update vs. ``current``."""
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
        if self._deltas_since_rebase >= self.packer.REBASE_INTERVAL:
            self._deltas_since_rebase = 0
            times = self._model_vsb - self._model_reductions[mask].sum(axis=0)
        self._remember_last(candidate, mask, times)
        return self._penalized(float(times.max()), x, y)

    def cost_floor(self) -> float | None:
        """``FixedOutlinePacker.cost_floor``, re-derived: the all-inside full re-score.

        None when a reduction entry is negative or the floor itself is.
        """
        if (self._model_reductions < 0).any():
            return None
        floor = float((self._model_vsb - self._model_reductions.sum(axis=0)).max())
        return floor if floor >= 0 else None

    def pack(
        self,
        schedule: AnnealingSchedule | None = None,
        seed: int = 0,
        initial: SequencePair | None = None,
        delta: bool = True,
        bound: bool = True,
    ) -> FixedOutlineResult:
        """Anneal with the copy engine; same contract as ``FixedOutlinePacker.pack``.

        ``delta=False`` scores every candidate with the full re-score
        ``cost_of`` instead of the delta-cost protocol.  ``bound=False``
        walks the whole ladder, with no :meth:`cost_floor` to stop at.
        """
        self._reset_delta_cache()
        packer = self.packer
        rng = random.Random(seed)
        if initial is None:
            initial = SequencePair.initial(sorted(packer.blocks), rng)
        result = simulated_annealing(
            initial_state=initial,
            cost=self.cost_of,
            neighbor=random_neighbor,
            schedule=schedule,
            rng=rng,
            delta_cost=self.delta_cost if delta else None,
            lower_bound=self.cost_floor() if bound else None,
        )
        packing = pack_sequence_pair(result.best_state, packer.blocks)
        return FixedOutlineResult(
            inside=packer.inside_blocks(packing),
            packing=packing,
            pair=result.best_state,
            cost=result.best_cost,
            annealing=result,
        )

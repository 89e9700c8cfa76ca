"""A small, generic simulated-annealing engine.

Both the E-BLOW 2D packer and the [24]-style baseline floorplanner drive the
same engine; they differ only in their state, move, and cost functions.
The engine uses a geometric cooling schedule with a fixed number of moves per
temperature and keeps track of the best state ever visited.

:func:`simulated_annealing_in_place` is a mutate/undo engine: a single
mutable state is perturbed in place through the :class:`Move` protocol
(``propose() -> Move``, ``move.apply(state)``, ``move.revert(state)``);
rejected moves are undone instead of re-deriving the whole state.  Combined
with incremental cost evaluation this turns a move from O(state) into
O(changed).  Per-move-type acceptance statistics are collected so movers
can adapt their proposal mix.

The test suite keeps a copy-based engine as its reference oracle
(``tests/oracles/annealing.py``): it walks the identical schedule and
consumes the RNG in the identical pattern, so a mover that mirrors its
copy-based ``neighbor`` produces a bit-identical trajectory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Generic, Protocol, TypeVar, runtime_checkable

from repro.events import emit
from repro.obs import metrics as obs_metrics

__all__ = [
    "AnnealingSchedule",
    "AnnealingResult",
    "Move",
    "MoveTypeStats",
    "simulated_annealing_in_place",
]

S = TypeVar("S")
B = TypeVar("B")

# End-of-run annealing counters (repro.obs).  Deliberately *not* updated
# per move: the pre-bound instruments are cheap but the inner loop runs
# hundreds of thousands of times, so the engine accounts one batch of
# increments per run — zero cost inside the loop, zero RNG interaction,
# bit-identical trajectories with or without a registry installed.
_ANNEAL_RUNS = obs_metrics.declare_counter(
    "anneal_runs_total", "Annealing searches completed"
)
_ANNEAL_MOVES = obs_metrics.declare_counter(
    "anneal_moves_total", "Annealing moves proposed"
)
_ANNEAL_ACCEPTS = obs_metrics.declare_counter(
    "anneal_accepts_total", "Annealing moves accepted"
)


@dataclass
class AnnealingSchedule:
    """Cooling-schedule parameters."""

    initial_temperature: float = 1.0
    final_temperature: float = 1e-3
    cooling_rate: float = 0.92
    moves_per_temperature: int = 60
    max_total_moves: int = 200_000
    # Record the cost trace every this many temperature steps (1 = every
    # step, today's behaviour).  Long schedules at ``max_total_moves`` scale
    # would otherwise hold one float per temperature step forever.
    trace_stride: int = 1

    def temperatures(self):
        """Yield the temperature ladder."""
        t = self.initial_temperature
        while t > self.final_temperature:
            yield t
            t *= self.cooling_rate


@runtime_checkable
class Move(Protocol):
    """A reversible in-place perturbation of an annealing state.

    ``apply`` mutates the state; ``revert`` must restore it exactly (the
    engine only calls ``revert`` on the move it just applied, so a move may
    stash undo data on itself during ``apply``).  ``kind`` buckets the move
    for the per-type acceptance statistics.
    """

    kind: str

    def apply(self, state) -> None: ...

    def revert(self, state) -> None: ...


@dataclass
class MoveTypeStats:
    """Acceptance statistics for one move kind."""

    proposed: int = 0
    accepted: int = 0
    improved: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


@dataclass
class AnnealingResult(Generic[S]):
    """Best state found plus search statistics."""

    best_state: S
    best_cost: float
    moves: int
    accepted: int
    cost_trace: list[float]
    move_stats: dict[str, MoveTypeStats] = field(default_factory=dict)


class _TraceSampler:
    """Shared cost-trace sampling: every ``stride``-th temperature + final."""

    def __init__(self, initial_cost: float, stride: int) -> None:
        self.trace = [initial_cost]
        self.stride = max(1, stride)
        self._steps = 0

    def step(self, current_cost: float) -> None:
        self._steps += 1
        if self._steps % self.stride == 0:
            self.trace.append(current_cost)

    def finish(self, current_cost: float) -> list[float]:
        if self._steps % self.stride != 0:
            self.trace.append(current_cost)
        return self.trace


def simulated_annealing_in_place(
    state: S,
    cost: Callable[[S], float],
    propose: Callable[[S, random.Random], Move],
    snapshot: Callable[[S], B],
    schedule: AnnealingSchedule | None = None,
    rng: random.Random | None = None,
) -> AnnealingResult[B]:
    """Minimize ``cost`` by mutating ``state`` in place through moves.

    ``state`` is mutated in place for the whole search.  Each iteration asks
    ``propose(state, rng)`` for a :class:`Move`, applies it, evaluates
    ``cost(state)`` (which may score incrementally against caches updated by
    the move), and either keeps the mutation or calls ``move.revert(state)``.
    ``snapshot(state)`` captures an immutable copy whenever a new best state
    is found — that is the only time the full state is materialised.

    The initial temperature is auto-scaled to the magnitude of the initial
    cost so callers can use the default schedule regardless of cost units.
    """
    schedule = schedule or AnnealingSchedule()
    rng = rng or random.Random(0)

    current_cost = cost(state)
    best = snapshot(state)
    best_cost = current_cost
    scale = max(abs(current_cost), 1.0)

    moves = 0
    accepted = 0
    stats: dict[str, MoveTypeStats] = {}
    sampler = _TraceSampler(current_cost, schedule.trace_stride)

    for temperature in schedule.temperatures():
        effective_t = temperature * scale
        for _ in range(schedule.moves_per_temperature):
            if moves >= schedule.max_total_moves:
                break
            moves += 1
            move = propose(state, rng)
            move.apply(state)
            candidate_cost = cost(state)
            # stats.get instead of setdefault: setdefault constructs (and
            # immediately discards) a MoveTypeStats per move, which shows up
            # in profiles of the incremental engine's hot loop.
            kind_stats = stats.get(move.kind)
            if kind_stats is None:
                kind_stats = stats[move.kind] = MoveTypeStats()
            kind_stats.proposed += 1
            delta = candidate_cost - current_cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(effective_t, 1e-12)):
                if delta < 0:
                    kind_stats.improved += 1
                current_cost = candidate_cost
                accepted += 1
                kind_stats.accepted += 1
                if current_cost < best_cost:
                    best = snapshot(state)
                    best_cost = current_cost
                    emit("incumbent", cost=best_cost, moves=moves)
            else:
                move.revert(state)
        sampler.step(current_cost)
        emit("temperature", temperature=temperature, cost=current_cost, moves=moves)
        if moves >= schedule.max_total_moves:
            break
    _ANNEAL_RUNS.inc()
    _ANNEAL_MOVES.inc(moves)
    _ANNEAL_ACCEPTS.inc(accepted)
    return AnnealingResult(
        best_state=best,
        best_cost=best_cost,
        moves=moves,
        accepted=accepted,
        cost_trace=sampler.finish(current_cost),
        move_stats=stats,
    )

"""Successive rounding of the simplified LP (Algorithm 1 of the paper).

The loop repeatedly solves the LP relaxation of the simplified formulation
(4), then rounds up the assignment variables that are close to the largest
fractional value (``a_ij >= a_pq * thinv``), packs those characters onto
their rows, updates profits with the new region writing times, and repeats
on the remaining *unsolved* characters.

Two evaluation fast paths keep the loop cheap at paper scale:

* the constraint matrix of (4) is assembled **once** as sparse COO triplets
  (:class:`~repro.core.onedim.formulation.SimplifiedLPStructure`) and only
  re-sliced per iteration — retired variables get ``[0, 0]`` bounds, rhs
  vectors are refreshed in O(rows);
* the per-region writing times are maintained **incrementally** by
  :class:`~repro.core.kernels.RunningTimes` — every accepted assignment
  updates the time vector in O(P) instead of re-summing the selection.

The implementation also records the diagnostics the paper plots:

* the number of unsolved characters after every LP iteration (Fig. 5),
* the distribution of the ``a_ij`` values in the last LP solved (Fig. 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.kernels import RunningTimes, kernels_of
from repro.core.onedim.formulation import SimplifiedLPStructure
from repro.core.onedim.row import RowState
from repro.core.profits import compute_profits
from repro.events import emit
from repro.model import OSPInstance
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import record_span

__all__ = ["RoundingState", "SuccessiveRoundingConfig", "successive_rounding"]

_LP_SOLVES = obs_metrics.declare_counter(
    "lp_solves_total", "LP relaxations solved by successive rounding"
)
_LP_SECONDS = obs_metrics.declare_histogram(
    "lp_solve_seconds", "Wall seconds per LP relaxation solve"
)


@dataclass
class SuccessiveRoundingConfig:
    """Tuning knobs of Algorithm 1."""

    thinv: float = 0.9  # rounding threshold relative to the max a_ij
    max_iterations: int = 50
    # Stop early and hand over to fast ILP convergence when an iteration
    # assigns fewer than this many characters (0 disables the early hand-over).
    convergence_trigger: int = 3


@dataclass
class RoundingState:
    """Mutable state shared by the successive-rounding and later stages."""

    instance: OSPInstance
    rows: list[RowState]
    assignment: dict[int, int] = field(default_factory=dict)  # char index -> row
    unsolved: set[int] = field(default_factory=set)
    rejected: set[int] = field(default_factory=set)
    unsolved_history: list[int] = field(default_factory=list)
    last_lp_values: dict[tuple[int, int], float] = field(default_factory=dict)
    lp_iterations: int = 0
    # Per-iteration LP solve wall times (seconds); recorded into plan stats
    # and telemetry manifests.
    lp_solve_seconds: list[float] = field(default_factory=list)
    _times: RunningTimes | None = field(default=None, repr=False, compare=False)

    @property
    def selected_names(self) -> list[str]:
        return [self.instance.characters[i].name for i in sorted(self.assignment)]

    def assign(self, char_index: int, row_index: int) -> None:
        """Assign a character to a row, keeping all bookkeeping in sync.

        All mutation of ``rows`` / ``assignment`` must go through this method
        so the incremental region-time vector stays valid.
        """
        self.rows[row_index].add(self.instance.characters[char_index])
        self.assignment[char_index] = row_index
        self.unsolved.discard(char_index)
        if self._times is not None:
            self._times.select(char_index)

    def running_times(self) -> RunningTimes:
        """The incrementally maintained per-region writing times."""
        if self._times is None:
            self._times = RunningTimes(kernels_of(self.instance), self.assignment)
        return self._times

    def region_times(self) -> list[float]:
        return self.running_times().as_list()

    def row_names(self) -> list[list[str]]:
        return [row.names() for row in self.rows]


def initial_state(instance: OSPInstance, num_rows: int | None = None) -> RoundingState:
    """Set up the empty rows and the unsolved set for Algorithm 1."""
    m = num_rows if num_rows is not None else instance.row_count()
    rows = [RowState(capacity=instance.stencil.width) for _ in range(m)]
    unsolved = set()
    rejected = set()
    for i, ch in enumerate(instance.characters):
        if ch.width - ch.symmetric_hblank + ch.symmetric_hblank > instance.stencil.width:
            rejected.add(i)  # cannot fit any row even alone
        else:
            unsolved.add(i)
    return RoundingState(instance=instance, rows=rows, unsolved=unsolved, rejected=rejected)


def successive_rounding(
    state: RoundingState, config: SuccessiveRoundingConfig | None = None
) -> RoundingState:
    """Run Algorithm 1 until no more characters can be rounded in.

    The state is modified in place (rows filled, assignment recorded) and
    returned for convenience.
    """
    config = config or SuccessiveRoundingConfig()
    instance = state.instance

    if not state.unsolved:
        return state
    # The constraint structure is shared by every iteration; only rhs,
    # bounds, and the objective are refreshed.
    structure = SimplifiedLPStructure(
        instance,
        sorted(state.unsolved),
        [row.capacity - row.body_width for row in state.rows],
    )

    for _ in range(config.max_iterations):
        if not state.unsolved:
            break
        profits = compute_profits(instance, state.region_times())
        row_capacity = [row.capacity - row.body_width for row in state.rows]
        row_min_blank = [row.max_blank for row in state.rows]
        solve_start = time.perf_counter()
        values = structure.solve_relaxation(
            profits, row_capacity, row_min_blank, state.unsolved
        )
        state.lp_solve_seconds.append(time.perf_counter() - solve_start)
        _LP_SOLVES.inc()
        _LP_SECONDS.observe(state.lp_solve_seconds[-1])
        record_span(
            "lp_solve", state.lp_solve_seconds[-1], unsolved=len(state.unsolved)
        )
        emit(
            "lp_solve",
            seconds=state.lp_solve_seconds[-1],
            unsolved=len(state.unsolved),
            variables=len(values),
        )
        if not values:
            # No unsolved character fits on any row: everything left is rejected.
            state.rejected.update(state.unsolved)
            state.unsolved.clear()
            break
        state.lp_iterations += 1
        state.last_lp_values = values

        max_value = max(values.values())
        assigned_now = 0
        if max_value > 1e-6:
            threshold = max_value * config.thinv
            candidates = sorted(values.items(), key=lambda item: -item[1])
            for (i, j), value in candidates:
                if value < threshold:
                    break
                if i not in state.unsolved:
                    continue
                if state.rows[j].fits(instance.characters[i]):
                    state.assign(i, j)
                    assigned_now += 1
        state.unsolved_history.append(len(state.unsolved))
        emit(
            "iteration",
            iteration=state.lp_iterations,
            assigned=assigned_now,
            unsolved=len(state.unsolved),
        )
        if assigned_now == 0:
            break
        if config.convergence_trigger and assigned_now <= config.convergence_trigger:
            # Too little progress per LP: let fast ILP convergence finish the job.
            break
    return state

"""Fast ILP convergence (Algorithm 2 of the paper).

When successive rounding slows down (only a few characters get assigned per
LP iteration), E-BLOW stops the rounding loop and finishes the assignment
with one small ILP: variables whose last LP value is below ``Lth`` are fixed
to 0, variables above ``Uth`` are fixed to 1, and only the remaining
in-between variables enter the exact formulation (4).  Because most LP values
sit near 0 (Fig. 6), the resulting ILP is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.onedim.formulation import build_simplified_formulation
from repro.core.onedim.successive_rounding import RoundingState
from repro.core.profits import compute_profits
from repro.model import OSPInstance
from repro.solver import solve_ilp
from repro.solver.result import SolveStatus

__all__ = ["FastConvergenceConfig", "fast_ilp_convergence"]


@dataclass
class FastConvergenceConfig:
    """Tuning knobs of Algorithm 2."""

    lower_threshold: float = 0.1  # L_th
    upper_threshold: float = 0.9  # U_th
    # The hand-over ILP stops on the *relative MIP gap*, not a wall-clock
    # cap: a near-optimal assignment is enough (post-swap / post-insertion
    # refine the result anyway), and a gap criterion is deterministic — the
    # same instance yields the same plan regardless of machine load.  The
    # old 5-second default cap pinned four benchmark cells at exactly the
    # cap while HiGHS sat in its root node; at a 3 % gap those cells solve
    # in 0.5–3 s with equal-or-better writing times.  ``time_limit`` remains
    # as an opt-in safety valve (it reintroduces load-dependence).
    time_limit: float | None = None
    mip_rel_gap: float | None = 0.03
    # Safety valve: if more than this many variables stay undecided, only the
    # highest-LP-value ones are kept in the ILP (keeps the model tractable).
    max_ilp_variables: int = 2000


def fast_ilp_convergence(
    state: RoundingState, config: FastConvergenceConfig | None = None
) -> RoundingState:
    """Run Algorithm 2 on the remaining unsolved characters of ``state``."""
    config = config or FastConvergenceConfig()
    instance: OSPInstance = state.instance
    if not state.unsolved:
        return state

    values = state.last_lp_values
    undecided: set[tuple[int, int]] = set()

    # Lines 1-9: threshold the last LP solution.
    for (i, j), value in sorted(values.items(), key=lambda item: -item[1]):
        if i not in state.unsolved:
            continue
        if value > config.upper_threshold:
            if state.rows[j].fits(instance.characters[i]):
                state.assign(i, j)
        elif value >= config.lower_threshold:
            undecided.add((i, j))
        # value < Lth: the pair is dropped (solved as "not assigned there").

    # Characters with no surviving pair at all are left to the post stages.
    undecided = {(i, j) for (i, j) in undecided if i in state.unsolved}
    if not undecided:
        return state
    if len(undecided) > config.max_ilp_variables:
        undecided = set(
            sorted(undecided, key=lambda key: -values.get(key, 0.0))[
                : config.max_ilp_variables
            ]
        )

    chars_in_ilp = sorted({i for i, _ in undecided})
    profits = compute_profits(instance, state.region_times())
    row_capacity = [row.capacity - row.body_width for row in state.rows]
    row_min_blank = [row.max_blank for row in state.rows]
    formulation = build_simplified_formulation(
        instance=instance,
        profits=profits,
        characters=chars_in_ilp,
        row_capacity=row_capacity,
        row_min_blank=row_min_blank,
        relax=False,
    )
    # Drop the variables that were thresholded away so the ILP only contains
    # the genuinely undecided (character, row) pairs.
    keep = {
        key: idx for key, idx in formulation.assign_index.items() if key in undecided
    }
    for key, idx in formulation.assign_index.items():
        if key not in undecided:
            variable = formulation.program.variables[idx]
            formulation.program.variables[idx] = type(variable)(
                name=variable.name,
                index=variable.index,
                lower=0.0,
                upper=0.0,
                is_integer=variable.is_integer,
            )
    solution = solve_ilp(
        formulation.program,
        time_limit=config.time_limit,
        mip_rel_gap=config.mip_rel_gap,
    )
    if not solution.status.has_solution:
        return state
    state.stats_last_ilp_variables = len(keep)  # type: ignore[attr-defined]

    for (i, j), idx in sorted(
        keep.items(), key=lambda item: -solution.values[item[1]]
    ):
        if solution.values[idx] < 0.5 or i not in state.unsolved:
            continue
        if state.rows[j].fits(instance.characters[i]):
            state.assign(i, j)
    return state

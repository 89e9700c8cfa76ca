"""The E-BLOW 1DOSP planner (Fig. 4 of the paper).

The flow chains the stages implemented in this package:

1. *Successive rounding* of the simplified LP (Algorithm 1),
2. *Fast ILP convergence* for the stragglers (Algorithm 2),
3. *Refinement* — exact single-row re-ordering by dynamic programming
   (Algorithm 3), with eviction of the lowest-profit characters if the
   asymmetric-blank widths overflow a row,
4. *Post-swap* — greedy improving swaps with off-stencil characters,
5. *Post-insertion* — matching-based insertion into the remaining slack.

Ablation flags on :class:`EBlow1DConfig` switch stages 2, 4, and 5 off, which
is how the paper's E-BLOW-0 / E-BLOW-1 comparison (Figs. 11-12) is
reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.onedim.fast_convergence import FastConvergenceConfig, fast_ilp_convergence
from repro.core.onedim.post_insertion import PostInsertionConfig, post_insertion
from repro.core.onedim.post_swap import PostSwapConfig, post_swap
from repro.core.onedim.refinement import refine_row_order
from repro.core.onedim.successive_rounding import (
    RoundingState,
    SuccessiveRoundingConfig,
    initial_state,
    successive_rounding,
)
from repro.core.profits import compute_profits
from repro.errors import ValidationError
from repro.events import timed_stage
from repro.model import OSPInstance, StencilPlan
from repro.model.writing_time import evaluate_plan

__all__ = ["EBlow1DConfig", "EBlow1DPlanner"]


@dataclass
class EBlow1DConfig:
    """Configuration of the complete 1D E-BLOW flow.

    The default values reproduce "E-BLOW-1" of the paper; setting
    ``use_fast_convergence=False`` and ``use_post_insertion=False`` gives
    "E-BLOW-0" (the ablation of Figs. 11 and 12).
    """

    rounding: SuccessiveRoundingConfig = field(default_factory=SuccessiveRoundingConfig)
    convergence: FastConvergenceConfig = field(default_factory=FastConvergenceConfig)
    swap: PostSwapConfig = field(default_factory=PostSwapConfig)
    insertion: PostInsertionConfig = field(default_factory=PostInsertionConfig)
    use_fast_convergence: bool = True
    use_post_swap: bool = True
    use_post_insertion: bool = True
    refinement_threshold: int = 20

    @classmethod
    def ablated(cls) -> "EBlow1DConfig":
        """E-BLOW-0: no fast ILP convergence, no post-insertion."""
        config = cls(use_fast_convergence=False, use_post_insertion=False)
        # Without the ILP hand-over the rounding loop must run to exhaustion.
        config.rounding = SuccessiveRoundingConfig(convergence_trigger=0)
        return config


class EBlow1DPlanner:
    """End-to-end planner for 1DOSP instances."""

    def __init__(self, config: EBlow1DConfig | None = None) -> None:
        self.config = config or EBlow1DConfig()

    def plan(self, instance: OSPInstance) -> StencilPlan:
        """Plan the stencil for ``instance`` and return a validated plan."""
        if instance.kind != "1D":
            raise ValidationError(
                f"EBlow1DPlanner expects a 1D instance, got kind={instance.kind!r}"
            )
        start = time.perf_counter()
        config = self.config
        # Wall-clock seconds per pipeline stage: the breakdown that makes a
        # slow cell attributable (it is what exposed the old fast-convergence
        # wall-clock cap pinning four benchmark cells at exactly 5 s).
        stage_seconds: dict[str, float] = {}

        # Stage 1+2: selection and row assignment under the S-Blank model.
        with timed_stage("successive_rounding", stage_seconds):
            state = initial_state(instance)
            successive_rounding(state, config.rounding)
        if config.use_fast_convergence:
            with timed_stage(
                "fast_convergence", stage_seconds, unsolved=len(state.unsolved)
            ):
                fast_ilp_convergence(state, config.convergence)

        # Stage 3: exact re-ordering per row, evicting overflow if needed.
        with timed_stage("refinement", stage_seconds):
            rows, evicted = self._refine_rows(instance, state)

        # Stages 4-5: post optimization.
        swaps = 0
        inserted = 0
        if config.use_post_swap:
            with timed_stage("post_swap", stage_seconds):
                rows, swaps = post_swap(instance, rows, config.swap)
        if config.use_post_insertion:
            with timed_stage("post_insertion", stage_seconds):
                rows, inserted = post_insertion(instance, rows, config.insertion)

        plan = StencilPlan.from_rows(instance, rows)
        plan.validate()
        elapsed = time.perf_counter() - start
        report = evaluate_plan(plan)
        plan.stats.update(
            {
                "algorithm": "e-blow-1d",
                "runtime_seconds": elapsed,
                "writing_time": report.total,
                "num_selected": report.num_selected,
                "lp_iterations": state.lp_iterations,
                "stage_seconds": dict(stage_seconds),
                "lp_solve_seconds": [round(t, 6) for t in state.lp_solve_seconds],
                "unsolved_history": list(state.unsolved_history),
                "last_lp_values": sorted(state.last_lp_values.values()),
                "post_swaps": swaps,
                "post_insertions": inserted,
                "evicted_in_refinement": evicted,
                "use_fast_convergence": config.use_fast_convergence,
                "use_post_swap": config.use_post_swap,
                "use_post_insertion": config.use_post_insertion,
            }
        )
        return plan

    # ------------------------------------------------------------------ #
    # Refinement stage
    # ------------------------------------------------------------------ #
    def _refine_rows(
        self, instance: OSPInstance, state: RoundingState
    ) -> tuple[list[list[str]], int]:
        """Re-order every row with the DP refinement; evict on overflow.

        Returns the ordered rows (lists of names) plus the number of
        characters that had to be dropped because the exact asymmetric-blank
        packing exceeded the stencil width.
        """
        width_limit = instance.stencil.width
        profits = compute_profits(instance, state.region_times())
        profit_by_name = {
            ch.name: profits[i] for i, ch in enumerate(instance.characters)
        }
        rows: list[list[str]] = []
        evicted = 0
        for row_state in state.rows:
            chars = list(row_state.characters)
            refined = refine_row_order(chars, self.config.refinement_threshold)
            while chars and refined.width > width_limit + 1e-9:
                victim = min(chars, key=lambda ch: profit_by_name[ch.name])
                chars = [ch for ch in chars if ch.name != victim.name]
                evicted += 1
                refined = refine_row_order(chars, self.config.refinement_threshold)
            rows.append(list(refined.order))
        return rows, evicted

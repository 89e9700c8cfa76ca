"""Post-swap stage (Section 3.5, first half).

After refinement, unselected characters are tried against selected ones: if
replacing an on-stencil character with an off-stencil one both fits the row
(checked with the exact asymmetric-blank refinement) and reduces the system
writing time, the swap is applied.  The search is greedy: unselected
characters are visited in decreasing profit order and each takes the first
improving swap it finds.

Writing times are evaluated through the incremental
:class:`~repro.core.kernels.RunningTimes` vector: each trial swap costs
O(regions) (one add, one subtract, one max over the time vector) instead of
re-summing the whole selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import RunningTimes, kernels_of
from repro.core.onedim.refinement import refine_row_order
from repro.core.profits import compute_profits
from repro.model import OSPInstance

__all__ = ["PostSwapConfig", "post_swap"]


@dataclass
class PostSwapConfig:
    """Tuning knobs of the post-swap stage."""

    max_candidates: int = 60   # unselected characters considered (by profit)
    max_targets: int = 120     # selected characters considered per candidate
    refinement_threshold: int = 20


def post_swap(
    instance: OSPInstance,
    rows: list[list[str]],
    config: PostSwapConfig | None = None,
) -> tuple[list[list[str]], int]:
    """Greedy improving swaps between off-stencil and on-stencil characters.

    Parameters
    ----------
    instance:
        The OSP instance.
    rows:
        Current row contents (lists of character names); not modified.

    Returns
    -------
    (new_rows, num_swaps)
    """
    config = config or PostSwapConfig()
    width_limit = instance.stencil.width
    rows = [list(r) for r in rows]
    selected = {name for row in rows for name in row}
    row_of = {name: r for r, row in enumerate(rows) for name in row}

    kernels = kernels_of(instance)
    index_of = kernels.name_index
    running = RunningTimes(kernels, kernels.indices_of(selected))
    current_time = running.total()
    profits = compute_profits(instance, instance.vsb_times())
    profit_by_name = {
        ch.name: profits[i] for i, ch in enumerate(instance.characters)
    }

    unselected = sorted(
        (ch.name for ch in instance.characters if ch.name not in selected),
        key=lambda name: -profit_by_name[name],
    )[: config.max_candidates]
    # Try to displace low-profit on-stencil characters first.  ``selected``
    # is a set of strings, so equal profits are ordered by instance index:
    # its iteration order would make the plan depend on PYTHONHASHSEED.
    targets = sorted(
        selected, key=lambda name: (profit_by_name[name], index_of[name])
    )[: config.max_targets]

    swaps = 0
    for candidate in unselected:
        best = None
        candidate_index = index_of[candidate]
        for target in targets:
            if target not in row_of:
                continue
            r = row_of[target]
            # O(P) trial before the (much more expensive) DP fit check.
            trial_time = running.trial_swap(index_of[target], candidate_index)
            if trial_time >= current_time - 1e-9:
                continue
            trial_names = [n for n in rows[r] if n != target] + [candidate]
            trial_chars = [instance.character(n) for n in trial_names]
            refined = refine_row_order(trial_chars, config.refinement_threshold)
            if refined.width > width_limit + 1e-9:
                continue
            best = (trial_time, target, r, list(refined.order))
            break
        if best is None:
            continue
        trial_time, target, r, order = best
        rows[r] = order
        selected.discard(target)
        selected.add(candidate)
        del row_of[target]
        row_of[candidate] = r
        running.swap(index_of[target], candidate_index)
        current_time = running.total()
        swaps += 1
        if target in targets:
            targets.remove(target)
    return rows, swaps

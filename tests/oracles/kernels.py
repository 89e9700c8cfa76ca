"""Loop-based references for the vectorized profit and writing-time kernels.

:func:`repro.core.profits.compute_profits` (Eqn. 6) and
:func:`repro.model.writing_time.region_writing_times` (Eqn. 1) evaluate
over cached NumPy arrays; these loops compute the same quantities straight
from the character records, and the kernel tests compare the two.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.model import OSPInstance

__all__ = ["compute_profits_scalar", "region_writing_times_scalar"]


def compute_profits_scalar(
    instance: OSPInstance,
    region_times: Sequence[float] | None = None,
) -> list[float]:
    """Profit of every character candidate under the given region times."""
    times = list(region_times) if region_times is not None else instance.vsb_times()
    t_max = max(times) if times else 0.0
    if t_max <= 0:
        return [0.0] * instance.num_characters
    weightings = [t / t_max for t in times]
    regions = range(instance.num_regions)
    return [
        float(
            sum(
                weightings[c] * (ch.vsb_shots - ch.cp_shots) * ch.repeats_in(c)
                for c in regions
            )
        )
        for ch in instance.characters
    ]


def region_writing_times_scalar(
    instance: OSPInstance, selected: Iterable[str]
) -> list[float]:
    """Writing time of every region given the selected character names."""
    selected_set = set(selected)
    times = instance.vsb_times()
    for i, ch in enumerate(instance.characters):
        if ch.name in selected_set:
            for c in range(instance.num_regions):
                times[c] -= instance.reduction(i, c)
    return times

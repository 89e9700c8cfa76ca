"""Character profit values (Eqn. 6 of the paper).

Each character candidate gets a scalar *profit* that estimates how much the
system writing time improves if the character is put on the stencil::

    profit_i = sum_c (t_c / t_max) * (n_i - 1) * t_ic

where ``t_c`` is the *current* writing time of region ``c`` and ``t_max`` is
the current maximum over regions.  Regions that currently dominate the
system writing time therefore weigh more, which is how E-BLOW balances the
throughput of the different CP regions of an MCC system.

:func:`compute_profits` evaluates the whole vector as one matvec over the
cached instance arrays (see :mod:`repro.core.kernels`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.kernels import kernels_of
from repro.model import OSPInstance

__all__ = [
    "compute_profits",
    "profit_of",
    "initial_region_times",
]


def initial_region_times(instance: OSPInstance, selected: Iterable[str] = ()) -> list[float]:
    """Current writing time of every region given the already-selected characters."""
    from repro.model.writing_time import region_writing_times

    return region_writing_times(instance, selected)


def compute_profits(
    instance: OSPInstance,
    region_times: Sequence[float] | None = None,
) -> list[float]:
    """Profit of every character candidate under the current region times.

    Parameters
    ----------
    instance:
        The OSP instance.
    region_times:
        Current writing time ``t_c`` per region.  Defaults to the pure-VSB
        times (i.e. nothing selected yet).
    """
    return kernels_of(instance).profits(region_times).tolist()


def profit_of(
    instance: OSPInstance, char_index: int, region_times: Sequence[float]
) -> float:
    """Profit of a single character under the given region times."""
    t_max = max(region_times) if len(region_times) else 0.0
    if t_max <= 0:
        return 0.0
    ch = instance.characters[char_index]
    delta = ch.vsb_shots - ch.cp_shots
    return float(
        sum(
            (region_times[c] / t_max) * delta * ch.repeats_in(c)
            for c in range(instance.num_regions)
        )
    )

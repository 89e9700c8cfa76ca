"""E-BLOW core algorithms (the paper's primary contribution)."""

from repro.core.kernels import InstanceKernels, RunningTimes, kernels_of
from repro.core.profits import (
    compute_profits,
    initial_region_times,
    profit_of,
)

__all__ = [
    "compute_profits",
    "profit_of",
    "initial_region_times",
    "InstanceKernels",
    "RunningTimes",
    "kernels_of",
]

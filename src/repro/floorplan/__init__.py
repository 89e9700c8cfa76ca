"""Floorplanning substrate: sequence pair, packing, simulated annealing."""

from repro.floorplan.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    Move,
    MoveTypeStats,
    simulated_annealing_in_place,
)
from repro.floorplan.fixed_outline import (
    FixedOutlinePacker,
    FixedOutlineResult,
    RegionTimeModel,
)
from repro.floorplan.packing import (
    Block,
    IncrementalPacker,
    PackerMove,
    PackingResult,
    SwapBoth,
    SwapNegative,
    SwapPositive,
    pack_sequence_pair,
)
from repro.floorplan.sequence_pair import SequencePair

__all__ = [
    "SequencePair",
    "Block",
    "PackingResult",
    "pack_sequence_pair",
    "IncrementalPacker",
    "PackerMove",
    "SwapPositive",
    "SwapNegative",
    "SwapBoth",
    "AnnealingSchedule",
    "AnnealingResult",
    "Move",
    "MoveTypeStats",
    "simulated_annealing_in_place",
    "FixedOutlinePacker",
    "FixedOutlineResult",
    "RegionTimeModel",
]

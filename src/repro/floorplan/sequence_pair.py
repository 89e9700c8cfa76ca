"""Sequence-pair floorplan representation [Murata et al. 1996].

A sequence pair is two permutations (Gamma+, Gamma-) of the block names.
Their relative order encodes the pairwise geometric relation:

* ``a`` before ``b`` in *both* sequences  →  ``a`` is left of ``b``,
* ``a`` after ``b`` in Gamma+ but before ``b`` in Gamma-  →  ``a`` is below ``b``.

The E-BLOW 2D flow (like the framework of [24] it compares against) explores
the space of sequence pairs with simulated annealing.  This immutable value
is what the annealer snapshots and returns; the three swap moves and the
coordinate computation act on the packer's mutable copy of the pair, in
:mod:`repro.floorplan.packing`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ValidationError

__all__ = ["SequencePair"]


@dataclass(frozen=True)
class SequencePair:
    """An immutable sequence pair over a set of block names."""

    positive: tuple[str, ...]
    negative: tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.positive) != sorted(self.negative):
            raise ValidationError("the two sequences must contain the same blocks")
        if len(set(self.positive)) != len(self.positive):
            raise ValidationError("sequence pair contains duplicate block names")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def initial(cls, names: Sequence[str], rng: random.Random | None = None) -> "SequencePair":
        """A random initial sequence pair (or identity order when no RNG given)."""
        names = list(names)
        if rng is None:
            return cls(positive=tuple(names), negative=tuple(names))
        positive = list(names)
        negative = list(names)
        rng.shuffle(positive)
        rng.shuffle(negative)
        return cls(positive=tuple(positive), negative=tuple(negative))

    @property
    def size(self) -> int:
        return len(self.positive)

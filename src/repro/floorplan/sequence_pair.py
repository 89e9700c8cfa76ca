"""Sequence-pair floorplan representation [Murata et al. 1996].

A sequence pair is two permutations (Gamma+, Gamma-) of the block names.
Their relative order encodes the pairwise geometric relation:

* ``a`` before ``b`` in *both* sequences  →  ``a`` is left of ``b``,
* ``a`` after ``b`` in Gamma+ but before ``b`` in Gamma-  →  ``a`` is below ``b``.

The E-BLOW 2D flow (like the framework of [24] it compares against) explores
the space of sequence pairs with simulated annealing; the perturbation moves
are provided here, the coordinate computation lives in
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

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #
    def is_left_of(self, a: str, b: str) -> bool:
        """Whether block ``a`` is constrained to the left of ``b``."""
        pos_p = {name: i for i, name in enumerate(self.positive)}
        pos_n = {name: i for i, name in enumerate(self.negative)}
        return pos_p[a] < pos_p[b] and pos_n[a] < pos_n[b]

    def is_below(self, a: str, b: str) -> bool:
        """Whether block ``a`` is constrained below ``b``."""
        pos_p = {name: i for i, name in enumerate(self.positive)}
        pos_n = {name: i for i, name in enumerate(self.negative)}
        return pos_p[a] > pos_p[b] and pos_n[a] < pos_n[b]

    # ------------------------------------------------------------------ #
    # Annealing moves
    # ------------------------------------------------------------------ #
    def swap_positive(self, i: int, j: int) -> "SequencePair":
        """Swap two positions in Gamma+ only."""
        positive = list(self.positive)
        positive[i], positive[j] = positive[j], positive[i]
        return SequencePair(positive=tuple(positive), negative=self.negative)

    def swap_negative(self, i: int, j: int) -> "SequencePair":
        """Swap two positions in Gamma- only."""
        negative = list(self.negative)
        negative[i], negative[j] = negative[j], negative[i]
        return SequencePair(positive=self.positive, negative=tuple(negative))

    def swap_both(self, a: str, b: str) -> "SequencePair":
        """Swap two blocks in both sequences (exchanges their roles entirely)."""
        def swapped(seq: tuple[str, ...]) -> tuple[str, ...]:
            out = list(seq)
            ia, ib = out.index(a), out.index(b)
            out[ia], out[ib] = out[ib], out[ia]
            return tuple(out)

        return SequencePair(positive=swapped(self.positive), negative=swapped(self.negative))

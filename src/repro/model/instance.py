"""OSP problem instances.

An :class:`OSPInstance` bundles everything the planners need: the character
candidates, the wafer regions of the MCC system, and the stencil outline.
It also pre-computes the constants of Section 2.1 of the paper:

* ``T_VSB(c)`` — writing time of region ``c`` when no character is on the
  stencil (pure VSB),
* ``R_ic``   — writing-time reduction of character ``i`` in region ``c`` when
  the character is selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from repro.errors import ValidationError
from repro.model.character import Character
from repro.model.region import Region
from repro.model.stencil import StencilSpec

__all__ = ["OSPInstance"]

T = TypeVar("T")


@dataclass(frozen=True)
class OSPInstance:
    """A complete overlapping-aware stencil planning instance.

    Parameters
    ----------
    name:
        Instance identifier (e.g. ``"1M-3"``).
    characters:
        Character candidates ``c_1 ... c_n``.
    regions:
        Wafer regions ``r_1 ... r_P`` (one per CP).  A conventional single-CP
        EBL system is simply an instance with one region.
    stencil:
        Stencil outline.
    kind:
        ``"1D"`` for row-structured instances, ``"2D"`` for general ones.
    """

    name: str
    characters: tuple[Character, ...]
    regions: tuple[Region, ...]
    stencil: StencilSpec
    kind: str = "1D"
    # Excluded from __eq__ (and so from the generated hash): caller notes
    # such as the generator seed do not change the problem.
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)
    # Data derived from the fields above, built on first use (see cached()).
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("1D", "2D"):
            raise ValidationError(f"instance kind must be '1D' or '2D', got {self.kind!r}")
        if not self.characters:
            raise ValidationError(f"instance {self.name!r} has no characters")
        if not self.regions:
            raise ValidationError(f"instance {self.name!r} has no regions")
        names = [c.name for c in self.characters]
        if len(set(names)) != len(names):
            raise ValidationError(f"instance {self.name!r} has duplicate character names")
        indices = sorted(r.index for r in self.regions)
        if indices != list(range(len(self.regions))):
            raise ValidationError(
                f"instance {self.name!r}: region indices must be 0..P-1, got {indices}"
            )
        n_regions = len(self.regions)
        for ch in self.characters:
            if len(ch.repeats) != n_regions:
                raise ValidationError(
                    f"instance {self.name!r}: character {ch.name!r} has "
                    f"{len(ch.repeats)} repeat entries but there are {n_regions} regions"
                )
        object.__setattr__(self, "characters", tuple(self.characters))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "metadata", dict(self.metadata))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_characters(self) -> int:
        """Number of character candidates ``n``."""
        return len(self.characters)

    @property
    def num_regions(self) -> int:
        """Number of CP regions ``P``."""
        return len(self.regions)

    def character_index(self, name: str) -> int:
        """Index of the character named ``name`` (raises ``KeyError`` if absent)."""
        return self._name_to_index()[name]

    def character(self, name: str) -> Character:
        """The character named ``name``."""
        return self.characters[self.character_index(name)]

    def _name_to_index(self) -> dict[str, int]:
        return self.cached("name_index", self._index_names)

    def _index_names(self) -> dict[str, int]:
        return {c.name: i for i, c in enumerate(self.characters)}

    # ------------------------------------------------------------------ #
    # Derived data
    # ------------------------------------------------------------------ #
    def cached(self, key: str, build: Callable[[], T]) -> T:
        """``build()``, computed once per instance under ``key``.

        Instances are immutable, so derived data never goes stale.  It is
        never compared, serialized or pickled: a pickled instance (a job
        shipped to a pool worker) carries its data only, and the other side
        rebuilds what it uses.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_derived": {}}

    # ------------------------------------------------------------------ #
    # Writing-time constants (Section 2.1)
    # ------------------------------------------------------------------ #
    def _array_cache(self) -> dict:
        return self.cached("arrays", self._build_arrays)

    def _build_arrays(self) -> dict:
        """NumPy views of the Section-2.1 constants, marked read-only.

        Callers that need to mutate must copy.
        """
        repeats = np.array([ch.repeats for ch in self.characters], dtype=float)
        vsb_shots = np.array([ch.vsb_shots for ch in self.characters], dtype=float)
        cp_shots = np.array([ch.cp_shots for ch in self.characters], dtype=float)
        shot_delta = vsb_shots - cp_shots
        reductions = repeats * shot_delta[:, None]
        vsb_times = (repeats * vsb_shots[:, None]).sum(axis=0)
        arrays = {
            "repeats": repeats,
            "shot_delta": shot_delta,
            "reductions": reductions,
            "vsb_times": vsb_times,
        }
        for arr in arrays.values():
            arr.setflags(write=False)
        return arrays

    def repeat_matrix_array(self) -> np.ndarray:
        """Read-only ``(n, P)`` matrix of occurrence counts ``t_ic``."""
        return self._array_cache()["repeats"]

    def shot_delta_array(self) -> np.ndarray:
        """Read-only ``(n,)`` vector of per-occurrence savings ``n_i - cp_i``."""
        return self._array_cache()["shot_delta"]

    def reduction_matrix_array(self) -> np.ndarray:
        """Read-only ``(n, P)`` matrix of reductions ``R_ic = t_ic (n_i - cp_i)``."""
        return self._array_cache()["reductions"]

    def vsb_times_array(self) -> np.ndarray:
        """Read-only ``(P,)`` vector of pure-VSB region writing times."""
        return self._array_cache()["vsb_times"]

    def vsb_time(self, region_index: int) -> float:
        """``T_VSB(c)``: writing time of a region when only VSB is used."""
        return float(self.vsb_times_array()[region_index])

    def vsb_times(self) -> list[float]:
        """``T_VSB`` for every region, in region-index order."""
        return self.vsb_times_array().tolist()

    def reduction(self, char_index: int, region_index: int) -> float:
        """``R_ic``: writing-time reduction of character ``i`` in region ``c``."""
        return self.characters[char_index].reduction_in(region_index)

    def reduction_matrix(self) -> list[list[float]]:
        """Matrix ``R[i][c]`` of writing-time reductions."""
        return self.reduction_matrix_array().tolist()

    def indices_of(self, names: Iterable[str]) -> list[int]:
        """Character indices for the given names (unknown names are skipped)."""
        index = self._name_to_index()
        return [index[name] for name in names if name in index]

    # ------------------------------------------------------------------ #
    # Derived 1D quantities
    # ------------------------------------------------------------------ #
    def uniform_row_height(self) -> float:
        """Common character height for 1D instances (max over characters)."""
        return max(ch.height for ch in self.characters)

    def row_count(self) -> int:
        """Number of stencil rows available for 1D planning."""
        return self.stencil.row_count_for(self.uniform_row_height())

    def subset(self, names: Iterable[str], name: str | None = None) -> "OSPInstance":
        """Restrict the instance to the given character names (keeps order)."""
        wanted = set(names)
        chars = tuple(c for c in self.characters if c.name in wanted)
        return OSPInstance(
            name=name or f"{self.name}-subset",
            characters=chars,
            regions=self.regions,
            stencil=self.stencil,
            kind=self.kind,
            metadata=self.metadata,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "stencil": self.stencil.to_dict(),
            "regions": [r.to_dict() for r in self.regions],
            "characters": [c.to_dict() for c in self.characters],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "OSPInstance":
        return cls(
            name=data["name"],
            kind=data.get("kind", "1D"),
            stencil=StencilSpec.from_dict(data["stencil"]),
            regions=tuple(Region.from_dict(r) for r in data["regions"]),
            characters=tuple(Character.from_dict(c) for c in data["characters"]),
            metadata=data.get("metadata", {}),
        )

    @classmethod
    def single_region(
        cls,
        name: str,
        characters: Sequence[Character],
        stencil: StencilSpec,
        kind: str = "1D",
    ) -> "OSPInstance":
        """Build a conventional (single-CP) EBL instance.

        Characters whose ``repeats`` vector is empty get a single entry equal
        to 1; characters with longer vectors are rejected.
        """
        fixed = []
        for ch in characters:
            if len(ch.repeats) == 0:
                fixed.append(ch.with_repeats((1.0,)))
            elif len(ch.repeats) == 1:
                fixed.append(ch)
            else:
                raise ValidationError(
                    f"character {ch.name!r} has {len(ch.repeats)} regions; expected <= 1"
                )
        return cls(
            name=name,
            characters=tuple(fixed),
            regions=(Region("w1", 0),),
            stencil=stencil,
            kind=kind,
        )

"""Stencil placements and plans.

A *plan* is the output of every planner in this library: which characters
were selected and where they sit on the stencil.  Two geometric flavours are
supported, mirroring the paper's 1DOSP/2DOSP split:

* :class:`RowPlacement` — a character assigned to a row at an x position
  (1DOSP).
* :class:`Placement2D` — a character placed at an (x, y) position (2DOSP).

:class:`StencilPlan` holds the selected placements plus validation logic: it
checks the stencil outline and verifies that characters only overlap within
their shared blank margins (never pattern-over-pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import PlacementError, ValidationError
from repro.model.instance import OSPInstance

__all__ = ["RowPlacement", "Placement2D", "StencilPlan"]

_EPS = 1e-6


@dataclass(frozen=True)
class RowPlacement:
    """A 1D placement: character ``name`` on row ``row`` at x offset ``x``."""

    name: str
    row: int
    x: float

    def __post_init__(self) -> None:
        if self.row < 0:
            raise ValidationError(f"placement of {self.name!r}: row must be >= 0")

    def to_dict(self) -> dict:
        return {"name": self.name, "row": self.row, "x": self.x}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RowPlacement":
        return cls(name=data["name"], row=data["row"], x=data["x"])


@dataclass(frozen=True)
class Placement2D:
    """A 2D placement: character ``name`` with its lower-left corner at (x, y)."""

    name: str
    x: float
    y: float

    def to_dict(self) -> dict:
        return {"name": self.name, "x": self.x, "y": self.y}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Placement2D":
        return cls(name=data["name"], x=data["x"], y=data["y"])


@dataclass
class StencilPlan:
    """Result of stencil planning for an :class:`OSPInstance`.

    Exactly one of ``row_placements`` / ``placements2d`` is normally
    populated, matching the instance kind.  A plan may also be "selection
    only" (no geometry), which is how intermediate algorithm stages represent
    their state; :meth:`validate` then only checks capacity-free invariants.
    """

    instance: OSPInstance
    row_placements: list[RowPlacement] = field(default_factory=list)
    placements2d: list[Placement2D] = field(default_factory=list)
    selection: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Selection helpers
    # ------------------------------------------------------------------ #
    @property
    def selected_names(self) -> list[str]:
        """Names of the characters on the stencil, in placement order."""
        if self.row_placements:
            return [p.name for p in self.row_placements]
        if self.placements2d:
            return [p.name for p in self.placements2d]
        return list(self.selection)

    @property
    def num_selected(self) -> int:
        """Number of characters on the stencil (the paper's "char #")."""
        return len(self.selected_names)

    def selection_vector(self) -> list[int]:
        """0/1 vector ``a_i`` aligned with ``instance.characters``."""
        selected = set(self.selected_names)
        return [1 if c.name in selected else 0 for c in self.instance.characters]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, require_geometry: bool = True) -> None:
        """Raise :class:`PlacementError` if the plan is illegal.

        Checks performed:

        * every placed character exists in the instance and is placed once,
        * placements stay inside the stencil outline,
        * patterns never overlap; only blank margins may be shared.
        """
        names = self.selected_names
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PlacementError(f"characters placed more than once: {dupes}")
        known = {c.name for c in self.instance.characters}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise PlacementError(f"placements reference unknown characters: {unknown}")
        if self.row_placements and self.placements2d:
            raise PlacementError("plan mixes row placements and 2D placements")
        if not require_geometry and not (self.row_placements or self.placements2d):
            return
        if self.row_placements:
            self._validate_rows()
        elif self.placements2d:
            self._validate_2d()

    def _validate_rows(self) -> None:
        inst = self.instance
        stencil = inst.stencil
        max_row = inst.row_count() - 1
        by_row: dict[int, list[RowPlacement]] = {}
        for p in self.row_placements:
            ch = inst.character(p.name)
            if p.row > max_row:
                raise PlacementError(
                    f"{p.name!r} assigned to row {p.row}, but only rows 0..{max_row} exist"
                )
            if p.x < -_EPS or p.x + ch.width > stencil.width + _EPS:
                raise PlacementError(
                    f"{p.name!r} exceeds stencil width: x={p.x}, width={ch.width}, "
                    f"stencil width={stencil.width}"
                )
            by_row.setdefault(p.row, []).append(p)
        for row, placements in by_row.items():
            ordered = sorted(placements, key=lambda p: p.x)
            for left, right in zip(ordered, ordered[1:]):
                lch = inst.character(left.name)
                rch = inst.character(right.name)
                gap = right.x - (left.x + lch.width)
                allowed = -lch.horizontal_overlap(rch)
                if gap < allowed - _EPS:
                    raise PlacementError(
                        f"row {row}: patterns of {left.name!r} and {right.name!r} overlap "
                        f"(gap {gap:.3f} < allowed {allowed:.3f})"
                    )

    def _validate_2d(self) -> None:
        inst = self.instance
        stencil = inst.stencil
        placed = []
        for p in self.placements2d:
            ch = inst.character(p.name)
            if (
                p.x < -_EPS
                or p.y < -_EPS
                or p.x + ch.width > stencil.width + _EPS
                or p.y + ch.height > stencil.height + _EPS
            ):
                raise PlacementError(
                    f"{p.name!r} outside stencil outline: pos=({p.x}, {p.y}), "
                    f"size=({ch.width}, {ch.height}), stencil=({stencil.width}, {stencil.height})"
                )
            placed.append((p, ch))
        for i in range(len(placed)):
            for j in range(i + 1, len(placed)):
                self._check_pattern_disjoint(placed[i], placed[j])

    @staticmethod
    def _check_pattern_disjoint(a, b) -> None:
        """Patterns (footprint minus blanks) must never overlap."""
        (pa, ca), (pb, cb) = a, b
        ax0 = pa.x + ca.blank_left
        ax1 = pa.x + ca.width - ca.blank_right
        ay0 = pa.y + ca.blank_bottom
        ay1 = pa.y + ca.height - ca.blank_top
        bx0 = pb.x + cb.blank_left
        bx1 = pb.x + cb.width - cb.blank_right
        by0 = pb.y + cb.blank_bottom
        by1 = pb.y + cb.height - cb.blank_top
        x_overlap = min(ax1, bx1) - max(ax0, bx0)
        y_overlap = min(ay1, by1) - max(ay0, by0)
        if x_overlap > _EPS and y_overlap > _EPS:
            raise PlacementError(
                f"patterns of {ca.name!r} and {cb.name!r} overlap by "
                f"({x_overlap:.3f} x {y_overlap:.3f})"
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        instance: OSPInstance,
        rows: Sequence[Sequence[str]],
        stats: Mapping | None = None,
    ) -> "StencilPlan":
        """Build a 1D plan from an ordered list of character names per row.

        Characters are packed left to right, abutting so that adjacent blanks
        are shared (the minimum packing of Lemma 1 for symmetric blanks).
        """
        placements: list[RowPlacement] = []
        for row_index, row_names in enumerate(rows):
            x = 0.0
            prev = None
            for name in row_names:
                ch = instance.character(name)
                if prev is not None:
                    x -= prev.horizontal_overlap(ch)
                placements.append(RowPlacement(name=name, row=row_index, x=x))
                x += ch.width
                prev = ch
        return cls(
            instance=instance,
            row_placements=placements,
            stats=dict(stats or {}),
        )

    def rows_as_names(self) -> list[list[str]]:
        """Inverse of :meth:`from_rows`: ordered character names per row."""
        n_rows = max((p.row for p in self.row_placements), default=-1) + 1
        rows: list[list[RowPlacement]] = [[] for _ in range(n_rows)]
        for p in self.row_placements:
            rows[p.row].append(p)
        return [[p.name for p in sorted(r, key=lambda p: p.x)] for r in rows]

    def row_widths(self) -> list[float]:
        """Used width of each row (right edge of the rightmost character)."""
        widths: dict[int, float] = {}
        for p in self.row_placements:
            ch = self.instance.character(p.name)
            widths[p.row] = max(widths.get(p.row, 0.0), p.x + ch.width)
        n_rows = max(widths, default=-1) + 1
        return [widths.get(r, 0.0) for r in range(n_rows)]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "instance": self.instance.name,
            "row_placements": [p.to_dict() for p in self.row_placements],
            "placements2d": [p.to_dict() for p in self.placements2d],
            "selection": list(self.selection),
            "stats": {k: v for k, v in self.stats.items()},
        }

    @classmethod
    def from_dict(cls, instance: OSPInstance, data: Mapping) -> "StencilPlan":
        return cls(
            instance=instance,
            row_placements=[RowPlacement.from_dict(d) for d in data.get("row_placements", [])],
            placements2d=[Placement2D.from_dict(d) for d in data.get("placements2d", [])],
            selection=list(data.get("selection", [])),
            stats=dict(data.get("stats", {})),
        )

    @classmethod
    def empty(cls, instance: OSPInstance) -> "StencilPlan":
        """A plan with nothing on the stencil (pure-VSB writing)."""
        return cls(instance=instance)

    @classmethod
    def from_selection(
        cls, instance: OSPInstance, names: Iterable[str]
    ) -> "StencilPlan":
        """A selection-only plan (no geometry), mainly for evaluation/tests."""
        plan = cls(instance=instance, selection=list(names))
        plan.stats["selection_only"] = True
        return plan

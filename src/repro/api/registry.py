"""The planner registry: one :class:`PlannerHandle` per planner.

A handle names a planner, says which instance kind it plans, declares the
options it takes, and carries the builder that turns a validated options
dict into an object satisfying the :class:`Planner` protocol.  The
first-party handles register themselves in :mod:`repro.api.planners`;
:meth:`PlannerHandle.describe` is what the CLI's ``planners`` verb prints.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Protocol, runtime_checkable

from repro.errors import ValidationError

__all__ = [
    "Planner",
    "OptionField",
    "PlannerHandle",
    "register",
    "resolve_planner",
    "get_handle",
    "iter_handles",
    "list_planners",
    "describe_planners",
]


@runtime_checkable
class Planner(Protocol):
    """Anything that can plan a stencil for an OSP instance."""

    def plan(self, instance) -> object:  # returns repro.model.StencilPlan
        ...


# --------------------------------------------------------------------------- #
# Options
# --------------------------------------------------------------------------- #

def _coerce_bool(value):
    """Strict bool coercion: never let ``bool("false")`` invert intent.

    Options routinely arrive as strings (manifests, CLI plumbing, service
    payloads), where Python's truthiness would turn ``"false"`` / ``"0"``
    into ``True`` silently.  Accept real bools, 0/1, and the canonical
    true/false spellings; reject everything else.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
    raise ValueError(f"not a boolean: {value!r}")


_COERCERS: dict[str, Callable] = {
    "bool": _coerce_bool,
    "int": int,
    "float": float,
    "str": str,
}


@dataclass(frozen=True)
class OptionField:
    """One declared planner option.

    ``type`` is one of ``bool`` / ``int`` / ``float`` / ``str``.  ``default``
    documents what the planner uses when the option is omitted — validation
    never injects it, so an options dict only ever contains what the caller
    wrote (keeping content hashes of old jobs stable).
    """

    name: str
    type: str = "str"
    default: object = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in _COERCERS:
            raise ValidationError(
                f"option {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {sorted(_COERCERS)}"
            )

    def coerce(self, value, planner: str):
        try:
            return _COERCERS[self.type](value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"option {self.name!r} of planner {planner!r} expects "
                f"{self.type}, got {value!r}"
            ) from exc

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "type": self.type}
        if self.default is not None:
            data["default"] = self.default
        if self.description:
            data["description"] = self.description
        return data


# --------------------------------------------------------------------------- #
# Handles and the registry
# --------------------------------------------------------------------------- #

PlannerBuilder = Callable[[dict], Planner]


@dataclass(frozen=True)
class PlannerHandle:
    """One registered planner: identity, declared surface, and builder.

    ``kind`` is ``"1D"``, ``"2D"``, or ``None`` for kind-agnostic planners.
    ``deterministic`` means identical inputs give bit-identical plans under
    the planner's *default* options regardless of machine load (the
    time-limited exact ILP planners return whatever incumbent the wall
    clock allowed, so they declare ``False``).  ``event_types`` lists the
    :data:`~repro.events.EVENT_TYPES` the planner emits.
    """

    name: str
    description: str
    kind: str | None
    builder: PlannerBuilder
    options: tuple[OptionField, ...] = ()
    deterministic: bool = True
    event_types: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [option.name for option in self.options]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate option names for planner {self.name!r}: {names}")

    @property
    def supports_time_limit(self) -> bool:
        """Whether the planner takes a ``time_limit`` option."""
        return any(option.name == "time_limit" for option in self.options)

    def validate_options(self, options: Mapping | None) -> dict:
        """Check ``options`` against the declared ones; return the coerced dict.

        Raises :class:`~repro.errors.ValidationError` naming the unknown
        option(s) and the allowed set.  Declared defaults are *not* injected:
        the result contains exactly the keys the caller supplied.
        """
        declared = {option.name: option for option in self.options}
        options = dict(options or {})
        unknown = sorted(set(options) - set(declared))
        if unknown:
            raise ValidationError(
                f"unknown option(s) {unknown} for planner {self.name!r}; "
                f"allowed: {sorted(declared)}"
            )
        return {name: declared[name].coerce(value, self.name) for name, value in options.items()}

    def build(self, options: Mapping | None = None) -> Planner:
        """Validate ``options`` and instantiate the planner."""
        return self.builder(self.validate_options(options))

    def describe(self) -> dict:
        """Canonical-JSON summary (what ``eblow planners --json`` prints)."""
        return {
            "name": self.name,
            "description": self.description,
            "capabilities": {
                "kind": self.kind,
                "deterministic": self.deterministic,
                "supports_time_limit": self.supports_time_limit,
                "event_types": list(self.event_types),
            },
            "options": {"version": 1, "fields": [option.to_dict() for option in self.options]},
        }


_REGISTRY: dict[str, PlannerHandle] = {}


def register(handle: PlannerHandle) -> PlannerHandle:
    """Register (or replace) a planner handle under its lowercased name."""
    _REGISTRY[handle.name.lower()] = handle
    return handle


def resolve_planner(name: str, kind: str | None = None) -> str:
    """Resolve ``name`` to a registry key, honouring kind-suffix shorthand.

    ``resolve_planner("eblow", "2D")`` returns ``"eblow-2d"``: a bare family
    name dispatches on the instance kind, so the CLI's ``--planner eblow``
    works for both 1D and 2D instances.  Unknown names raise a
    :class:`~repro.errors.ValidationError` that lists the registered keys and
    suggests the nearest matches.
    """
    key = name.lower()
    if key in _REGISTRY:
        return key
    if kind is not None:
        suffixed = f"{key}-{kind.lower()}"
        if suffixed in _REGISTRY:
            return suffixed
    available = sorted(_REGISTRY)
    candidates = set(available)
    if kind is not None:
        # Suggest bare family names too: "eblov" for kind 1D should offer "eblow".
        suffix = f"-{kind.lower()}"
        candidates.update(n[: -len(suffix)] for n in available if n.endswith(suffix))
    close = difflib.get_close_matches(key, sorted(candidates), n=3, cutoff=0.5)
    hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
    raise ValidationError(
        f"unknown planner {name!r}"
        + (f" for kind {kind!r}" if kind else "")
        + f"; registered planners: {available}"
        + hint
    )


def get_handle(name: str, kind: str | None = None) -> PlannerHandle:
    """The handle for ``name`` (with kind-suffix shorthand resolution)."""
    return _REGISTRY[resolve_planner(name, kind)]


def iter_handles(kind: str | None = None) -> Iterator[PlannerHandle]:
    """All registered handles in name order, optionally filtered by kind."""
    for name in sorted(_REGISTRY):
        handle = _REGISTRY[name]
        if kind is None or handle.kind is None or handle.kind == kind:
            yield handle


def list_planners() -> dict[str, str]:
    """Mapping of registered planner names to one-line descriptions."""
    return {handle.name: handle.description for handle in iter_handles()}


def describe_planners(kind: str | None = None) -> list[dict]:
    """JSON-able descriptions of every registered planner."""
    return [handle.describe() for handle in iter_handles(kind)]

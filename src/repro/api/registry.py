"""The planner registry: handles, capabilities, and declarative option schemas.

Every planner the system can run is described by a :class:`PlannerHandle`:
its registry name, a one-line description, its :class:`PlannerCapabilities`
(instance kind, determinism, which knobs it understands, which events it
emits), a declarative :class:`OptionSchema` for its options, and a builder
that turns a validated options dict into an object satisfying the
:class:`Planner` protocol.

Handles self-register at definition time (see :mod:`repro.api.planners`),
replacing the ad-hoc ``_build_*`` closures and per-planner option filtering
the batch runtime used to hide.  Everything on a handle round-trips to
canonical JSON (:meth:`PlannerHandle.describe`), which is what the CLI's
``planners`` verb prints and what keys versioned artifacts.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Protocol, runtime_checkable

from repro.errors import ValidationError

__all__ = [
    "Planner",
    "OptionField",
    "OptionSchema",
    "PlannerCapabilities",
    "PlannerHandle",
    "register",
    "register_planner",
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
# Option schemas
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
    """One declarative planner option.

    ``type`` is one of ``bool`` / ``int`` / ``float`` / ``str``; ``choices``
    (for ``str`` fields) enumerates the legal values.  ``default`` documents
    what the planner uses when the option is omitted — validation never
    injects it, so an options dict only ever contains what the caller wrote
    (keeping content hashes of old jobs stable).
    """

    name: str
    type: str = "str"
    default: object = None
    choices: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in _COERCERS:
            raise ValidationError(
                f"option {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {sorted(_COERCERS)}"
            )

    def coerce(self, value, planner: str):
        try:
            coerced = _COERCERS[self.type](value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"option {self.name!r} of planner {planner!r} expects "
                f"{self.type}, got {value!r}"
            ) from exc
        if self.choices and coerced not in self.choices:
            raise ValidationError(
                f"option {self.name!r} of planner {planner!r} must be one of "
                f"{sorted(self.choices)}, got {coerced!r}"
            )
        return coerced

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "type": self.type}
        if self.default is not None:
            data["default"] = self.default
        if self.choices:
            data["choices"] = list(self.choices)
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptionField":
        return cls(
            name=data["name"],
            type=data.get("type", "str"),
            default=data.get("default"),
            choices=tuple(data.get("choices", ())),
            description=data.get("description", ""),
        )


@dataclass(frozen=True)
class OptionSchema:
    """The declared options of one planner, versioned for serialization.

    ``open_schema=True`` disables unknown-option checking (used by the legacy
    :func:`register_planner` back-compat path, whose free-form builders take
    whatever dict they are given).
    """

    fields: tuple[OptionField, ...] = ()
    version: int = 1
    open_schema: bool = False

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate option names in schema: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field_by_name(self, name: str) -> OptionField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def validate(self, options: Mapping, planner: str) -> dict:
        """Check ``options`` against the schema; return the coerced dict.

        Raises :class:`~repro.errors.ValidationError` naming the unknown
        option(s) and the allowed set — the same contract the runtime's old
        ``_take`` filter enforced.  Declared defaults are *not* injected:
        the result contains exactly the keys the caller supplied.
        """
        options = dict(options or {})
        if self.open_schema:
            return options
        unknown = sorted(set(options) - set(self.names))
        if unknown:
            raise ValidationError(
                f"unknown option(s) {unknown} for planner {planner!r}; "
                f"allowed: {sorted(self.names)}"
            )
        return {
            name: self.field_by_name(name).coerce(value, planner)
            for name, value in options.items()
        }

    def to_dict(self) -> dict:
        data: dict = {"version": self.version, "fields": [f.to_dict() for f in self.fields]}
        if self.open_schema:
            data["open"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptionSchema":
        return cls(
            fields=tuple(OptionField.from_dict(f) for f in data.get("fields", ())),
            version=int(data.get("version", 1)),
            open_schema=bool(data.get("open", False)),
        )


# --------------------------------------------------------------------------- #
# Capabilities
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlannerCapabilities:
    """What a planner can do, as declared data.

    ``kind`` is ``"1D"``, ``"2D"``, or ``None`` for kind-agnostic planners.
    ``deterministic`` means identical inputs give bit-identical plans under
    the planner's *default* options regardless of machine load (the
    time-limited exact ILP planners return whatever incumbent the wall
    clock allowed, so they declare ``False``).
    """

    kind: str | None = None
    deterministic: bool = True
    supports_time_limit: bool = False
    event_types: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "deterministic": self.deterministic,
            "supports_time_limit": self.supports_time_limit,
            "event_types": list(self.event_types),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlannerCapabilities":
        return cls(
            kind=data.get("kind"),
            deterministic=bool(data.get("deterministic", True)),
            supports_time_limit=bool(data.get("supports_time_limit", False)),
            event_types=tuple(data.get("event_types", ())),
        )


# --------------------------------------------------------------------------- #
# Handles and the registry
# --------------------------------------------------------------------------- #

PlannerBuilder = Callable[[dict], Planner]


@dataclass(frozen=True)
class PlannerHandle:
    """One registered planner: identity, declared surface, and builder."""

    name: str
    description: str
    capabilities: PlannerCapabilities
    schema: OptionSchema = field(default_factory=OptionSchema)
    builder: PlannerBuilder | None = None

    def validate_options(self, options: Mapping | None) -> dict:
        return self.schema.validate(options or {}, self.name)

    def build(self, options: Mapping | None = None) -> Planner:
        """Validate ``options`` against the schema and instantiate the planner."""
        if self.builder is None:
            raise ValidationError(f"planner {self.name!r} has no builder registered")
        return self.builder(self.validate_options(options))

    def describe(self) -> dict:
        """Canonical-JSON summary (what ``eblow planners --json`` prints)."""
        return {
            "name": self.name,
            "description": self.description,
            "capabilities": self.capabilities.to_dict(),
            "options": self.schema.to_dict(),
        }


_REGISTRY: dict[str, PlannerHandle] = {}


def register(handle: PlannerHandle) -> PlannerHandle:
    """Register (or replace) a planner handle under its lowercased name."""
    _REGISTRY[handle.name.lower()] = handle
    return handle


def register_planner(
    name: str,
    builder: PlannerBuilder,
    kind: str | None = None,
    description: str = "",
) -> None:
    """Legacy registration shim: wrap a bare builder in an open-schema handle.

    Kept so pre-façade callers (and their pickled worker processes) keep
    working; new code should build a :class:`PlannerHandle` and call
    :func:`register` with explicit capabilities and an option schema.
    """
    register(
        PlannerHandle(
            name=name.lower(),
            description=description,
            capabilities=PlannerCapabilities(kind=kind),
            schema=OptionSchema(open_schema=True),
            builder=builder,
        )
    )


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
        if kind is None or handle.capabilities.kind is None or handle.capabilities.kind == kind:
            yield handle


def list_planners() -> dict[str, str]:
    """Mapping of registered planner names to one-line descriptions."""
    return {handle.name: handle.description for handle in iter_handles()}


def describe_planners(kind: str | None = None) -> list[dict]:
    """JSON-able descriptions of every registered planner."""
    return [handle.describe() for handle in iter_handles(kind)]

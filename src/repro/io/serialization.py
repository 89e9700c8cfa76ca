"""JSON (de)serialization of instances, plans, and comparison results.

The formats are intentionally simple: plain dictionaries produced by the
``to_dict`` methods of the model classes, written with :mod:`json`.  They are
stable enough to archive benchmark instances and planner outputs.

Two properties matter to the batch runtime (:mod:`repro.runtime`):

* every ``save_*`` helper creates missing parent directories and writes
  atomically (temp file in the target directory + :func:`os.replace`), so a
  crashed or concurrent writer can never leave a truncated file behind;
* :func:`canonical_json` renders any payload with sorted keys and no
  whitespace, which is the byte representation the runtime's content hashes
  (job ids, result-store keys) are computed over.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.model import OSPInstance, StencilPlan

if TYPE_CHECKING:  # only an annotation: repro.evaluation imports repro.runtime
    from repro.evaluation.compare import Comparison

__all__ = [
    "save_instance",
    "load_instance",
    "save_plan",
    "load_plan",
    "save_comparison",
    "instance_to_json",
    "instance_from_json",
    "canonical_json",
    "write_text_atomic",
]


def canonical_json(data) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace.

    The encoding is deterministic for any tree of plain containers (NumPy
    scalars are unwrapped, sets/tuples become lists), which makes it suitable
    as the pre-image of content hashes — two payloads hash equal iff their
    canonical encodings are byte-identical.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=_jsonable)


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically, creating parent directories.

    The text lands in a temporary file next to ``path`` and is moved into
    place with :func:`os.replace`, so readers only ever observe the old or
    the complete new content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def instance_to_json(instance: OSPInstance, indent: int | None = 2, canonical: bool = False) -> str:
    """Serialize an instance to a JSON string.

    ``canonical=True`` uses :func:`canonical_json` (and ignores ``indent``),
    producing the exact bytes the runtime hashes for instance identity.
    """
    if canonical:
        return canonical_json(instance.to_dict())
    return json.dumps(instance.to_dict(), indent=indent)


def instance_from_json(text: str) -> OSPInstance:
    """Deserialize an instance from a JSON string."""
    return OSPInstance.from_dict(json.loads(text))


def save_instance(instance: OSPInstance, path: str | Path) -> Path:
    """Write an instance to ``path`` (atomically) and return the path."""
    return write_text_atomic(path, instance_to_json(instance))


def load_instance(path: str | Path) -> OSPInstance:
    """Read an instance previously written by :func:`save_instance`.

    A file that cannot be read raises :class:`OSError`; content that is not
    an instance (not JSON, or missing or mistyped fields) raises
    :class:`~repro.errors.ValidationError`.
    """
    try:
        return instance_from_json(Path(path).read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"not an instance ({type(exc).__name__}: {exc})") from exc


def save_plan(plan: StencilPlan, path: str | Path) -> Path:
    """Write a plan (without its instance) to ``path`` atomically."""
    return write_text_atomic(path, json.dumps(plan.to_dict(), indent=2, default=_jsonable))


def load_plan(instance: OSPInstance, path: str | Path) -> StencilPlan:
    """Read a plan written by :func:`save_plan`, re-attaching its instance."""
    return StencilPlan.from_dict(instance, json.loads(Path(path).read_text()))


def save_comparison(comparison: Comparison, path: str | Path) -> Path:
    """Write a comparison result to ``path`` atomically."""
    return write_text_atomic(path, json.dumps(comparison.to_dict(), indent=2, default=_jsonable))


def _jsonable(value):
    """Fallback encoder for NumPy scalars and other simple objects."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, frozenset)):
        # Set iteration order varies with the per-process hash seed; sort so
        # the canonical encoding (and thus every content hash) is stable.
        return sorted(value, key=repr)
    if isinstance(value, tuple):
        return list(value)
    return str(value)

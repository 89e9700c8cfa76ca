"""Exception hierarchy for the E-BLOW reproduction library.

All errors raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ValidationError(ReproError):
    """An object (character, instance, plan, ...) violates an invariant."""


class InfeasibleError(ReproError):
    """A mathematical program or packing problem has no feasible solution."""


class UnboundedError(ReproError):
    """A linear program is unbounded in the direction of optimization."""


class SolverError(ReproError):
    """A solver backend failed for a reason other than infeasibility."""


class PlacementError(ReproError):
    """A stencil placement is illegal (out of outline or overlapping patterns)."""

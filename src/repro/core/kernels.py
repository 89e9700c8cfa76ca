"""Vectorized evaluation kernels for the E-BLOW hot paths.

Every planner stage ultimately scores selections with the two Section-2.1
quantities: the per-region writing times (Eqn. 1) and the per-character
profits (Eqn. 6).  The scalar reference implementations in
:mod:`repro.model.writing_time` and :mod:`repro.core.profits` walk Python
loops over characters x regions; this module exposes the same math as NumPy
matvecs over the cached instance arrays, plus an *incremental* evaluator
(:class:`RunningTimes`) that maintains the region-time vector under
select/deselect/swap moves in O(P) per move instead of re-summing the whole
selection.

The kernels are cached per instance (instances are immutable, so the cache
is never invalidated) and are cross-checked against the scalar
implementations by property tests in ``tests/core/test_kernels.py``.

The cached arrays are read-only.  Kernel code must treat them as immutable
inputs — any derived mutable state belongs in fresh arrays (which is what
:class:`RunningTimes` and every ``region_times`` call already do).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.model import OSPInstance

__all__ = ["InstanceKernels", "RunningTimes", "kernels_of"]


class InstanceKernels:
    """NumPy views of the writing-time constants of one instance.

    Attributes
    ----------
    repeats:
        ``(n, P)`` occurrence counts ``t_ic``.
    shot_delta:
        ``(n,)`` per-occurrence shot savings ``n_i - cp_i``.
    reductions:
        ``(n, P)`` writing-time reductions ``R_ic``.
    vsb:
        ``(P,)`` pure-VSB region writing times ``T_VSB(c)``.
    """

    __slots__ = ("instance", "repeats", "shot_delta", "reductions", "vsb", "name_index")

    def __init__(self, instance: OSPInstance) -> None:
        self.instance = instance
        self.repeats = instance.repeat_matrix_array()
        self.shot_delta = instance.shot_delta_array()
        self.reductions = instance.reduction_matrix_array()
        self.vsb = instance.vsb_times_array()
        self.name_index = {ch.name: i for i, ch in enumerate(instance.characters)}

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #
    def indices_of(self, names: Iterable[str]) -> list[int]:
        """Character indices for the given names (unknown names are skipped)."""
        return self.instance.indices_of(names)

    # ------------------------------------------------------------------ #
    # Eqn. 1 — region writing times
    # ------------------------------------------------------------------ #
    def region_times(self, selected_indices: Sequence[int]) -> np.ndarray:
        """Region writing times for a selection given by character indices."""
        if len(selected_indices) == 0:
            return self.vsb.copy()
        idx = np.asarray(selected_indices, dtype=int)
        return self.vsb - self.reductions[idx].sum(axis=0)

    # ------------------------------------------------------------------ #
    # Eqn. 6 — profits
    # ------------------------------------------------------------------ #
    def profits(self, region_times: Sequence[float] | np.ndarray | None = None) -> np.ndarray:
        """Profit of every character under the given region times.

        ``None`` means "nothing selected yet" (pure-VSB times).  Returns a
        fresh ``(n,)`` array.
        """
        times = self.vsb if region_times is None else np.asarray(region_times, dtype=float)
        t_max = float(times.max()) if times.size else 0.0
        if t_max <= 0.0:
            return np.zeros(len(self.instance.characters))
        return self.reductions @ (times / t_max)


def kernels_of(instance: OSPInstance) -> InstanceKernels:
    """The (cached) kernel bundle of an instance."""
    return instance.cached("kernels", lambda: InstanceKernels(instance))


class RunningTimes:
    """Incrementally maintained per-region writing-time vector (Eqn. 1).

    Invariant: ``times == vsb - sum_i reductions[i]`` over the currently
    selected character indices.  Every mutation is O(P); trial evaluations
    (``trial_select`` / ``trial_swap``) cost O(P) and do not mutate.

    The vector is rebuilt from scratch every ``REBASE_INTERVAL`` mutations to
    keep floating-point drift bounded regardless of move-sequence length.
    """

    REBASE_INTERVAL = 4096

    __slots__ = ("kernels", "times", "_selected", "_mutations")

    def __init__(
        self, kernels: InstanceKernels, selected_indices: Iterable[int] = ()
    ) -> None:
        self.kernels = kernels
        self._selected = set(selected_indices)
        self._mutations = 0
        self.times = kernels.region_times(sorted(self._selected))

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def _rebase_if_due(self) -> None:
        self._mutations += 1
        if self._mutations >= self.REBASE_INTERVAL:
            self._mutations = 0
            self.times = self.kernels.region_times(sorted(self._selected))

    def select(self, char_index: int) -> None:
        """Add a character to the selection."""
        if char_index in self._selected:
            return
        self._selected.add(char_index)
        self.times = self.times - self.kernels.reductions[char_index]
        self._rebase_if_due()

    def deselect(self, char_index: int) -> None:
        """Remove a character from the selection."""
        if char_index not in self._selected:
            return
        self._selected.discard(char_index)
        self.times = self.times + self.kernels.reductions[char_index]
        self._rebase_if_due()

    def swap(self, out_index: int, in_index: int) -> None:
        """Replace ``out_index`` with ``in_index`` in the selection."""
        self.deselect(out_index)
        self.select(in_index)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def selected(self) -> frozenset[int]:
        """Snapshot copy of the selection; use ``in running`` for O(1) tests."""
        return frozenset(self._selected)

    def __contains__(self, char_index: int) -> bool:
        return char_index in self._selected

    def total(self) -> float:
        """Current system writing time ``max_c T_c``."""
        return float(self.times.max())

    def trial_select(self, char_index: int) -> float:
        """System writing time if ``char_index`` were additionally selected."""
        return float((self.times - self.kernels.reductions[char_index]).max())

    def trial_swap(self, out_index: int, in_index: int) -> float:
        """System writing time if ``out_index`` were replaced by ``in_index``."""
        reductions = self.kernels.reductions
        return float(
            (self.times + reductions[out_index] - reductions[in_index]).max()
        )

    def as_array(self) -> np.ndarray:
        """Copy of the current region-time vector."""
        return self.times.copy()

    def as_list(self) -> list[float]:
        """Current region times as a plain list (API compatibility helper)."""
        return self.times.tolist()

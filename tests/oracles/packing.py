"""The batch sequence-pair packer: the reference of the incremental packer.

:class:`PackingContext` packs a whole sequence pair from scratch with the
O(n^2) longest-path DP, vectorized over NumPy.  The planner's
:class:`repro.floorplan.IncrementalPacker` keeps the same coordinates
resident under in-place moves; its adds and maxes are the same IEEE
operations, so its coordinates equal :meth:`PackingContext.pack_arrays` bit
for bit.  The copy-engine oracle (``tests/oracles/annealing.py``) re-packs
every candidate through it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.floorplan import Block, PackingResult, SequencePair

__all__ = ["PackingContext"]


class PackingContext:
    """Pre-computed data for repeatedly packing the same block set.

    The simulated-annealing loop evaluates thousands of sequence pairs over a
    fixed block set; this context pre-computes the pairwise blank-overlap
    matrices once and evaluates each packing with NumPy, which is an order of
    magnitude faster than the dictionary-based :func:`pack_sequence_pair`.
    Both paths produce identical results (verified in the test suite).
    """

    def __init__(self, blocks: Mapping[str, Block]) -> None:
        self.names = sorted(blocks)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.blocks = [blocks[name] for name in self.names]
        n = len(self.names)
        self.widths = np.array([b.width for b in self.blocks], dtype=float)
        self.heights = np.array([b.height for b in self.blocks], dtype=float)
        self.blank_right = np.array([b.blank_right for b in self.blocks], dtype=float)
        self.blank_left = np.array([b.blank_left for b in self.blocks], dtype=float)
        self.blank_top = np.array([b.blank_top for b in self.blocks], dtype=float)
        self.blank_bottom = np.array([b.blank_bottom for b in self.blocks], dtype=float)
        # h_edge[a, b] = width(a) - min(blank_right(a), blank_left(b))
        self.h_edge = self.widths[:, None] - np.minimum(
            self.blank_right[:, None], self.blank_left[None, :]
        )
        self.v_edge = self.heights[:, None] - np.minimum(
            self.blank_top[:, None], self.blank_bottom[None, :]
        )
        self._n = n

    def pack(self, pair: SequencePair) -> PackingResult:
        """Pack a sequence pair over the context's block set."""
        x, y = self.pack_arrays(pair)
        n = self._n
        width = float(np.max(x + self.widths)) if n else 0.0
        height = float(np.max(y + self.heights)) if n else 0.0
        return PackingResult(
            positions={
                name: (float(x[self.index[name]]), float(y[self.index[name]]))
                for name in self.names
            },
            width=width,
            height=height,
        )

    def pack_arrays(self, pair: SequencePair) -> tuple[np.ndarray, np.ndarray]:
        """Longest-path coordinates of a sequence pair (no dict building).

        The longest-path DP walks Gamma- order; re-indexing the edge-weight
        matrices into that order once per call means every step works on
        contiguous slices (``He[:k, k]``) instead of fancy-indexed gathers,
        and the predecessor masks are plain prefix views — no per-step
        allocations besides the DP arrays themselves.
        """
        n = self._n
        result_x = np.zeros(n)
        result_y = np.zeros(n)
        if n == 0:
            return result_x, result_y
        index = self.index
        pos_p = np.empty(n, dtype=int)
        for rank, name in enumerate(pair.positive):
            pos_p[index[name]] = rank
        order = np.fromiter(
            (index[name] for name in pair.negative), dtype=int, count=n
        )
        ranks = pos_p[order]
        # Transposed so each step reads a contiguous predecessor row.
        h_edge = self.h_edge[np.ix_(order, order)].T.copy()
        v_edge = self.v_edge[np.ix_(order, order)].T.copy()

        xs = np.zeros(n)  # coordinates in Gamma- order
        ys = np.zeros(n)
        buf = np.empty(n)
        mask = np.empty(n, dtype=bool)
        maximum_reduce = np.maximum.reduce
        for k in range(1, n):
            m = mask[:k]
            np.less(ranks[:k], ranks[k], out=m)
            b = buf[:k]
            np.add(xs[:k], h_edge[k, :k], out=b)
            xs[k] = maximum_reduce(b, where=m, initial=0.0)
            np.invert(m, out=m)
            np.add(ys[:k], v_edge[k, :k], out=b)
            ys[k] = maximum_reduce(b, where=m, initial=0.0)
        result_x[order] = xs
        result_y[order] = ys
        return result_x, result_y
